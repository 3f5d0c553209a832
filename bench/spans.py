"""Span tracing for the benchmark, installed around dihedral's public functions.

The program is not edited: `install` replaces functions and methods of the
dihedral modules with wrappers that record one span per call, and
`uninstall` puts the originals back.  Spans are kept in memory as flat
arrays (name, parent, start, end) and summarised when the run ends.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and nested, so children never overlap.
"""

import sys
import time
from array import array

# Methods of dihedral._kernel.Kernel, split by the tower level they run at
# (the default bound, and the one the benchmark uses, is level 64).
KERNEL_FNS = ("e_mul", "e_inv", "p_mul", "p_divmod", "p_powmod", "p_gcd")
BANDS = ("l1", "l2-8", "l9-64")

# The two factor_linear calls made directly by one classify call: 1+f, then g.
FACTOR_SPAN = "laurent.factor_linear"
CLASSIFY_SPAN = "classification.classify"
FACTOR_NAMES = ("classification.factor_1pf", "classification.factor_g")

# (module, owner attribute or None for a module function, attribute, span name)
TARGETS = (
    ("fields", "PrimeClosureField", "ensure_level", "fields.ensure_level"),
    ("fields", "PrimeClosureField", "embed", "fields.embed"),
    ("fields", "PrimeClosureField", "frobenius", "fields.frobenius"),
    ("fields", "PrimeClosureField", "canonical", "fields.canonical"),
    ("fields", "PrimeClosureField", "roots", "fields.roots"),
    ("fields", "RationalField", "roots", "fields.RationalField.roots"),
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul"),
    ("laurent", "LaurentPoly", "factor_linear", FACTOR_SPAN),
    ("algebra", "AlgebraElement", "__mul__", "algebra.mul"),
    ("algebra", "AlgebraElement", "is_involution", "algebra.is_involution"),
    ("algebra", None, "invert", "algebra.invert"),
    ("algebra", None, "conjugate", "algebra.conjugate"),
    ("classification", None, "classify", CLASSIFY_SPAN),
    ("classification", None, "match_subset", "classification.match_subset"),
    ("classification", None, "extract_eps_theta", "classification.extract_eps_theta"),
    ("classification", None, "build_witness", "classification.build_witness"),
    ("classification", None, "verify_witness", "classification.verify_witness"),
    ("exprs", None, "evaluate", "exprs.evaluate"),
    ("cli", None, "main", "cli.main"),
)

# Every span name the summary reports, in output order.
SPAN_NAMES = tuple(
    [f"kernel.{fn}.{band}" for fn in KERNEL_FNS for band in BANDS]
    + [name for *_, name in TARGETS if name != FACTOR_SPAN]
    + list(FACTOR_NAMES)
)


def band(level):
    if level == 1:
        return 0
    return 1 if level <= 8 else 2


class Tracer:
    """Records spans of the wrapped calls while `on` is true."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.on = True
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self._undo = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.start.append(self.clock())
        self.current = i
        return i

    def exit(self, i):
        self.end[i] = self.clock()
        self.current = self.parent[i]

    def wrap(self, fn, name):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(i)

        return traced

    def wrap_kernel(self, fn, name):
        nids = tuple(self.name_id(f"{name}.{b}") for b in BANDS)
        enter, exit_ = self.enter, self.exit

        def traced(kern, *args):
            if not self.on:
                return fn(kern, *args)
            i = enter(nids[band(kern.d)])
            try:
                return fn(kern, *args)
            finally:
                exit_(i)

        return traced

    # ---- installing the wrappers into the dihedral package ----

    def install(self, package):
        """Wrap every target in the loaded dihedral modules."""
        prefix = package.__name__ + "."
        modules = [
            m for key, m in sys.modules.items() if key == package.__name__ or key.startswith(prefix)
        ]
        kernel = package._kernel.Kernel
        for fn in KERNEL_FNS:
            self._set(kernel, fn, self.wrap_kernel(getattr(kernel, fn), f"kernel.{fn}"))
        for mod_name, owner, attr, name in TARGETS:
            mod = getattr(package, mod_name)
            if owner is not None:
                cls = getattr(mod, owner)
                self._set(cls, attr, self.wrap(vars(cls)[attr], name))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(orig, name)
            # `from .x import f` copies the reference, so rebind every copy
            for m in modules:
                if vars(m).get(attr) is orig:
                    self._set(m, attr, traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ---- summary ----

    def summary(self):
        """{span name: [calls, self seconds]} for every recorded span.

        A factor_linear span whose parent is a classify span is counted as
        factor_1pf when it is that parent's first such child and factor_g
        when it is the second.
        """
        n = len(self.name)
        factor_id = self._ids.get(FACTOR_SPAN)
        classify_id = self._ids.get(CLASSIFY_SPAN)
        child = [0.0] * n
        label = list(self.name)
        seen = {}
        extra = [self.name_id(x) for x in FACTOR_NAMES]
        names = self.names
        for i in range(n):
            par = self.parent[i]
            if par < 0:
                continue
            child[par] += self.end[i] - self.start[i]
            if self.name[i] == factor_id and self.name[par] == classify_id:
                k = seen.get(par, 0)
                seen[par] = k + 1
                if k < len(extra):
                    label[i] = extra[k]
        out = {}
        for i in range(n):
            rec = out.setdefault(names[label[i]], [0, 0.0])
            rec[0] += 1
            rec[1] += self.end[i] - self.start[i] - child[i]
        return out
