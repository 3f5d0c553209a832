"""Benchmark for dihedral: seeded involutions classified through the library or the CLI.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload fp-small --seed 1 --seconds 30 --trace 0

Every workload is a closed loop with one caller: the next input is sent only
when the last one has finished.  Inputs are seeded `random_involution`s
rendered as expression strings with their known labels; the program sees only
the strings, through `evaluate` or `python -m dihedral classify`.  Each output
is checked outside the timed section.  With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it reports per-layer metrics from spans
around each layer, and the tracing overhead.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  See
bench/NOTES.md.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    streams: tuple  # (field flag, degree bound) pairs, interleaved round robin
    corpus_size: int
    budget_s: float  # per input; over it the input counts as failed
    tail_pct: float  # latency_tail_ms percentile, fixed so runs compare
    num_factors: int | None = None  # simple units in each conjugator; None draws 0..4
    cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fp-small",
            (("fp:3", 3), ("fp:7", 3), ("fp:101", 3), ("fp:3", 6), ("fp:7", 6)),
            corpus_size=4000,
            budget_s=5.0,
            tail_pct=95.0,
            num_factors=1,
        ),
        Workload("q", (("q", 3),), 6000, budget_s=5.0, tail_pct=95.0, num_factors=1),
        Workload("cli", (("fp:7", 3), ("q", 3)), 200, budget_s=10.0, tail_pct=85.0, num_factors=1, cli=True),
        # Not in BENCHMARK.json: at this commit its time goes to inputs over
        # budget, so its figures swing with the seed (see NOTES.md).
        Workload("fp-large", (("fp:1048573", 3),), 400, budget_s=5.0, tail_pct=75.0),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("classify_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("completed_share", "share"),
    ("peak_rss_mb", "MB"),
)


def load_package():
    """Import dihedral from this checkout's src/, or exit non-zero."""
    if not (SRC / "dihedral" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'dihedral'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dihedral
    import dihedral.cli

    if Path(dihedral.__file__).resolve().parent != (SRC / "dihedral").resolve():
        sys.exit(f"bench: imported dihedral from {dihedral.__file__}, not from {SRC}")
    return dihedral


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---- inputs ----


@dataclass
class Item:
    index: int
    flag: str
    degree_bound: int
    expr: str  # str() of the generated involution; the gate compares str() of the parsed one with it
    label: str


def stream_seed(seed, workload, stream):
    digest = hashlib.sha256(f"{workload}/{seed}/{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_corpus(dh, wl, seed):
    """The workload's inputs and the sha256 that identifies them.

    Only strings are kept, so the corpus adds little to the process's memory.
    """
    gens = []
    for k, (flag, bound) in enumerate(wl.streams):
        gens.append((flag, bound, dh.cli.make_field_from_flag(flag), random.Random(stream_seed(seed, wl.name, k))))
    items = []
    sha = hashlib.sha256(f"{wl.name} seed={seed}\n".encode())
    for i in range(wl.corpus_size):
        flag, bound, field, rng = gens[i % len(gens)]
        u, label = dh.random_involution(field, rng, bound, num_factors=wl.num_factors)
        item = Item(i, flag, bound, str(u), str(label))
        sha.update(f"{flag}\t{bound}\t{item.label}\t{item.expr}\n".encode())
        items.append(item)
    return items, sha.hexdigest()


# ---- set-up and import time, measured in fresh interpreters ----

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import dihedral
import dihedral.cli
for flag in sys.argv[1:]:
    dihedral.cli.make_field_from_flag(flag)
print(time.perf_counter() - t0)
"""


def run_timing_child(code, *args):
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def measure_setup(wl):
    """Median set-up time, scaled and as measured, over fresh interpreters.

    Set-up children alternate with import probes (see speed.py), and each is
    scaled by the probes on either side of it.
    """
    flags = sorted({flag for flag, _ in wl.streams})
    probes = [run_timing_child(speed.IMPORT_PROBE)]
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(run_timing_child(SETUP_CODE, *flags))
        probes.append(run_timing_child(speed.IMPORT_PROBE))
    scaled = [t * f for t, f in zip(raw, speed.import_scale_factors(probes))]
    return statistics.median(scaled), statistics.median(raw)


def measure_import_split():
    """Median cumulative import time (s) of numpy and of dihedral, from -X importtime."""
    numpy_s, dihedral_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dihedral"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative = {}
        for line in out.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        numpy_s.append(cumulative["numpy"])
        dihedral_s.append(cumulative["dihedral"])
    return statistics.median(numpy_s), statistics.median(dihedral_s)


# ---- the timed loops ----


class OverBudget(BaseException):
    """Raised by the interval timer; a BaseException so no `except Exception` swallows it."""


def _alarm(signum, frame):
    raise OverBudget()


@dataclass
class Record:
    item: Item
    seconds: float  # as measured
    status: str  # done | not_split | over_budget | error
    note: str = ""
    verdict: object = None  # "ok", ("failed", cause) or ("rejected", cause)
    probe: float = 0.0  # speed.probe() just before the input
    scaled: float = 0.0  # seconds in the units of speed.REFERENCE_S


def library_call(dh, item, field):
    u = dh.exprs.evaluate(item.expr, field)
    result = dh.classification.classify(u)
    return u, result, dh.classification.transcript(u, result)


def cli_inprocess_call(dh, item, field):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dh.cli.main(["classify", item.expr, "--field", item.flag, "--json"])
    return rc, out.getvalue().encode(), err.getvalue()


def run_cli_child(item, budget):
    argv = [sys.executable, "-m", "dihedral", "classify", item.expr, "--field", item.flag, "--json"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise OverBudget() from None
    return proc.returncode, stdout, stderr.decode()


def cli_status(rc, stderr):
    if rc == 0:
        return "done", ""
    if rc == 3 and stderr.startswith("dihedral: NotSplitOverField"):
        return "not_split", ""
    return "error", f"exit {rc}: {stderr.strip()}"


def run_loop(dh, wl, items, gate, seconds=None, tracer=None, budget_scale=1.0, children=False):
    """Closed loop over the corpus until `seconds` of classifying are spent.

    With seconds=None each item runs once.  With children=True each CLI
    input runs in its own `python -m dihedral` process; otherwise `cli.main`
    runs in this process.  Each output is checked as soon as it is timed and
    then dropped, so the harness keeps no outputs alive for the collector to
    scan.  The machine's speed is probed before each input (see speed.py).
    Every pass over the corpus starts on fresh fields, and a field is
    also replaced after any failed input, so a half-built tower level cannot
    leak forward.
    """
    budget = wl.budget_s * budget_scale
    records = []
    fields = {}
    clock = time.perf_counter
    busy = 0.0
    i = 0
    while i < len(items) if seconds is None else busy < seconds:
        item = items[i % len(items)]
        if i % len(items) == 0:
            fields = {}
        field = None
        if not children:
            field = fields.get(item.flag)
            if field is None:
                field = fields[item.flag] = dh.cli.make_field_from_flag(item.flag)
        out = None
        probe = speed.probe()
        t0 = clock()
        try:
            if children:
                out = run_cli_child(item, budget)
            else:
                signal.setitimer(signal.ITIMER_REAL, budget)
                try:
                    out = (cli_inprocess_call if wl.cli else library_call)(dh, item, field)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            dt = clock() - t0
            status, note = cli_status(out[0], out[2]) if wl.cli else ("done", "")
        except OverBudget:
            dt, status, note = clock() - t0, "over_budget", f"over {budget:g} s"
        except dh.NotSplitOverField:
            dt, status, note = clock() - t0, "not_split", ""
        except Exception as exc:  # any other exception is a failed input, recorded by type
            dt, status, note = clock() - t0, "error", f"{type(exc).__name__}: {exc}"
        rec = Record(item, dt, status, note[:160], probe=probe)
        if tracer is not None:
            tracer.on = False  # the gate's arithmetic is not the program's work
        rec.verdict = gate.check(rec, out)
        if tracer is not None:
            tracer.on = True
        records.append(rec)
        if status in ("over_budget", "error"):
            fields.pop(item.flag, None)
        busy += dt
        i += 1
    for rec, factor in zip(records, speed.scale_factors([r.probe for r in records])):
        rec.scaled = rec.seconds * factor
    return records


# ---- correctness gate, outside the timed section ----


class Gate:
    """Sorts each output into ok, failed or rejected, each by cause.

    Failed means the input ran over its budget: it counts against the run's
    figures but not against its correctness.  Rejected means the output fails
    the gate: a wrong answer (label, conjugation, determinant, parsed
    element, CLI bytes), a witness check reported false, an unexpected
    exception or CLI exit code, or a refusal the oracle does not confirm.
    Any rejected output makes the run report `"correct": false` and exit 1.
    NotSplitOverField refusals are confirmed by `resolve`, after the timed
    loop, because the oracle imports sympy.
    """

    def __init__(self, dh):
        self.dh = dh
        self.pending = []
        self._oracle = {}

    def check(self, rec, out):
        if rec.status == "over_budget":
            return ("failed", "over_budget")
        if rec.status == "error":
            return ("rejected", rec.note.split(":")[0])
        if rec.status == "not_split":
            self.pending.append(rec)
            return None
        if isinstance(out[0], int):
            return self.check_cli(rec.item, out[1])
        return self.check_result(rec.item, *out)

    def check_result(self, item, u, result, record):
        dh = self.dh
        if str(u) != item.expr:
            return ("rejected", "evaluated element differs from the generated one")
        if not all(record["checks"].values()):
            return ("rejected", "checks_false")
        if str(result.label) != item.label:
            return ("rejected", f"label {result.label} but seeded {item.label}")
        # checked here directly, since verify_witness turns exceptions into False
        nu = result.witness
        rep = result.label.element(u.field)
        if nu * rep != u * nu:
            return ("rejected", "nu * rep != u * nu")
        if nu.trace_det()[1] != dh.LaurentPoly.one(u.field):
            return ("rejected", "det nu != 1")
        return "ok"

    def check_cli(self, item, stdout):
        dh = self.dh
        u = dh.evaluate(item.expr, dh.cli.make_field_from_flag(item.flag))
        result = dh.classify(u)
        record = dh.transcript(u, result)
        if stdout != (json.dumps(record) + "\n").encode():
            return ("rejected", "CLI stdout differs from json.dumps(transcript(u, classify(u)))")
        return self.check_result(item, u, result, record)

    def resolve(self):
        for rec in self.pending:
            rec.verdict = "ok" if self.confirm_not_split(rec.item) else ("rejected", "not_split_unconfirmed")
        self.pending = []

    def confirm_not_split(self, item):
        """sympy over QQ finds a non-linear factor of 1+f or of g.

        Checked on the input string, read by `read_involution` rather than by
        the program's parser.  For an involution g g* = (1+f)(1+f)*, so 1+f is
        tried first and g only when 1+f splits.
        """
        if item.flag != "q":
            return False
        if item.index not in self._oracle:
            import sympy

            x = sympy.Symbol("x")
            f, g = read_involution(item.expr)
            f[0] = f.get(0, 0) + 1
            found = False
            for terms in (f, g):
                exps = [e for e, c in terms.items() if c]
                if not exps:
                    continue
                coeffs = [terms.get(e, 0) for e in range(max(exps), min(exps) - 1, -1)]
                poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], x, domain=sympy.QQ)
                if any(fac.degree() > 1 for fac, _ in poly.factor_list()[1]):
                    found = True
                    break
            self._oracle[item.index] = found
        return self._oracle[item.index]


def read_laurent(text):
    """{exponent: Fraction} of a Laurent polynomial as dihedral prints it, e.g. `3/4*t^-2 - t + 5`."""
    tokens = text.split(" ")
    terms = {}
    for sign, body in zip(["+"] + tokens[1::2], tokens[::2]):
        if body.startswith("-"):
            sign, body = ("-" if sign == "+" else "+"), body[1:]
        coef, t, power = body.partition("t")
        c = Fraction(coef.rstrip("*") or 1)
        terms[(int(power[1:]) if power else 1) if t else 0] = -c if sign == "-" else c
    return terms


def read_involution(text):
    """({exponent: Fraction} of f, of g) for an element printed as `f + s*(g)`, `s*(g)` or `f`."""
    head, sep, tail = text.partition("s*(")
    if not sep:
        return read_laurent(text), {}
    return (read_laurent(head[: -len(" + ")]) if head else {}), read_laurent(tail[: -len(")")])


def judge(records):
    """({(kind, cause): records} of every input that did not pass, whether any was rejected)."""
    causes = {}
    for rec in records:
        if rec.verdict != "ok":
            causes.setdefault(rec.verdict, []).append(rec)
    return causes, any(kind == "rejected" for kind, _ in causes)


# ---- statistics ----


def percentile(values, pct):
    """Linear interpolation between order statistics (pct in 0..100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


# ---- the two kinds of run ----


def end_to_end(dh, wl, items, seconds):
    gate = Gate(dh)
    records = run_loop(dh, wl, items, gate, seconds, children=wl.cli)
    rss = peak_rss_mb(children=wl.cli)
    # after the peak is read, so its children are not counted on cli
    setup_s, setup_raw = measure_setup(wl)
    gate.resolve()
    n = len(records)
    completed = sum(1 for r in records if r.verdict == "ok")
    lat = [r.scaled * 1e3 for r in records]
    raw = [r.seconds * 1e3 for r in records]
    tail = percentile(lat, wl.tail_pct)
    beyond = sum(1 for x in lat if x > tail)
    pct = f"p{wl.tail_pct:g}"
    values = {
        "setup_s": (
            setup_s,
            f"median of {SETUP_REPEATS} set-ups in fresh interpreters; {setup_raw:.4g} as measured",
        ),
        "classify_per_s": (
            1e3 * completed / sum(lat),
            f"{completed} completed; {1e3 * completed / sum(raw):.4g} as measured",
        ),
        "latency_p50_ms": (percentile(lat, 50), f"n={n}; {percentile(raw, 50):.4g} as measured"),
        "latency_tail_ms": (tail, f"{pct}, n={n}, {beyond} beyond; {percentile(raw, wl.tail_pct):.4g} as measured"),
        "completed_share": (completed / n, f"{completed} of n={n}"),
        "peak_rss_mb": (rss, "largest CLI child" if wl.cli else "benchmark process after the timed loop"),
    }
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond {pct}", file=sys.stderr)
    metrics = {}
    for name, unit in END_TO_END:
        value, note = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{wl.name} {name} {value:.6g} {unit} ({note})")
    return records, metrics


def traced(dh, wl, items, seconds):
    from spans import SPAN_NAMES, Tracer

    import_numpy_s, import_dihedral_s = measure_import_split()
    gate = Gate(dh)
    # The first pass warms the interpreter and fixes the inputs; the traced
    # pass and a second untraced pass then run those inputs on fresh fields.
    warm = run_loop(dh, wl, items, gate, seconds / 3)
    subset = items[: len(warm)]
    tracer = Tracer()
    tracer.install(dh)
    try:
        spans = run_loop(dh, wl, subset, gate, tracer=tracer, budget_scale=4.0)
    finally:
        tracer.uninstall()
    plain = run_loop(dh, wl, subset, gate)
    gate.resolve()
    summary = tracer.summary()
    n = len(spans)
    # overhead over the inputs both passes completed, as budgets differ
    both = [(t, p) for t, p in zip(spans, plain) if t.verdict == p.verdict == "ok"]
    traced_s = sum(t.scaled for t, _ in both)
    plain_s = sum(p.scaled for _, p in both)
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls / n, "unit": "calls/input"}
        metrics[f"{name}.self_s"] = {"value": self_s / n, "unit": "s/input"}
    not_split = sum(1 for r in spans if r.status == "not_split" and r.verdict == "ok")
    metrics["cli.import_numpy_s"] = {"value": import_numpy_s, "unit": "s"}
    metrics["cli.import_dihedral_s"] = {"value": import_dihedral_s, "unit": "s"}
    metrics["q.not_split"] = {"value": not_split, "unit": "count"}
    metrics["trace.inputs"] = {"value": n, "unit": "count"}
    metrics["trace.spans"] = {"value": len(tracer.name), "unit": "count"}
    metrics["trace.overhead_pct"] = {"value": 100 * (traced_s / plain_s - 1), "unit": "%"}
    print(
        f"{wl.name} traced {n} inputs; on the {len(both)} both passes completed: "
        f"{plain_s:.3f} s untraced, {traced_s:.3f} s traced (scaled) "
        f"({len(tracer.name)} spans, overhead {metrics['trace.overhead_pct']['value']:.1f}%)"
    )
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return warm + spans + plain, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, required=True, help="workload seed; any integer, so held-out seeds can check a claim"
    )
    parser.add_argument("--seconds", type=float, required=True, help="time spent classifying in the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    dh = load_package()
    signal.signal(signal.SIGALRM, _alarm)
    # one CPU for this process and its children, so the speed probe runs
    # where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    items, sha = make_corpus(dh, wl, args.seed)
    # the corpus lives for the whole run; keep the collector from rescanning it
    gc.collect()
    gc.freeze()
    print(
        f"{wl.name} seed {args.seed}: corpus sha256 {sha} "
        f"({len(items)} inputs, generated in {time.perf_counter() - t0:.2f} s)"
    )
    records, metrics = (traced if args.trace else end_to_end)(dh, wl, items, args.seconds)
    causes, rejected = judge(records)
    failed = sum(len(recs) for recs in causes.values())
    print(f"{wl.name} attempted {len(records)}, failed {failed}")
    for (kind, cause), recs in sorted(causes.items()):
        print(f"  {kind} {cause}: {len(recs)}")
        for rec in recs:
            print(f"    input {rec.item.index} ({rec.item.flag}, {rec.seconds:.2f} s) {rec.note}")
    if rejected:
        print(f"{wl.name}: outputs failed the correctness gate", file=sys.stderr)
    print(json.dumps({"correct": not rejected, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
