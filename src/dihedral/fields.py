"""Coefficient fields: a lazy tower over F_p, plus an exact rationals backend.

The prime-closure context materializes one extension per degree on demand:
level d is F_{p^d} presented as F_p[y]/(m_d) where m_d is the lexicographically
least monic irreducible of degree d (coefficients compared low degree first).
Creating level d first creates every divisor level, then fixes an embedding
from each divisor; each embedding sends the sublevel's generator to the least
root of its modulus that commutes with every embedding fixed so far.  With
that discipline the embedding maps form a compatible system, so equality of
elements stored at different levels is meaningful (they are compared through
their canonical minimal-level forms) and arithmetic lifts both operands to the
lcm level.

Elements are immutable and exact: residue vectors for the tower, Fraction for
the rationals.  Root finding over the tower always succeeds up to the
configured degree bound (squarefree split, then distinct-degree, then
equal-degree descent); over the rationals only rational roots are found and
anything else raises NotSplitOverField.
"""

import threading
import zlib
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from ._kernel import Kernel
from .errors import (
    BadLevel,
    BadSpec,
    CharacteristicTwo,
    DivisionByZero,
    InternalInconsistency,
    LevelOverflow,
    NotSplitOverField,
)


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


def _prime_factors(n):
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _lcm(a, b):
    from math import gcd

    return a // gcd(a, b) * b


@dataclass(frozen=True)
class FieldSpec:
    """Description of a coefficient field; build one with make_field."""

    kind: str  # "prime-closure" or "rationals"
    p: int | None = None
    max_extension_degree: int = 64

    @classmethod
    def prime_closure(cls, p, max_extension_degree=64):
        return cls("prime-closure", p, max_extension_degree)

    @classmethod
    def rationals(cls):
        return cls("rationals", None)


def make_field(spec):
    if spec.kind == "rationals":
        return RationalField()
    if spec.kind == "prime-closure":
        return PrimeClosureField(spec.p, spec.max_extension_degree)
    raise BadSpec(f"unknown field kind {spec.kind!r}")


class TowerElement:
    """An element of F_{p^level}, stored as its residue coordinate tuple."""

    __slots__ = ("field", "level", "coords")

    def __init__(self, field, level, coords):
        self.field = field
        self.level = level
        self.coords = coords

    def is_zero(self):
        return not any(self.coords)

    def __bool__(self):
        return any(self.coords)

    def _vec(self):
        return np.array(self.coords, dtype=np.int64)

    def __add__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        f = self.field
        if self.level == 1 and other.level == 1:
            return f._elt1((self.coords[0] + other.coords[0]) % f.p)
        a, b, lvl = f._align(self, other)
        return f._elt(lvl, (a + b) % f.p)

    def __sub__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        f = self.field
        if self.level == 1 and other.level == 1:
            return f._elt1((self.coords[0] - other.coords[0]) % f.p)
        a, b, lvl = f._align(self, other)
        return f._elt(lvl, (a - b) % f.p)

    def __mul__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        f = self.field
        if self.level == 1 and other.level == 1:
            return f._elt1((self.coords[0] * other.coords[0]) % f.p)
        a, b, lvl = f._align(self, other)
        return f._elt(lvl, f._kernel(lvl).e_mul(a, b))

    def __truediv__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        return self * other.inv()

    def __neg__(self):
        f = self.field
        return f._elt(self.level, tuple((-c) % f.p for c in self.coords))

    def inv(self):
        f = self.field
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.level == 1:
            return f._elt1(pow(self.coords[0], f.p - 2, f.p))
        return f._elt(self.level, f._kernel(self.level).e_inv(self._vec()))

    def __pow__(self, n):
        f = self.field
        if n < 0:
            return self.inv() ** (-n)
        if self.level == 1:
            return f._elt1(pow(self.coords[0], n, f.p))
        return f._elt(self.level, f._kernel(self.level).e_pow(self._vec(), n))

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        if self.field.p != other.field.p:
            return False
        if self.level == other.level:
            return self.coords == other.coords
        a = self.field.canonical(self)
        b = other.field.canonical(other)
        return a.level == b.level and a.coords == b.coords

    __hash__ = None

    def __repr__(self):
        if self.level == 1:
            return str(self.coords[0])
        return "[" + ",".join(str(c) for c in self.coords) + "]@" + str(self.level)


class RationalElement:
    """Exact rational scalar."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = Fraction(value)

    def is_zero(self):
        return self.value == 0

    def __bool__(self):
        return self.value != 0

    def __add__(self, other):
        if not isinstance(other, RationalElement):
            return NotImplemented
        return RationalElement(self.field, self.value + other.value)

    def __sub__(self, other):
        if not isinstance(other, RationalElement):
            return NotImplemented
        return RationalElement(self.field, self.value - other.value)

    def __mul__(self, other):
        if not isinstance(other, RationalElement):
            return NotImplemented
        return RationalElement(self.field, self.value * other.value)

    def __truediv__(self, other):
        if not isinstance(other, RationalElement):
            return NotImplemented
        return self * other.inv()

    def __neg__(self):
        return RationalElement(self.field, -self.value)

    def inv(self):
        if self.value == 0:
            raise DivisionByZero("inverse of zero")
        return RationalElement(self.field, 1 / self.value)

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        return RationalElement(self.field, self.value**n)

    def __eq__(self, other):
        if not isinstance(other, RationalElement):
            return NotImplemented
        return self.value == other.value

    __hash__ = None

    def __repr__(self):
        return str(self.value)


class PrimeClosureField:
    """Lazily built tower of extensions of F_p, p an odd prime."""

    def __init__(self, p, max_extension_degree=64):
        if not isinstance(p, int) or not _is_prime(p):
            raise BadSpec(f"p must be prime, got {p!r}")
        if p == 2:
            raise CharacteristicTwo("characteristic 2 is not supported")
        if p >= (1 << 20):
            # keeps every int64 accumulation in the packed kernel overflow-free
            raise BadSpec(f"p = {p} is too large; the kernel supports p < 2^20")
        if not isinstance(max_extension_degree, int) or max_extension_degree < 1:
            raise BadSpec("max_extension_degree must be a positive integer")
        self.p = p
        self.max_level = max_extension_degree
        self._levels = {}
        self._emb = {}
        self._sections = {}
        self._canon = {}
        self._lock = threading.RLock()
        self._small = None
        self.ensure_level(1)
        cache = min(p, 1024)
        self._small = [TowerElement(self, 1, (i,)) for i in range(cache)]

    @property
    def characteristic(self):
        return self.p

    def describe(self):
        return f"fp:{self.p}"

    # ---- element constructors ----

    def _elt1(self, r):
        small = self._small
        if small is not None and r < len(small):
            return small[r]
        return TowerElement(self, 1, (int(r),))

    def _elt(self, level, coords):
        return TowerElement(self, level, tuple(int(c) for c in coords))

    def from_int(self, n):
        return self._elt1(n % self.p)

    @property
    def zero(self):
        return self._elt1(0)

    @property
    def one(self):
        return self._elt1(1)

    def element(self, level, coords):
        coords = tuple(int(c) % self.p for c in coords)
        if len(coords) != level:
            raise BadLevel(f"need {level} coordinates, got {len(coords)}")
        self.ensure_level(level)
        return TowerElement(self, level, coords)

    def generator(self, level):
        """The residue class of y at the given level."""
        self.ensure_level(level)
        coords = [0] * level
        if level > 1:
            coords[1] = 1
        else:
            coords[0] = 1  # level 1 generator is just 1
        return TowerElement(self, level, tuple(coords))

    def random_element(self, rng, level=1):
        self.ensure_level(level)
        return self._elt(level, tuple(rng.randrange(self.p) for _ in range(level)))

    # ---- tower construction ----

    def _kernel(self, level):
        self.ensure_level(level)
        return self._levels[level]

    def ensure_level(self, d):
        """Create F_{p^d} (and everything beneath it) if not present."""
        if d in self._levels:
            return
        if not isinstance(d, int) or d < 1:
            raise BadLevel(f"level must be a positive integer, got {d!r}")
        if d > self.max_level:
            raise LevelOverflow(f"level {d} exceeds bound {self.max_level}")
        with self._lock:
            if d in self._levels:
                return
            for f in _divisors(d)[:-1]:
                self.ensure_level(f)
            kern = Kernel(self.p, self._find_modulus(d))
            pending = {}
            if d > 1:
                E1 = np.zeros((d, 1), dtype=np.int64)
                E1[0, 0] = 1
                pending[(1, d)] = E1
                for f in _divisors(d)[1:-1]:
                    pending[(f, d)] = self._choose_embedding(f, d, kern, pending)
            self._levels[d] = kern
            self._emb.update(pending)

    def _find_modulus(self, d):
        # lexicographically least monic irreducible of degree d, scanning the
        # constant-first coordinate order
        if d == 1:
            return [0, 1]
        p = self.p
        k = 0
        while True:
            coeffs = []
            n = k
            for _ in range(d):
                coeffs.append(n % p)
                n //= p
            coeffs.append(1)
            if self._is_irreducible(coeffs):
                return coeffs
            k += 1

    def _is_irreducible(self, coeffs):
        kern1 = self._levels[1]
        d = len(coeffs) - 1
        M = kern1.p_from_rows([[c] for c in coeffs])
        x = kern1.x_poly()
        # x^(p^d) == x mod M, and gcd(x^(p^(d/q)) - x, M) = 1 for prime q | d
        xq = kern1.p_powmod(x, self.p**d, M)
        if kern1.p_sub(xq, x).size:
            return False
        for q in _prime_factors(d):
            xe = kern1.p_powmod(x, self.p ** (d // q), M)
            g = kern1.p_gcd(kern1.p_sub(xe, x), M)
            if kern1.deg(g) != 0:
                return False
        return True

    def _choose_embedding(self, e, d, kern_d, pending):
        # all roots of modulus_e inside level d, then the least one compatible
        # with the embeddings fixed so far
        m_e = self._levels[e].modulus
        W = np.zeros((e + 1, kern_d.d), dtype=np.int64)
        W[:, 0] = m_e
        rng = Random(zlib.crc32(m_e.tobytes()) ^ (self.p << 12) ^ (d << 2) ^ e)
        roots = _split_roots(kern_d, W, 1, rng)
        roots.sort(key=lambda v: tuple(int(c) for c in v))
        for r in roots:
            E = self._power_matrix(kern_d, r, e)
            ok = True
            for f in _divisors(e)[1:-1]:
                lhs = (E @ self._emb[(f, e)]) % self.p
                if not np.array_equal(lhs, pending[(f, d)]):
                    ok = False
                    break
            if ok:
                return E
        raise InternalInconsistency(
            f"no compatible embedding from level {e} into level {d}"
        )

    @staticmethod
    def _power_matrix(kern, r, e):
        cols = [kern.e_one.copy()]
        for _ in range(1, e):
            cols.append(kern.e_mul(cols[-1], r))
        return np.stack(cols, axis=1)

    def _embedding_matrix(self, e, d):
        if e == d:
            return None
        self.ensure_level(d)
        return self._emb[(e, d)]

    def embed(self, x, target):
        """Image of x at a higher level; its level must divide the target."""
        if x.level == target:
            return x
        if target % x.level != 0:
            raise BadLevel(f"level {x.level} does not divide {target}")
        self.ensure_level(target)
        E = self._emb[(x.level, target)]
        return self._elt(target, (E @ x._vec()) % self.p)

    def _align(self, a, b):
        lvl = _lcm(a.level, b.level)
        if lvl > self.max_level:
            raise LevelOverflow(
                f"levels {a.level} and {b.level} need level {lvl} > bound {self.max_level}"
            )
        return self.embed(a, lvl)._vec(), self.embed(b, lvl)._vec(), lvl

    def frobenius(self, x):
        """x ** p, computed by the cached linear map of x's level."""
        kern = self._kernel(x.level)
        return self._elt(x.level, kern.e_frob(x._vec()))

    def _section(self, e, d):
        key = (e, d)
        if key not in self._sections:
            E = self._emb[key]
            p = self.p
            A = np.concatenate([E % p, np.eye(d, dtype=np.int64)], axis=1)
            row = 0
            for col in range(e):
                piv = row
                while piv < d and A[piv, col] == 0:
                    piv += 1
                if piv == d:
                    raise InternalInconsistency("embedding matrix lost rank")
                if piv != row:
                    A[[row, piv]] = A[[piv, row]]
                A[row] = (A[row] * pow(int(A[row, col]), p - 2, p)) % p
                for rr in range(d):
                    if rr != row and A[rr, col]:
                        A[rr] = (A[rr] - A[rr, col] * A[row]) % p
                row += 1
            self._sections[key] = A[:e, e:]
        return self._sections[key]

    def canonical(self, x):
        """The same value re-expressed at its minimal tower level."""
        d = x.level
        if d == 1:
            return x
        key = (d, x.coords)
        hit = self._canon.get(key)
        if hit is not None:
            return hit
        out = self._canonical_uncached(x)
        if len(self._canon) >= (1 << 16):
            self._canon.clear()
        self._canon[key] = out
        return out

    def _canonical_uncached(self, x):
        d = x.level
        kern = self._kernel(d)
        v = x._vec()
        e = d
        shrunk = True
        while shrunk:
            shrunk = False
            for q in _prime_factors(e):
                cand = e // q
                if np.array_equal(kern.e_frob(v, cand), v):
                    e = cand
                    shrunk = True
                    break
        if e == d:
            return x
        S = self._section(e, d)
        y = (S @ v) % self.p
        E = self._emb[(e, d)]
        if not np.array_equal((E @ y) % self.p, v):
            raise InternalInconsistency("canonical form does not round-trip")
        return self._elt(e, y)

    def sort_key(self, x):
        c = self.canonical(x)
        return (c.level,) + c.coords

    # ---- root finding ----

    def roots(self, poly):
        """All roots of a nonzero Poly over the closure, with multiplicity.

        May raise LevelOverflow when a root would live beyond the degree
        bound; never NotSplitOverField (the closure splits everything).
        """
        if poly.is_zero:
            raise ValueError("roots of the zero polynomial")
        coeffs = poly.coeffs
        base = 1
        for c in coeffs:
            base = _lcm(base, c.level)
        if base > self.max_level:
            raise LevelOverflow(f"coefficients need level {base} > bound {self.max_level}")
        kern = self._kernel(base)
        rows = np.stack([self.embed(c, base)._vec() for c in coeffs])
        A = kern.trim(rows)
        entries = []
        nzero = 0
        while len(A) and not A[0].any():
            A = A[1:]
            nzero += 1
        if nzero:
            entries.append((self.zero, nzero))
        if kern.deg(A) >= 1:
            A = kern.p_monic(A)
            seed = zlib.crc32(rows.tobytes()) ^ (self.p << 8) ^ base
            rng = Random(seed)
            for sq, mult in _squarefree_parts(kern, A):
                for part, k in _distinct_degree_parts(kern, sq, self.p, base):
                    lvl = base * k
                    if lvl > self.max_level:
                        raise LevelOverflow(
                            f"a degree-{k} factor needs level {lvl} > bound {self.max_level}"
                        )
                    kern_t = self._kernel(lvl)
                    if lvl == base:
                        Wt = part
                    else:
                        E = self._emb[(base, lvl)]
                        Wt = (part @ E.T) % self.p
                    for r in _split_roots(kern_t, Wt, base, rng):
                        entries.append((self._elt(lvl, r), mult))
        return RootMultiset(entries)


class RationalField:
    """The rationals, backed by Fraction.  No tower, partial root finding."""

    characteristic = 0

    def describe(self):
        return "q"

    def from_int(self, n):
        return RationalElement(self, Fraction(n))

    def from_fraction(self, num, den=1):
        if den == 0:
            raise DivisionByZero("zero denominator")
        return RationalElement(self, Fraction(num, den))

    @property
    def zero(self):
        return RationalElement(self, Fraction(0))

    @property
    def one(self):
        return RationalElement(self, Fraction(1))

    def random_element(self, rng, level=1):
        return RationalElement(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def sort_key(self, x):
        return x.value

    def roots(self, poly):
        """Rational roots with multiplicity; NotSplitOverField if any remain."""
        if poly.is_zero:
            raise ValueError("roots of the zero polynomial")
        coeffs = [c.value for c in poly.coeffs]
        entries = []
        nzero = 0
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            nzero += 1
        if nzero:
            entries.append((self.zero, nzero))
        if len(coeffs) > 1:
            den = 1
            for c in coeffs:
                den = _lcm(den, c.denominator)
            ints = [int(c * den) for c in coeffs]
            for cand in _rational_candidates(ints):
                mult = 0
                while len(coeffs) > 1:
                    quot, rem = _synth_div(coeffs, cand)
                    if rem != 0:
                        break
                    coeffs = quot
                    mult += 1
                if mult:
                    entries.append((RationalElement(self, cand), mult))
                if len(coeffs) == 1:
                    break
            if len(coeffs) > 1:
                raise NotSplitOverField(
                    f"irreducible factor of degree {len(coeffs) - 1} remains over the rationals"
                )
        return RootMultiset(entries)


def _rational_candidates(ints):
    from math import gcd

    c0, cn = abs(ints[0]), abs(ints[-1])
    nums = _divisors_of(c0)
    dens = _divisors_of(cn)
    seen = set()
    for r in nums:
        for s in dens:
            if gcd(r, s) != 1:
                continue
            for sign in (1, -1):
                q = Fraction(sign * r, s)
                if q not in seen:
                    seen.add(q)
                    yield q


def _divisors_of(n):
    if n == 0:
        return []
    n = abs(n)
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def _synth_div(coeffs, r):
    # coeffs low-to-high; divide by (x - r)
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    acc = coeffs[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = acc * r + coeffs[i]
    return out, acc


# ---- factoring machinery over the tower (kernel-level) ----


def _squarefree_parts(kern, A):
    """Monic A -> [(factor, multiplicity)], factors squarefree and coprime."""
    p = kern.p
    out = []
    deriv = kern.p_deriv(A)
    if kern.deg(kern.trim(deriv)) < 0:
        c = A
        w = kern.one_poly
    else:
        c = kern.p_gcd(A, deriv)
        w = kern.p_divmod(A, c)[0]
    i = 1
    while kern.deg(w) > 0:
        y = kern.p_gcd(w, c)
        z = kern.p_divmod(w, y)[0]
        if kern.deg(z) > 0:
            out.append((z, i))
        i += 1
        w = y
        c = kern.p_divmod(c, y)[0]
    if kern.deg(c) > 0:
        # c is a p-th power: all exponents divisible by p
        rows = []
        for j in range(0, len(c), p):
            rows.append(kern.e_pth_root(c[j]))
        v = kern.trim(np.array(rows, dtype=np.int64))
        for h, j in _squarefree_parts(kern, v):
            out.append((h, j * p))
    return out


def _distinct_degree_parts(kern, A, p, base):
    """Squarefree monic A over F_{p^base} -> [(product of its degree-k irreducibles, k)]."""
    q = p**base
    out = []
    h = A
    x = kern.x_poly()
    r = x
    k = 0
    while kern.deg(h) > 2 * (k + 1) - 1:
        k += 1
        r = kern.p_powmod(r, q, h)
        g = kern.p_gcd(kern.p_sub(r, x), h)
        if kern.deg(g) > 0:
            out.append((g, k))
            h = kern.p_divmod(h, g)[0]
            r = kern.p_mod(r, h)
    if kern.deg(h) > 0:
        out.append((h, kern.deg(h)))
    return out


def _split_roots(kern, W, frob_step, rng):
    """All roots of monic squarefree W that splits completely at kern's level.

    W's coefficient values must be fixed by Frobenius^frob_step, so its root
    set is closed under that power of Frobenius; whole orbits are divided out
    as soon as one member is found.
    """
    roots = []
    C = kern.p_monic(kern.trim(W))
    while kern.deg(C) > 0:
        if kern.deg(C) == 1:
            roots.append((-C[0]) % kern.p)
            break
        r = _find_root(kern, C, rng)
        orbit = [r]
        cur = kern.e_frob(r, frob_step)
        while not np.array_equal(cur, r):
            orbit.append(cur)
            cur = kern.e_frob(cur, frob_step)
        for rho in orbit:
            C, rem = kern.p_div_linear(C, rho)
            if rem.any():
                raise InternalInconsistency("orbit member is not a root")
        roots.extend(orbit)
    return roots


def _find_root(kern, C, rng):
    """One root of monic C (which splits into distinct linear factors)."""
    p, d = kern.p, kern.d
    exp = (p**d - 1) // 2
    while kern.deg(C) > 1:
        U = np.array(
            [[rng.randrange(p) for _ in range(d)] for _ in range(kern.deg(C))],
            dtype=np.int64,
        )
        U = kern.trim(U)
        if not len(U):
            continue
        # a root where U vanishes lands in neither half of this split
        V = kern.p_powmod(U, exp, C)
        V = kern.p_sub(V, kern.one_poly)
        D = kern.p_gcd(V, C)
        if 0 < kern.deg(D) < kern.deg(C):
            C = _smaller_half(kern, C, D)
    return (-C[0]) % p


def _smaller_half(kern, C, D):
    other = kern.p_divmod(C, D)[0]
    return D if kern.deg(D) <= kern.deg(other) else other


# ---- generic polynomials and root multisets ----


class Poly:
    """Univariate polynomial with exact field coefficients, low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def from_int_coeffs(cls, field, ints):
        return cls(field, [field.from_int(n) for n in ints])

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def leading(self):
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return Poly(self.field, a)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def scale(self, c):
        return Poly(self.field, [a * c for a in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(self.field), self
        lead_inv = other.leading().inv()
        rem = list(self.coeffs)
        nq = len(self.coeffs) - len(other.coeffs) + 1
        quot = [self.field.zero] * nq
        for i in range(nq - 1, -1, -1):
            top = rem[i + len(other.coeffs) - 1]
            if top.is_zero():
                continue
            q = top * lead_inv
            quot[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - q * b
        return Poly(self.field, quot), Poly(self.field, rem[: len(other.coeffs) - 1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.leading().inv())

    def derivative(self):
        f = self.field
        return Poly(f, [f.from_int(i) * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        return "Poly(" + ", ".join(repr(c) for c in self.coeffs) + ")"


class RootMultiset:
    """Roots with multiplicities, kept in a canonical sorted order."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        merged = []
        for root, mult in entries:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult == 0:
                continue
            for i, (r, m) in enumerate(merged):
                if r == root:
                    merged[i] = (r, m + mult)
                    break
            else:
                merged.append((root, mult))
        if merged:
            field = merged[0][0].field
            merged.sort(key=lambda e: field.sort_key(e[0]))
        self.entries = tuple(merged)

    @classmethod
    def empty(cls):
        return cls(())

    def degree(self):
        return sum(m for _, m in self.entries)

    def multiplicity(self, root):
        for r, m in self.entries:
            if r == root:
                return m
        return 0

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        if not isinstance(other, RootMultiset):
            return NotImplemented
        if len(self.entries) != len(other.entries):
            return False
        return all(
            a[1] == b[1] and a[0] == b[0]
            for a, b in zip(self.entries, other.entries)
        )

    __hash__ = None

    def __repr__(self):
        return "{" + ", ".join(f"{r!r}: {m}" for r, m in self.entries) + "}"
