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
the rationals (a rational element holds the Fraction it is given, and converts
anything else).  Zero is tested by truthiness alone: an element is false
exactly when it is zero, at whatever level it is stored.  The polynomial
protocol is three methods on coefficient sequences, lowest degree first, each
with a nonzero last entry: roots(coeffs) returns a RootMultiset; poly_mul(a, b)
multiplies by one loop, on int residues at level 1, Fractions over the
rationals and tower elements above level 1; poly_gcd(a, b) returns the monic
gcd h and the quotient a / h, by Euclid.  Root finding over the tower always
succeeds up to the configured degree bound: in Kernel.roots one distinct-degree
pass splits the monic input, then equal-degree descent finds the roots.
_kernel.py owns the residue arrays, root finding, the embedding choice,
sections, the seeds and the moduli's test, whether a candidate's first
distinct-degree part is itself; this module passes it coordinate tuples, stores
its matrices unopened, and decides the binomials x^d + c in closed form.  A
field caches as it goes and takes no lock: it must not be shared between
threads, so build one per thread.  Over the rationals only rational roots are
found and anything else raises NotSplitOverField.  Rational roots are found on
integer coefficients: candidates r/s come from the divisors of the constant and
leading coefficients; s | lead, r | const, (s - r) | F(1) and (s + r) | F(-1),
all on the current cofactor, discard most; survivors are divided out exactly,
deflating, and once the degree is at most 2 the rest is closed form.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, log10

from ._kernel import Kernel, long_division
from .errors import (
    BadLevel,
    BadSpec,
    BudgetExceeded,
    CharacteristicTwo,
    DivisionByZero,
    LevelOverflow,
    NotSplitOverField,
)


def _factorize(n):
    """The prime factors of n >= 1 with repetition, ascending, by trial division.

    Trial stops at the square root of the cofactor left, so a smooth n is
    cheap; a large prime factor q still costs about sqrt(q) divisions.
    """
    out = []
    k = 2
    while k * k <= n:
        while n % k == 0:
            out.append(k)
            n //= k
        k += 1 if k == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _binomial_is_irreducible(p, d, c):
    """Whether x^d + c is irreducible over F_p, for d >= 2.

    Lidl & Niederreiter, Finite Fields, Thm 3.75: x^d - a is irreducible iff
    every prime r | d divides ord(a) but not (p - 1) / ord(a), that is, r
    divides p - 1 and a is no r-th power, and p = 1 mod 4 when 4 | d.
    """
    a = -c % p
    if not a or (d % 4 == 0 and p % 4 == 3):
        return False
    return all((p - 1) % r == 0 and pow(a, (p - 1) // r, p) != 1 for r in _prime_factors(d))


def _is_prime(n):
    return n >= 2 and _factorize(n) == [n]


def _prime_factors(n):
    return list(dict.fromkeys(_factorize(n)))


def _divisors(n):
    divs = {1}
    for q in _factorize(n):
        divs |= {d * q for d in divs}
    return sorted(divs)


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


class _Scalar:
    """The quotient and negative-power rules that both element classes share."""

    __slots__ = ()

    def __truediv__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n):
        return self.inv() ** -n if n < 0 else self._pow(n)


class TowerElement(_Scalar):
    """An element of F_{p^level}, stored as its residue coordinate tuple."""

    __slots__ = ("field", "level", "coords")

    def __init__(self, field, level, coords):
        self.field = field
        self.level = level
        self.coords = coords

    def __bool__(self):
        return any(self.coords)

    def __add__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        f = self.field
        if self.level == 1 and other.level == 1:
            return f._elt1((self.coords[0] + other.coords[0]) % f.p)
        a, b, lvl = f._align(self, other)
        return f._elt(lvl, tuple((x + y) % f.p for x, y in zip(a, b)))

    def __sub__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        f = self.field
        if self.level == 1 and other.level == 1:
            return f._elt1((self.coords[0] - other.coords[0]) % f.p)
        a, b, lvl = f._align(self, other)
        return f._elt(lvl, tuple((x - y) % f.p for x, y in zip(a, b)))

    def __mul__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        f = self.field
        if self.level == 1 and other.level == 1:
            return f._elt1((self.coords[0] * other.coords[0]) % f.p)
        a, b, lvl = f._align(self, other)
        return f._elt(lvl, f._kernel(lvl).e_mul(a, b))

    def __neg__(self):
        f = self.field
        if self.level == 1:
            return f._elt1((-self.coords[0]) % f.p)
        return f._elt(self.level, tuple((-c) % f.p for c in self.coords))

    def inv(self):
        f = self.field
        if not self:
            raise DivisionByZero("inverse of zero")
        if self.level == 1:
            return f._elt1(pow(self.coords[0], f.p - 2, f.p))
        return f._elt(self.level, f._kernel(self.level).e_inv(self.coords))

    def _pow(self, n):
        f = self.field
        if self.level == 1:
            return f._elt1(pow(self.coords[0], n, f.p))
        return f._elt(self.level, f._kernel(self.level).e_pow(self.coords, n))

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

    def __repr__(self):
        if self.level == 1:
            return str(self.coords[0])
        return "[" + ",".join(str(c) for c in self.coords) + "]@" + str(self.level)


class RationalElement(_Scalar):
    """Exact rational scalar."""

    __slots__ = ("field", "value")
    level = 1  # the rationals are their own tower level

    def __init__(self, field, value):
        self.field = field
        self.value = value if type(value) is Fraction else Fraction(value)

    def __bool__(self):
        return bool(self.value)

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

    def __neg__(self):
        return RationalElement(self.field, -self.value)

    def inv(self):
        if not self:
            raise DivisionByZero("inverse of zero")
        return RationalElement(self.field, 1 / self.value)

    def _pow(self, n):
        return RationalElement(self.field, self.value**n)

    def __eq__(self, other):
        if not isinstance(other, RationalElement):
            return NotImplemented
        return self.value == other.value

    def __repr__(self):
        try:
            return str(self.value)
        except ValueError:  # past Python's limit on int-to-str conversion
            bits = max(abs(self.value.numerator), self.value.denominator).bit_length()
            digits = round(bits * log10(2))
            raise BudgetExceeded(
                f"a rational coefficient of about {digits} digits is too long to print"
            ) from None


class PrimeClosureField:
    """Lazily built tower of extensions of F_p, p an odd prime."""

    # every polynomial has all its roots in the closure (up to the level bound)
    splits_everything = True

    def __init__(self, p, max_extension_degree=64):
        if isinstance(p, int) and p >= (1 << 20):
            # keeps every int64 accumulation in the packed kernel overflow-free,
            # and is checked first so that trial division stays short
            raise BadSpec(f"p = {p} is too large; the kernel supports p < 2^20")
        if not isinstance(p, int) or not _is_prime(p):
            raise BadSpec(f"p must be prime, got {p!r}")
        if p == 2:
            raise CharacteristicTwo("characteristic 2 is not supported")
        if not isinstance(max_extension_degree, int) or max_extension_degree < 1:
            raise BadSpec("max_extension_degree must be a positive integer")
        self.p = p
        self.max_level = max_extension_degree
        self._levels = {}
        self._emb = {}
        self._canon = {}
        self._small = [TowerElement(self, 1, (i,)) for i in range(min(p, 1024))]
        self.ensure_level(1)
        self.zero = self._elt1(0)
        self.one = self._elt1(1)

    @property
    def characteristic(self):
        return self.p

    def describe(self):
        return f"fp:{self.p}"

    # ---- element constructors ----

    def _elt1(self, r):
        if r < len(self._small):
            return self._small[r]
        return TowerElement(self, 1, (int(r),))

    def _elt(self, level, coords):
        return TowerElement(self, level, tuple(int(c) for c in coords))

    def from_int(self, n):
        return self._elt1(n % self.p)

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
        for f in _divisors(d)[:-1]:
            self.ensure_level(f)
        kern = Kernel(self.p, self._find_modulus(d))
        # each embedding must commute with those fixed so far: for every
        # common sublevel g, embedding f -> d after g -> f is g -> d
        pending = {}
        for f in _divisors(d)[:-1]:
            maps = [(self._emb[(g, f)], pending[(g, d)]) for g in _divisors(f)[1:-1]]
            pending[(f, d)] = kern.embedding(self._levels[f], maps)
        self._levels[d] = kern
        self._emb.update(pending)

    def _find_modulus(self, d):
        # lexicographically least monic irreducible of degree d, scanning the
        # constant-first coordinate order.  The first p candidates, the
        # binomials x^d + c, are decided in closed form, and skipped at once
        # when no c can pass: a Ben-Or test on each took minutes at large p
        if d == 1:
            return [0, 1]
        p = self.p
        if (d % 4 or p % 4 == 1) and all((p - 1) % r == 0 for r in _prime_factors(d)):
            for c in range(1, p):
                if _binomial_is_irreducible(p, d, c):
                    return [c] + [0] * (d - 1) + [1]
        k = p
        while True:
            coeffs = []
            n = k
            for _ in range(d):
                coeffs.append(n % p)
                n //= p
            coeffs.append(1)
            if self._levels[1].is_irreducible(coeffs):
                return coeffs
            k += 1

    def embed(self, x, target):
        """Image of x at a higher level; its level must divide the target."""
        if x.level == target:
            return x
        if target % x.level != 0:
            raise BadLevel(f"level {x.level} does not divide {target}")
        self.ensure_level(target)
        E = self._emb[(x.level, target)]
        return self._elt(target, self._levels[target].e_image(E, x.coords))

    def _align(self, a, b):
        lvl = lcm(a.level, b.level)
        if lvl > self.max_level:
            raise LevelOverflow(
                f"levels {a.level} and {b.level} need level {lvl} > bound {self.max_level}"
            )
        return self.embed(a, lvl).coords, self.embed(b, lvl).coords, lvl

    def frobenius(self, x):
        """x ** p, computed by the cached linear map of x's level."""
        kern = self._kernel(x.level)
        return self._elt(x.level, kern.e_frob(x.coords))

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
        # the least level whose Frobenius power fixes x divides every other one
        e = next((e for e in _divisors(d)[:-1] if kern.e_fixed(x.coords, e)), d)
        if e == d:
            return x
        return self._elt(e, kern.e_restrict(self._emb[(e, d)], x.coords))

    def sort_key(self, x):
        c = self.canonical(x)
        return (c.level,) + c.coords

    # ---- root finding ----

    def roots(self, coeffs):
        """All roots over the closure, with multiplicity, of sum coeffs[i] * x^i.

        coeffs is a sequence of tower elements, lowest degree first, whose
        last entry is nonzero; otherwise ValueError.  May raise LevelOverflow
        when a root would live beyond the degree bound; never
        NotSplitOverField (the closure splits everything).
        """
        nzero = _leading_zeros(coeffs)
        base, kern, (rows,) = self._lift(coeffs[nzero:])
        entries = [(self.zero, nzero)] if nzero else []

        def extension(k):
            lvl = base * k
            if lvl > self.max_level:
                raise LevelOverflow(
                    f"a degree-{k} factor needs level {lvl} > bound {self.max_level}"
                )
            return self._kernel(lvl), self._emb.get((base, lvl))

        for lvl, r, mult in kern.roots(rows, extension):
            entries.append((self._elt(lvl, r), mult))
        return RootMultiset(entries)

    # ---- polynomial product and gcd ----

    def poly_mul(self, a, b):
        """Coefficients of (sum a[i] x^i) * (sum b[j] x^j), lowest degree first, by _convolve.

        At level 1 on residues, each output reduced and wrapped once; above it
        on the elements, where skipped zeros never lift a sum's level.
        """
        if all(c.level == 1 for c in a) and all(c.level == 1 for c in b):
            p, elt1 = self.p, self._elt1
            return [elt1(s % p) for s in _convolve([c.coords[0] for c in a], [c.coords[0] for c in b])]
        return _convolve(a, b, self.zero)

    def poly_gcd(self, a, b):
        """The monic gcd h of sum a[i] x^i and sum b[i] x^i, and the quotient a / h.

        Both are lifted once, as in roots(), and Kernel.p_gcd and p_divmod run
        at the level their coefficients generate; h and a / h are lists there.
        """
        level, kern, (A, B) = self._lift(a, b)
        H, quot = kern.rows_gcd(A, B)
        return self._coeff_list(level, H), self._coeff_list(level, quot)

    def _lift(self, *seqs):
        """The level the nonzero coefficients of seqs generate, its kernel, and each seq's rows there.

        A zero may be stored at any level, so it neither raises the level nor
        is embedded: it lifts as a zero row.
        """
        level = lcm(*(c.level for seq in seqs for c in seq if c))
        if level > self.max_level:
            raise LevelOverflow(f"coefficients need level {level} > bound {self.max_level}")
        zero = (0,) * level
        return level, self._kernel(level), [
            [self.embed(c, level).coords if c else zero for c in seq] for seq in seqs
        ]

    def _coeff_list(self, level, rows):
        if level == 1:
            return [self._elt1(r) for r, in rows]
        return [self._elt(level, row) for row in rows]


class RationalField:
    """The rationals, backed by Fraction.  No tower, partial root finding."""

    characteristic = 0
    splits_everything = False

    def __init__(self):
        # one element each, shared like PrimeClosureField's small residues
        self.zero = RationalElement(self, Fraction(0))
        self.one = RationalElement(self, Fraction(1))

    def describe(self):
        return "q"

    def from_int(self, n):
        return RationalElement(self, Fraction(n))

    def from_fraction(self, num, den=1):
        if den == 0:
            raise DivisionByZero("zero denominator")
        return RationalElement(self, Fraction(num, den))

    def random_element(self, rng, level=1):
        return RationalElement(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def canonical(self, x):
        """x itself: a rational is already at its only level."""
        return x

    def sort_key(self, x):
        return x.value

    def poly_mul(self, a, b):
        """Coefficients of (sum a[i] x^i) * (sum b[j] x^j), lowest degree first, by _convolve."""
        return [RationalElement(self, s) for s in _convolve([c.value for c in a], [c.value for c in b])]

    def poly_gcd(self, a, b):
        """The monic gcd h of sum a[i] x^i and sum b[i] x^i, and a / h, by Euclid on Fractions."""
        a = [c.value for c in a]
        h, r = a, [c.value for c in b]
        while r:
            h, r = r, _poly_divmod(h, r)[1]
        h = [c / h[-1] for c in h]
        quot = _poly_divmod(a, h)[0]
        return [RationalElement(self, c) for c in h], [RationalElement(self, c) for c in quot]

    def roots(self, coeffs):
        """Rational roots, with multiplicity, of sum coeffs[i] * x^i.

        coeffs is a sequence of rational elements, lowest degree first, whose
        last entry is nonzero; otherwise ValueError.  NotSplitOverField if a
        factor without rational roots remains; it names that factor's degree.
        """
        nzero = _leading_zeros(coeffs)
        vals = [c.value for c in coeffs[nzero:]]
        den = lcm(*(v.denominator for v in vals))
        F = [v.numerator * (den // v.denominator) for v in vals]
        found = [(Fraction(0), nzero)] if nzero else []
        if len(F) > 3:
            F = _deflate_rational(F, found)
        if len(F) == 3:
            c, b, a = F
            disc = b * b - 4 * a * c
            d = isqrt(max(disc, 0))
            if d * d == disc:
                found += [(Fraction(-b + d, 2 * a), 1), (Fraction(-b - d, 2 * a), 1)]
                F = [a]  # split: nothing of positive degree is left
        if len(F) == 2:
            found.append((Fraction(-F[0], F[1]), 1))
        elif len(F) > 2:
            raise NotSplitOverField(
                f"irreducible factor of degree {len(F) - 1} remains over the rationals"
            )
        return RootMultiset([(RationalElement(self, r), m) for r, m in found])


def _convolve(a, b, zero=0):
    """The product of lists of ints, Fractions or tower elements: unreduced sums from zero, zeros skipped."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    """Quotient and remainder of Fraction coefficient lists, lowest degree first.

    b's last entry must be nonzero; the remainder has no trailing zeros.
    """
    quot, rem = long_division(a, b, lambda top: top / b[-1])
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _leading_zeros(coeffs):
    """How many zeros coeffs starts with; ValueError unless its last entry is nonzero."""
    if not coeffs or not coeffs[-1]:
        raise ValueError("roots need coefficients with a nonzero last entry")
    return next(i for i, c in enumerate(coeffs) if c)


def _deflate_rational(F, found):
    """Divide rational roots x/s out of F (ints, low first, F[0] != 0) to degree <= 2.

    Appends (Fraction(x, s), multiplicity) to found and returns the cofactor.
    By Gauss's lemma the cofactor of s*t - x is integral, so every filter is necessary.
    """
    dens = _divisors(abs(F[-1]))
    f1, fm1 = sum(F), sum(F[::2]) - sum(F[1::2])
    for r in _divisors(abs(F[0])):
        if F[0] % r:
            continue
        for s in dens:
            if F[-1] % s or gcd(r, s) != 1:
                continue
            for x in (r, -r):
                if (s != x and f1 % (s - x)) or (s != -x and fm1 % (s + x)):
                    continue
                mult = 0
                while len(F) > 3 and (Q := _exact_quotient(F, s, x)) is not None:
                    F, mult = Q, mult + 1
                if mult:
                    found.append((Fraction(x, s), mult))
                    if len(F) <= 3:
                        return F
                    f1, fm1 = sum(F), sum(F[::2]) - sum(F[1::2])
    return F


def _exact_quotient(F, s, x):
    """F / (s*t - x) over the integers, low first; None unless it divides."""
    n = len(F) - 1
    Q = [0] * n
    q = 0
    for k in range(n, 0, -1):
        q, rem = divmod(F[k] + x * q, s)
        if rem:
            return None
        Q[k - 1] = q
    return Q if F[0] + x * q == 0 else None


# ---- root multisets ----


def root_key(x):
    """A hashable key, equal exactly for equal roots and never across characteristics."""
    return x.field.characteristic, x.field.sort_key(x)


class RootMultiset:
    """Roots with multiplicities, merged by root_key (first root kept), in key order."""

    __slots__ = ("entries", "_mult")

    def __init__(self, entries):
        merged = {}
        for root, mult in entries:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult:
                key = root_key(root)
                r, m = merged.get(key, (root, 0))
                merged[key] = (r, m + mult)
        keys = sorted(merged)
        self.entries = tuple(merged[k] for k in keys)
        self._mult = {k: merged[k][1] for k in keys}

    @classmethod
    def empty(cls):
        return cls(())

    def degree(self):
        return sum(self._mult.values())

    def multiplicity(self, root):
        return self._mult.get(root_key(root), 0)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        if not isinstance(other, RootMultiset):
            return NotImplemented
        return self._mult == other._mult

    def __repr__(self):
        return "{" + ", ".join(f"{r!r}: {m}" for r, m in self.entries) + "}"
