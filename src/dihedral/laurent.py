"""Laurent polynomials K[t, t^-1] and their factorization into linear primes.

A value is stored as t^val * (c_0 + c_1 t + ... + c_n t^n) with c_0 and c_n
nonzero (the zero element keeps val = 0 and no coefficients).  The star map
t -> t^-1 is the algebra's key involution.  Every nonzero element with a split
body factors as unit * prod (t - lambda_i)^{m_i} with all lambda_i nonzero;
units are exactly the single-term elements lambda * t^m.

The public constructor trims zero ends, and so do sums and from_terms.  The
results whose ends are known to be nonzero are built as they come, without a
copy or an end scan: zero, one, star, shift, negation, scale by a nonzero
scalar, and products (a product of nonzero ends over a field is nonzero).

prime_product(field, roots) multiplies a root multiset back into
prod (t - lambda)^m level by level: the roots at one tower level are
multiplied together and their product is moved down to its minimal level
before the levels meet, so no level above those of the roots and of the
result is built.
"""

from functools import partial, reduce
from operator import mul

from ._kernel import power as _power
from .errors import DivisionByZero, NotAUnit


def power(x, n):
    """x ** n for n >= 0 (LaurentPoly or AlgebraElement), by _kernel.power; n == 0 gives one."""
    return _power(x, n, mul) if n else type(x).one(x.field)


class LaurentPoly:
    __slots__ = ("field", "val", "coeffs")

    def __init__(self, field, val, coeffs):
        cs = list(coeffs)
        lead = 0
        while lead < len(cs) and not cs[lead]:
            lead += 1
        cs = cs[lead:]
        while cs and not cs[-1]:
            cs.pop()
        if cs:
            self.val = val + lead
        else:
            self.val = 0
        self.field = field
        self.coeffs = tuple(cs)

    # ---- constructors ----

    @classmethod
    def _trimmed(cls, field, val, coeffs):
        """The polynomial t^val * coeffs, from a tuple whose ends are nonzero (val 0 if empty)."""
        self = object.__new__(cls)
        self.field = field
        self.val = val
        self.coeffs = coeffs
        return self

    @classmethod
    def zero(cls, field):
        return cls._trimmed(field, 0, ())

    @classmethod
    def one(cls, field):
        return cls._trimmed(field, 0, (field.one,))

    @classmethod
    def const(cls, field, c):
        return cls(field, 0, (c,))

    @classmethod
    def t_power(cls, field, m, c=None):
        return cls(field, m, (field.one if c is None else c,))

    @classmethod
    def from_terms(cls, field, terms):
        if isinstance(terms, dict):
            terms = terms.items()
        terms = list(terms)
        if not terms:
            return cls.zero(field)
        lo = min(e for e, _ in terms)
        hi = max(e for e, _ in terms)
        cs = [field.zero] * (hi - lo + 1)
        for e, c in terms:
            cs[e - lo] = cs[e - lo] + c
        return cls(field, lo, cs)

    @classmethod
    def from_int_terms(cls, field, terms):
        items = terms.items() if isinstance(terms, dict) else terms
        return cls.from_terms(field, [(e, field.from_int(n)) for e, n in items])

    # ---- structure ----

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Highest exponent with a nonzero coefficient (None for zero)."""
        if not self.coeffs:
            return None
        return self.val + len(self.coeffs) - 1

    @property
    def valuation(self):
        """Lowest exponent with a nonzero coefficient (None for zero)."""
        if not self.coeffs:
            return None
        return self.val

    def terms(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.val + i, c

    def coefficient(self, e):
        i = e - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    # ---- arithmetic ----

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.val, other.val)
        hi = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
        cs = [self.field.zero] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            cs[self.val - lo + i] = c
        for i, c in enumerate(other.coeffs):
            j = other.val - lo + i
            cs[j] = cs[j] + c
        return LaurentPoly(self.field, lo, cs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly._trimmed(self.field, self.val, tuple([-c for c in self.coeffs]))

    def __mul__(self, other):
        """The product; by a one-term factor c*t^m it is a shift by m and a scale by c.

        Zero coefficients stay field.zero there, as in the field's poly_mul,
        which makes every other product.
        """
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero(self.field)
        field = self.field
        if len(self.coeffs) == 1 or len(other.coeffs) == 1:
            mono, poly = (self, other) if len(self.coeffs) == 1 else (other, self)
            c, z = mono.coeffs[0], field.zero
            cs = tuple([a * c if a else z for a in poly.coeffs])
        else:
            cs = tuple(field.poly_mul(self.coeffs, other.coeffs))
        return LaurentPoly._trimmed(field, self.val + other.val, cs)

    def scale(self, c):
        if not c:
            return LaurentPoly.zero(self.field)
        return LaurentPoly._trimmed(self.field, self.val, tuple([a * c for a in self.coeffs]))

    def shift(self, m):
        """Multiply by t^m."""
        if self.is_zero:
            return self
        return LaurentPoly._trimmed(self.field, self.val + m, self.coeffs)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative Laurent power; invert a unit instead")
        return power(self, n)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        if self.coeffs and self.val != other.val:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def star(self):
        """The involution t -> t^-1."""
        if self.is_zero:
            return self
        return LaurentPoly._trimmed(
            self.field, -(self.val + len(self.coeffs) - 1), self.coeffs[::-1]
        )

    def eval(self, x):
        """Value at x; x must be invertible when negative exponents occur."""
        if self.is_zero:
            return self.field.zero
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if self.val:
            if self.val > 0:
                return acc * x**self.val
            if not x:
                raise DivisionByZero("negative exponent at zero")
            return acc * x.inv() ** (-self.val)
        return acc

    # ---- unit structure and factorization ----

    def is_unit(self):
        return len(self.coeffs) == 1

    def as_unit(self):
        """This element as a UnitPart; NotAUnit if it has several terms."""
        if len(self.coeffs) != 1:
            raise NotAUnit(f"{self} is not of the form c*t^m")
        return UnitPart(self.coeffs[0], self.val)

    def factor_linear(self):
        """Split off the unit and the linear primes (t - lambda_i).

        Requires a nonzero element.  Over the rationals the primes are found
        here, and NotSplitOverField raises when they are not all rational.
        The tower splits every polynomial, so there the primes are found on
        the first read of .primes, which may raise LevelOverflow.
        """
        if self.is_zero:
            raise ValueError("cannot factor the zero element")
        find = partial(self.field.roots, self.coeffs)
        primes = find if self.field.splits_everything else find()
        return LaurentFactorization(UnitPart(self.coeffs[-1], self.val), primes)

    # ---- rendering ----

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.terms():
            parts.append(_term_str(e, c))
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    __repr__ = __str__

    def to_json_terms(self):
        return [[e, str(c)] for e, c in self.terms()]


def _term_str(e, c):
    cs = str(c)
    neg = cs.startswith("-")
    if neg:
        cs = cs[1:]
    if e == 0:
        body = cs
    else:
        t = "t" if e == 1 else f"t^{e}"
        body = t if cs == "1" else f"{cs}*{t}"
    return ("-" if neg else "") + body


class UnitPart:
    """A unit lambda * t^m of the Laurent ring."""

    __slots__ = ("scalar", "exponent")

    def __init__(self, scalar, exponent):
        if not scalar:
            raise NotAUnit("unit scalar must be nonzero")
        self.scalar = scalar
        self.exponent = exponent

    def __eq__(self, other):
        if not isinstance(other, UnitPart):
            return NotImplemented
        return self.exponent == other.exponent and self.scalar == other.scalar

    def __repr__(self):
        return f"({self.scalar!r}, t^{self.exponent})"


class LaurentFactorization:
    """unit * prod (t - lambda_i)^{m_i}; primes recorded as a root multiset.

    primes may also be given as a function that finds them; it runs on the
    first access.
    """

    __slots__ = ("unit", "_primes")

    def __init__(self, unit, primes):
        self.unit = unit
        self._primes = primes

    @property
    def primes(self):
        if callable(self._primes):
            self._primes = self._primes()
        return self._primes

    def reassemble(self):
        unit = self.unit
        return prime_product(unit.scalar.field, self.primes).shift(unit.exponent).scale(unit.scalar)

    def __eq__(self, other):
        if not isinstance(other, LaurentFactorization):
            return NotImplemented
        return self.unit == other.unit and self.primes == other.primes

    def __repr__(self):
        return f"LaurentFactorization(unit={self.unit!r}, primes={self.primes!r})"


def compressed(poly):
    """poly with every coefficient at its minimal tower level."""
    canonical = poly.field.canonical
    return LaurentPoly(poly.field, poly.val, [canonical(c) for c in poly.coeffs])


def prime_product(field, roots):
    """prod (t - lambda)^m over a root multiset, one for the empty multiset.

    The roots are grouped by their minimal tower level, and each group's
    product is compressed before the groups are multiplied together.  In a
    compatible tower every Frobenius power keeps an element's minimal level,
    so a multiset closed under a power of Frobenius is closed level by level,
    and every group's product already lies in the field the whole product
    lies in.
    """
    groups = {}
    for lam, mult in roots:
        lam = field.canonical(lam)
        groups.setdefault(lam.level, []).append(LaurentPoly(field, 0, (-lam, field.one)) ** mult)
    if not groups:
        return LaurentPoly.one(field)
    return reduce(mul, (compressed(reduce(mul, group)) for group in groups.values()))
