"""The group algebra R = K<s, t : s^2 = 1, t s = s t^-1>.

Every element is f(t) + s*g(t) for Laurent polynomials f, g, and the pair
(f, g) is the stored form.  Under the embedding into 2x2 matrices over
K[t, t^-1] the element becomes [[f, g*], [g, f*]] (star is t -> t^-1), which
gives the multiplication rule used here:

    (f1 + s g1)(f2 + s g2) = (f1 f2 + g1* g2) + s (f1* g2 + g1 f2)

Involutions square to 1; the six conjugacy classes of involutions are
represented by +-1 and the four single-term elements eps * s * t^theta.
Idempotents correspond to involutions through r -> 2r - 1.
"""

from dataclasses import dataclass

from .errors import (
    InverseOutsideR,
    NotAUnit,
    NotIdempotent,
    NotInvertible,
    NotInvolution,
)
from .laurent import LaurentPoly, power


class AlgebraElement:
    """f + s*g with f, g Laurent polynomials over a common field."""

    __slots__ = ("f", "g")

    def __init__(self, f, g):
        self.f = f
        self.g = g

    @property
    def field(self):
        return self.f.field

    # ---- constructors ----

    @classmethod
    def zero(cls, field):
        z = LaurentPoly.zero(field)
        return cls(z, z)

    @classmethod
    def one(cls, field):
        return cls(LaurentPoly.one(field), LaurentPoly.zero(field))

    @classmethod
    def from_scalar(cls, c):
        field = c.field
        return cls(LaurentPoly.const(field, c), LaurentPoly.zero(field))

    @classmethod
    def from_int(cls, field, n):
        return cls.from_scalar(field.from_int(n))

    @classmethod
    def s(cls, field):
        return cls(LaurentPoly.zero(field), LaurentPoly.one(field))

    @classmethod
    def t(cls, field):
        return cls(LaurentPoly.t_power(field, 1), LaurentPoly.zero(field))

    @classmethod
    def a(cls, field):
        """The reflection s itself (fixed involution a = s)."""
        return cls.s(field)

    @classmethod
    def b(cls, field):
        """The reflection s*t (the other end of the dihedral presentation)."""
        return cls(LaurentPoly.zero(field), LaurentPoly.t_power(field, 1))

    @classmethod
    def from_parts(cls, field, f_terms, g_terms):
        return cls(
            LaurentPoly.from_int_terms(field, f_terms),
            LaurentPoly.from_int_terms(field, g_terms),
        )

    # ---- ring structure ----

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement(self.f + other.f, self.g + other.g)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement(self.f - other.f, self.g - other.g)

    def __neg__(self):
        return AlgebraElement(-self.f, -self.g)

    def __mul__(self, other):
        """The product by the module docstring's rule; a half product with a zero factor is not formed."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        f1, g1, f2, g2 = self.f, self.g, other.f, other.g
        return AlgebraElement(
            _sum_of_products(f1, f2, g1.star(), g2),
            _sum_of_products(f1.star(), g2, g1, f2),
        )

    def scale(self, c):
        return AlgebraElement(self.f.scale(c), self.g.scale(c))

    def __pow__(self, n):
        if n < 0:
            return invert(self) ** (-n)
        return power(self, n)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.f == other.f and self.g == other.g

    @property
    def is_zero(self):
        return self.f.is_zero and self.g.is_zero

    # ---- structure maps ----

    def iota(self):
        """The 2x2 matrix [[f, g*], [g, f*]] over K[t, t^-1]."""
        return (
            (self.f, self.g.star()),
            (self.g, self.f.star()),
        )

    def trace_det(self):
        """Trace f + f* and determinant f f* - g g* of the matrix form."""
        return (
            self.f + self.f.star(),
            _sum_of_products(self.f, self.f.star(), -self.g, self.g.star()),
        )

    def is_involution(self):
        """Whether self * self == 1, via the closed condition on (f, g)."""
        f, g = self.f, self.g
        # g (f + f*) = 0 iff a factor is zero: K[t, t^-1] has no zero divisors
        cond1 = _sum_of_products(f, f, g.star(), g) == LaurentPoly.one(self.field)
        cond2 = g.is_zero or (f + f.star()).is_zero
        return cond1 and cond2

    def is_idempotent(self):
        return to_involution(self).is_involution()

    # ---- rendering ----

    def __str__(self):
        if self.is_zero:
            return "0"
        if self.g.is_zero:
            return str(self.f)
        s_part = f"s*({self.g})"
        if self.f.is_zero:
            return s_part
        return f"{self.f} + {s_part}"

    __repr__ = __str__

    def to_json(self):
        return {
            "f": self.f.to_json_terms(),
            "g": self.g.to_json_terms(),
            "field": self.field.describe(),
        }


def _sum_of_products(a, b, c, d):
    """a*b + c*d, forming only the products whose two factors are nonzero.

    A sum with a zero is the other operand, so this is the value the full
    formula gives.
    """
    if a.is_zero or b.is_zero:
        return LaurentPoly.zero(a.field) if c.is_zero or d.is_zero else c * d
    if c.is_zero or d.is_zero:
        return a * b
    return a * b + c * d


def to_involution(r):
    """2r - 1; a bijection from idempotents to involutions."""
    return r + r - AlgebraElement.one(r.field)


def to_idempotent(u):
    """(u + 1)/2, inverse of to_involution."""
    field = u.field
    half = field.from_int(2).inv()
    return (u + AlgebraElement.one(field)).scale(half)


def check_idempotent(r):
    """NotIdempotent unless r^2 = r, tested as (2r - 1)^2 = 1 by is_idempotent."""
    if not r.is_idempotent():
        raise NotIdempotent(f"{r} is not idempotent")


def check_involution(u):
    if not u.is_involution():
        raise NotInvolution(f"{u} is not an involution")


def invert(u):
    """Inverse in the algebra; exists iff det = f f* - g g* is a unit."""
    _, det = u.trace_det()
    try:
        unit = det.as_unit()
    except NotAUnit as exc:
        raise NotInvertible(f"determinant {det} is not a unit") from exc
    if unit.exponent != 0:
        # det is star-symmetric, so this cannot happen for elements of R
        raise InverseOutsideR(
            f"determinant {det} has t-exponent {unit.exponent}"
        )
    inv_det = LaurentPoly.const(u.field, unit.scalar.inv())
    return AlgebraElement(u.f.star() * inv_det, -(u.g * inv_det))


def conjugate(v, u):
    """v^-1 u v; NotInvertible when v has no inverse."""
    return invert(v) * u * v


def unipotent_unit(e, x):
    """1 + e x (1 - e) for an idempotent e; squares of the nilpotent vanish."""
    check_idempotent(e)
    one = AlgebraElement.one(e.field)
    return one + e * x * (one - e)


@dataclass(frozen=True)
class CanonicalInvolution:
    """One of the six involution class labels: 1, -1, or eps * s * t^theta."""

    kind: str  # "one" | "minus_one" | "eps"
    eps: int | None = None
    theta: int | None = None

    def __post_init__(self):
        if self.kind in ("one", "minus_one"):
            if self.eps is not None or self.theta is not None:
                raise ValueError("central labels carry no parameters")
        elif self.kind == "eps":
            if self.eps not in (1, -1) or self.theta not in (0, 1):
                raise ValueError("eps must be +-1 and theta 0 or 1")
        else:
            raise ValueError(f"unknown label kind {self.kind!r}")

    @classmethod
    def one(cls):
        return cls("one")

    @classmethod
    def minus_one(cls):
        return cls("minus_one")

    @classmethod
    def eps_theta(cls, eps, theta):
        return cls("eps", eps, theta)

    @classmethod
    def all_six(cls):
        return (
            cls.one(),
            cls.minus_one(),
            cls.eps_theta(1, 0),
            cls.eps_theta(-1, 0),
            cls.eps_theta(1, 1),
            cls.eps_theta(-1, 1),
        )

    def element(self, field):
        if self.kind == "one":
            return AlgebraElement.one(field)
        if self.kind == "minus_one":
            return -AlgebraElement.one(field)
        g = LaurentPoly.t_power(field, self.theta, field.from_int(self.eps))
        return AlgebraElement(LaurentPoly.zero(field), g)

    def __str__(self):
        if self.kind == "one":
            return "1"
        if self.kind == "minus_one":
            return "-1"
        return f"eps={self.eps:+d} theta={self.theta}"


@dataclass(frozen=True)
class Character:
    """The algebra map sending t -> alpha*beta and s -> alpha."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha not in (1, -1) or self.beta not in (1, -1):
            raise ValueError("character parameters are +-1")

    @classmethod
    def all_four(cls):
        return (cls(1, 1), cls(1, -1), cls(-1, 1), cls(-1, -1))

    def of(self, u):
        """chi(u) = f(alpha*beta) + alpha * g(alpha*beta)."""
        field = u.field
        ab = field.from_int(self.alpha * self.beta)
        return u.f.eval(ab) + field.from_int(self.alpha) * u.g.eval(ab)

    def __str__(self):
        return f"chi({self.alpha:+d},{self.beta:+d})"


def random_laurent(field, rng, degree_bound):
    terms = []
    for e in range(-degree_bound, degree_bound + 1):
        if rng.random() < 0.5:
            continue
        terms.append((e, field.random_element(rng)))
    return LaurentPoly.from_terms(field, terms)


def random_element(field, rng, degree_bound=3):
    return AlgebraElement(
        random_laurent(field, rng, degree_bound),
        random_laurent(field, rng, degree_bound),
    )


def _random_scalar_unit(field, rng):
    while True:
        c = field.random_element(rng)
        if c:
            return c


def _canonical_idempotents(field):
    one = AlgebraElement.one(field)
    e = to_idempotent(-AlgebraElement.a(field))
    ep = to_idempotent(-AlgebraElement.b(field))
    return (e, one - e, ep, one - ep)


def random_unit(field, rng, degree_bound=3, num_factors=4):
    """A product of simple units: scalars, t^m, s*t^m, and unipotents."""
    out = AlgebraElement.one(field)
    for _ in range(num_factors):
        kind = rng.randrange(4)
        if kind == 0:
            out = out.scale(_random_scalar_unit(field, rng))
        elif kind == 1:
            m = rng.randint(-degree_bound, degree_bound)
            out = out * AlgebraElement(
                LaurentPoly.t_power(field, m), LaurentPoly.zero(field)
            )
        elif kind == 2:
            m = rng.randint(-degree_bound, degree_bound)
            out = out * AlgebraElement(
                LaurentPoly.zero(field), LaurentPoly.t_power(field, m)
            )
        else:
            e = rng.choice(_canonical_idempotents(field))
            x = random_element(field, rng, degree_bound)
            out = out * unipotent_unit(e, x)
    return out


def random_involution(field, rng, degree_bound=3, num_factors=None):
    """A conjugate v^-1 r v of a canonical involution; returns (element, label).

    The label is the class of r, hence of the result; num_factors defaults
    to a random count up to 4.
    """
    label = rng.choice(CanonicalInvolution.all_six())
    if num_factors is None:
        num_factors = rng.randint(0, 4)
    unit = random_unit(field, rng, degree_bound, num_factors)
    return conjugate(unit, label.element(field)), label
