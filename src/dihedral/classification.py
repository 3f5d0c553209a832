"""Classification of involutions with explicit conjugating witnesses.

An involution u = f + s*g other than +-1 has f* = -f, g != 0, and
g g* = (1+f)(1+f)*.  It is conjugate to exactly one eps * s * t^theta, and
the witness nu with nu^-1 u nu = eps s t^theta is assembled from a split

    g = g1 g2        with        1 + f = eps t^-theta g1 g2*

as nu = eps * (F + s G) with F = (eps g2* + t^theta g1*)/2 and
G = (t^theta g2 - eps g1)/2.  The leading eps makes nu the identity when u
is already canonical; it does not affect the conjugation.

classify finds the split with one gcd over the field of u's coefficients.
A root lam of 1+f has f(lam) = -1, so f(1/lam) = 1 by skewness, and 1/lam
is never also a root of 1+f.  The paper's g1 is therefore, up to a unit,
the part P of g whose roots are roots of 1+f, with every multiplicity it
has in g.  That part is P = gcd(g, 1+f): the multiplicities of lam in g and
in g* add up to its multiplicity in g g* = (1+f)(1+f)*, which is its
multiplicity in 1+f, so g never holds more copies of (t - lam) than 1+f.
With X = P (g/P)* and dv = val(1+f) - val(X),

    theta = dv mod 2,   eps = lead(1+f) / lead(X),   g1 = eps t^((dv+theta)/2) P

and g2 = g/g1.  No roots are found, so no tower level above the
coefficients of u is built.

ClassificationResult.details holds the root-level account of the same
split, computed on first access: 1+f and g are factored into linear primes,

    1 + f = delta t^m prod p_i        g = gamma t^l prod_I p_i prod_Ic p_i*

the primes of g are matched against those of 1+f (p_i itself for indices
in I, its star for the rest), eps = gamma/delta and theta = (l+m) mod 2.
Over a prime closure the roots generate extensions of the subfield
F_{p^step} cut out by the coefficients of u.  Root multiplicities are
constant along orbits of x -> x^(p^step), and so is the count matched into
I, so I and its complement are closed under that power of Frobenius.  Every
Frobenius power keeps an element's minimal tower level, so the roots at one
level are whole orbits: laurent.prime_product multiplies them at that level
and moves the product down into the subfield before the levels meet, and
the assembly never needs a composite of unrelated extension degrees.  The
product over the complement is starred as a whole, since star is a ring
automorphism.
"""

from collections.abc import Callable
from dataclasses import dataclass, field as _field
from functools import cached_property, partial
from itertools import product as _cartesian
from math import lcm

from .algebra import AlgebraElement, CanonicalInvolution, check_idempotent, to_involution
from .errors import InternalInconsistency, LevelOverflow, NotInvolution
from .fields import RootMultiset, root_key
from .laurent import LaurentPoly, compressed, prime_product


@dataclass(frozen=True)
class ClassificationDetails:
    """Factorization data behind a non-central classification."""

    delta: object
    m: int
    one_plus_f_primes: RootMultiset
    gamma: object
    l: int
    g_primes: RootMultiset
    in_I: RootMultiset
    g1: LaurentPoly
    g2: LaurentPoly


@dataclass(frozen=True)
class ClassificationResult:
    label: CanonicalInvolution
    witness: AlgebraElement
    # builds the details on demand; None for the central labels
    details_fn: Callable[[], ClassificationDetails] | None = _field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def details(self):
        """The root-level factorization data (None for +-1), built on first access.

        This factors 1+f and g into linear primes, so it may raise what
        root finding raises: LevelOverflow when a root lives beyond the
        field's tower bound, even though classify itself succeeded.
        """
        return None if self.details_fn is None else self.details_fn()

    def to_json(self):
        """The label, the witness and, when details can be built, the factorization.

        The "factorization" key is left out when reading details raises
        LevelOverflow, so to_json works on every result classify returns.
        """
        out = {
            "label": str(self.label),
            "kind": self.label.kind,
            "witness": self.witness.to_json(),
        }
        if self.label.kind == "eps":
            out["eps"] = self.label.eps
            out["theta"] = self.label.theta
        try:
            d = self.details
        except LevelOverflow:
            d = None
        if d is not None:
            out["factorization"] = {
                "delta": repr(d.delta),
                "m": d.m,
                "gamma": repr(d.gamma),
                "l": d.l,
                "one_plus_f_primes": _primes_json(d.one_plus_f_primes),
                "g_primes": _primes_json(d.g_primes),
                "in_I": _primes_json(d.in_I),
            }
        return out


def _primes_json(ms):
    return [[repr(r), m] for r, m in ms]


def transcript(u, result):
    """Verification transcript for a classified involution.

    Bundles the label, the sign data when the class is non-central, the
    witness, and the outcome of every independent witness check into one
    JSON-ready dict.
    """
    eps = theta = None
    if result.label.kind == "eps":
        eps, theta = result.label.eps, result.label.theta
    return {
        "label": str(result.label),
        "epsilon": eps,
        "theta": theta,
        "witness": {
            "f": result.witness.f.to_json_terms(),
            "g": result.witness.g.to_json_terms(),
        },
        "checks": verify_witness(u, result),
    }


# ---- prime matching ----


def match_subset(x, y):
    """The canonical sub-multiset of x assigned to I: enumerate_assignments' first.

    x holds the primes of 1+f, y those of g.  For each root lam the count
    taken as-is into I is max(0, y(lam) - x(1/lam)), which minimizes |I|
    per reciprocal pair; self-paired roots (lam = 1/lam, only +-1) go
    wholly to I.  The choice is constant on Frobenius orbits because x and
    y are.  For involutions the feasible assignment is in fact unique: a
    root lam of 1+f has f(lam) = -1, so skewness puts f(1/lam) = 1 and
    1/lam is never also a root of 1+f, collapsing every feasible range to
    a point.  (Self-paired roots are likewise absent then, since
    (1+f)(+-1) = 1.)  Raises InternalInconsistency, with x and y in its
    context, when no assignment can reproduce y, which cannot happen once
    g g* = (1+f)(1+f)* holds.
    """
    for in_I in enumerate_assignments(x, y):
        return in_I
    raise InternalInconsistency(
        "prime matching cannot reproduce the factors of g",
        context={"one_plus_f_primes": repr(x), "g_primes": repr(y)},
    )


def enumerate_assignments(x, y):
    """All feasible I sub-multisets, canonical choice first per pair.

    A feasible I reproduces y: I(lam) + x(1/lam) - I(1/lam) == y(lam) for
    every root lam.  Yields nothing when the multisets cannot be matched.
    The first is match_subset's; the rest confirm that eps and theta do not
    depend on which feasible assignment is taken.
    """
    for lam, _ in y:
        if x.multiplicity(lam) == 0 and x.multiplicity(lam.inv()) == 0:
            return
    reps, seen = [], set()
    for lam, _ in x:
        if root_key(lam) in seen:
            continue
        reps.append(lam)
        seen.update((root_key(lam), root_key(lam.inv())))
    ranges = []
    for lam in reps:
        inv = lam.inv()
        x_lam, y_lam = x.multiplicity(lam), y.multiplicity(lam)
        x_inv, y_inv = x.multiplicity(inv), y.multiplicity(inv)
        if x_lam + x_inv != y_lam + y_inv:
            return
        if lam == inv:
            if x_lam != y_lam:
                return
            choices = [((lam, i),) for i in range(x_lam, -1, -1)]
        else:
            lo = max(0, y_lam - x_inv)
            hi = min(x_lam, y_lam)
            if lo > hi:
                return
            choices = [
                ((lam, i), (inv, i - (y_lam - x_inv))) for i in range(lo, hi + 1)
            ]
        ranges.append(choices)
    for combo in _cartesian(*ranges):
        entries = [(lam, i) for pairs in combo for lam, i in pairs if i]
        yield RootMultiset(entries)


# ---- root products ----


def coefficient_level(field, *polys):
    """The tower level generated by the coefficients of the given polys (1 over q)."""
    return lcm(*(field.canonical(c).level for poly in polys for _, c in poly.terms()))


def _prime_product(field, roots, step):
    """prime_product over a root multiset that must be closed under x -> x^(p^step).

    The product has its coefficients in F_{p^step} exactly when the multiset
    is closed under that power of Frobenius, with equal multiplicities along
    each orbit; otherwise this raises InternalInconsistency.
    """
    out = prime_product(field, roots)
    if step % coefficient_level(field, out):
        raise InternalInconsistency(
            "root multiset is not closed under the subfield Frobenius",
            context={"roots": repr(roots), "step": step},
        )
    return out


def _complement(x, in_I):
    entries = []
    for lam, x_lam in x:
        rest = x_lam - in_I.multiplicity(lam)
        if rest < 0:
            raise InternalInconsistency("I exceeds the primes of 1+f")
        if rest:
            entries.append((lam, rest))
    return RootMultiset(entries)


# ---- parameter extraction ----


def extract_eps_theta(fac_one_plus_f, fac_g, in_I, field, step):
    """(eps, theta, gamma, l) from the factorizations and the I choice.

    gamma t^l is the unit of g relative to the mixed prime product; the
    involution condition forces delta^2 = gamma^2, so eps = gamma/delta is
    a sign.
    """
    delta = fac_one_plus_f.unit.scalar
    m = fac_one_plus_f.unit.exponent
    comp = _complement(fac_one_plus_f.primes, in_I)
    # the star of (t - lam) has unit part -lam t^-1, and prod (-lam)^m is
    # the constant term of the plain product
    comp_scalar = _prime_product(field, comp, step).coefficient(0)
    gamma = fac_g.unit.scalar / comp_scalar
    l = fac_g.unit.exponent + comp.degree()
    eps = _sign(
        gamma / delta, "unit scalars of g and 1+f differ by a non-sign", gamma=gamma, delta=delta
    )
    theta = (l + m) % 2
    return eps, theta, gamma, l


# ---- witness assembly ----


def build_witness(u, fac_one_plus_f, fac_g, in_I, eps, theta, l, field, step):
    """The conjugator nu with nu^-1 u nu = eps s t^theta, plus its g1, g2.

    Both halves of the split are rebuilt from the factor data and checked
    against u itself (g1 g2 = g and eps t^-theta g1 g2* = 1+f) before the
    witness is formed.
    """
    delta = fac_one_plus_f.unit.scalar
    m = fac_one_plus_f.unit.exponent
    comp = _complement(fac_one_plus_f.primes, in_I)

    g1 = _prime_product(field, in_I, step)
    g1 = g1.shift((l + m + theta) // 2).scale(field.from_int(eps))
    # prod p_i* is the star of prod p_i, since star is a ring automorphism
    g2 = _prime_product(field, comp, step).star()
    g2 = g2.shift((l - m - theta) // 2).scale(delta)
    return _witness(LaurentPoly.one(field) + u.f, u.g, eps, theta, g1, g2), g1, g2


def _witness(one_plus_f, g, eps, theta, g1, g2):
    """nu = eps (F + s G) from a split, after checking it against 1+f and g."""
    field = g.field
    eps_c = field.from_int(eps)
    if g1 * g2 != g:
        raise InternalInconsistency("witness split does not multiply back to g")
    if (g1 * g2.star()).shift(-theta).scale(eps_c) != one_plus_f:
        raise InternalInconsistency("witness split is inconsistent with 1+f")

    half = field.from_int(2).inv()
    F = (g2.star().scale(eps_c) + g1.star().shift(theta)).scale(eps_c * half)
    G = (g2.shift(theta) - g1.scale(eps_c)).scale(eps_c * half)
    return AlgebraElement(compressed(F), compressed(G))


# ---- the gcd split ----


def gcd_split(one_plus_f, g):
    """(eps, theta, g1, g2) with g = g1 g2 and 1+f = eps t^-theta g1 g2*.

    g1 = eps t^a P with P = gcd(g, 1+f), taken over the field of the
    coefficients (see the module docstring); one field.poly_gcd call gives
    P and g/P.  The valuation and leading coefficient of X = P (g/P)* are
    read off g/P, so X is never formed.  Raises InternalInconsistency when
    1+f and X differ by more than a sign and a power of t, which cannot
    happen once g g* = (1+f)(1+f)* holds.
    """
    field = g.field
    h, quot = field.poly_gcd(g.coeffs, one_plus_f.coeffs)
    P = LaurentPoly(field, 0, h)
    cofactor = LaurentPoly(field, g.val, quot)  # g / P
    # P is monic and P(0) != 0, as it divides g's body, so X = P (g/P)* has
    # valuation -deg(g/P) and leading coefficient lowest(g/P)
    dv = one_plus_f.val + cofactor.degree
    theta = dv % 2
    eps = _sign(
        one_plus_f.coeffs[-1] / cofactor.coeffs[0],
        "1+f and the split of g differ by a non-sign",
        one_plus_f=one_plus_f,
        P=P,
        cofactor=cofactor,
    )
    a = (dv + theta) // 2
    eps_c = field.from_int(eps)
    return eps, theta, P.shift(a).scale(eps_c), cofactor.shift(-a).scale(eps_c)


def _sign(ratio, message, **context):
    """1 or -1 for a ratio of +-1; otherwise InternalInconsistency with the reprs of context."""
    one = ratio.field.one
    if ratio == one:
        return 1
    if ratio == -one:
        return -1
    raise InternalInconsistency(message, context={k: repr(v) for k, v in context.items()})


# ---- top level ----


def classify(u):
    """The conjugacy class of an involution, with a conjugating witness.

    The label and the witness come from gcd_split, which works over the
    field of u's coefficients.  Raises NotInvolution unless u^2 = 1, and,
    over the rationals, NotSplitOverField when 1+f or g does not factor into
    linear primes.  The result's details are built from roots only when
    they are first read.
    """
    field = u.field
    if not u.is_involution():
        raise NotInvolution(f"{u} does not square to 1")
    one = AlgebraElement.one(field)
    if u == one:
        return ClassificationResult(CanonicalInvolution.one(), one)
    if u == -one:
        return ClassificationResult(CanonicalInvolution.minus_one(), one)
    if u.g.is_zero:
        raise InternalInconsistency("non-central involution with g = 0")

    one_plus_f = LaurentPoly.one(field) + u.f
    # The details are read off these factorizations.  Over q an involution
    # is classified only when 1+f and g split into linear primes, and
    # factor_linear refuses here when they do not.
    fac_f = one_plus_f.factor_linear()
    fac_g = u.g.factor_linear()
    eps, theta, g1, g2 = gcd_split(one_plus_f, u.g)
    nu = _witness(one_plus_f, u.g, eps, theta, g1, g2)
    label = CanonicalInvolution.eps_theta(eps, theta)
    return ClassificationResult(label, nu, partial(_root_details, u, fac_f, fac_g))


def _root_details(u, fac_f, fac_g):
    """ClassificationDetails from the factorizations of 1+f and g into linear primes."""
    field = u.field
    step = coefficient_level(field, u.f, u.g)  # 1+f has the level of f
    in_I = match_subset(fac_f.primes, fac_g.primes)
    eps, theta, gamma, l = extract_eps_theta(fac_f, fac_g, in_I, field, step)
    _, g1, g2 = build_witness(u, fac_f, fac_g, in_I, eps, theta, l, field, step)
    return ClassificationDetails(
        delta=fac_f.unit.scalar,
        m=fac_f.unit.exponent,
        one_plus_f_primes=fac_f.primes,
        gamma=gamma,
        l=l,
        g_primes=fac_g.primes,
        in_I=in_I,
        g1=g1,
        g2=g2,
    )


def classify_idempotent(r):
    """Classify an idempotent through the involution 2r - 1."""
    check_idempotent(r)
    return classify(to_involution(r))


def verify_witness(u, result):
    """Independent checks: nu over u's coefficient field, det nu = 1, and the conjugation.

    conjugation means that det nu is a unit (one term, of exponent 0 since
    det is star-symmetric) and u nu = nu target.  Raises nothing of its own.
    """
    field = u.field
    nu = result.witness
    target = result.label.element(field)
    _, det = nu.trace_det()
    # adding 1 does not change the level, so f stands in for 1+f
    in_R = coefficient_level(field, u.f, u.g) % coefficient_level(field, nu.f, nu.g) == 0
    return {
        "in_R": in_R,
        "det_one": det == LaurentPoly.one(field),
        "conjugation": det.is_unit() and u * nu == nu * target,
    }
