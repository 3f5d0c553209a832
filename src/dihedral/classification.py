"""Classification of involutions with explicit conjugating witnesses.

An involution u = f + s*g other than +-1 has f* = -f, g != 0, and
g g* = (1+f)(1+f)*.  The class of u is read off the prime factorizations

    1 + f = delta t^m prod p_i        g = gamma t^l prod_I p_i prod_Ic p_i*

where the linear primes of g are matched against those of 1+f, taking p_i
itself for indices in I and its star for the rest.  Then eps = gamma/delta
is +-1, theta = (l+m) mod 2, and u is conjugate to eps * s * t^theta.  The
witness nu with nu^-1 u nu canonical is assembled from the split

    g1 = eps t^((l+m+theta)/2) prod_I p_i
    g2 = delta t^((l-m-theta)/2) prod_Ic p_i*

as nu = eps * (F + s G) with F = (eps g2* + t^theta g1*)/2 and
G = (t^theta g2 - eps g1)/2.  The leading eps makes nu the identity when u
is already canonical; it does not affect the conjugation.

Over a prime closure the roots of 1+f and g generate extensions of the
subfield F_{p^step} cut out by the coefficients of u.  Root multiplicities
are constant along orbits of x -> x^(p^step), and so is the count matched
into I, so every product above is taken orbit by orbit: each orbit yields a
polynomial over the subfield, and the assembly never needs a composite of
unrelated extension degrees.
"""

from dataclasses import dataclass
from itertools import product as _cartesian
from math import gcd

from .algebra import AlgebraElement, CanonicalInvolution, conjugate
from .errors import InternalInconsistency, NotInvertible, NotInvolution
from .fields import PrimeClosureField, RootMultiset
from .laurent import LaurentPoly


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
    details: ClassificationDetails | None

    def canonical_element(self, field=None):
        if field is None:
            field = self.witness.field
        return self.label.element(field)

    def to_json(self):
        out = {
            "label": str(self.label),
            "kind": self.label.kind,
            "witness": self.witness.to_json(),
        }
        if self.label.kind == "eps":
            out["eps"] = self.label.eps
            out["theta"] = self.label.theta
        if self.details is not None:
            d = self.details
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
    """The canonical sub-multiset of x assigned to I.

    x holds the primes of 1+f, y those of g.  For each root lam the count
    taken as-is into I is max(0, y(lam) - x(1/lam)), which minimizes |I|
    per reciprocal pair; self-paired roots (lam = 1/lam, only +-1) go
    wholly to I.  The choice is constant on Frobenius orbits because x and
    y are.  For involutions the feasible assignment is in fact unique: a
    root lam of 1+f has f(lam) = -1, so skewness puts f(1/lam) = 1 and
    1/lam is never also a root of 1+f, collapsing every feasible range to
    a point.  (Self-paired roots are likewise absent then, since
    (1+f)(+-1) = 1.)  Raises InternalInconsistency when no assignment can
    reproduce y, which cannot happen once g g* = (1+f)(1+f)* holds.
    """
    entries = []
    for lam, x_lam in x:
        if lam == lam.inv():
            entries.append((lam, x_lam))
            continue
        taken = max(0, y.multiplicity(lam) - x.multiplicity(lam.inv()))
        if taken > x_lam:
            raise InternalInconsistency(
                "prime matching wants more copies than 1+f has",
                context={"root": repr(lam), "have": x_lam, "want": taken},
            )
        if taken:
            entries.append((lam, taken))
    in_I = RootMultiset(entries)
    _check_assignment(x, y, in_I)
    return in_I


def _check_assignment(x, y, in_I):
    """Verify that I and its starred complement reproduce y exactly."""
    support = [lam for lam, _ in x]
    for lam, _ in y:
        if all(lam != mu for mu in support):
            support.append(lam)
    for lam in support:
        inv = lam.inv()
        produced = in_I.multiplicity(lam) + (
            x.multiplicity(inv) - in_I.multiplicity(inv)
        )
        if produced != y.multiplicity(lam):
            raise InternalInconsistency(
                "prime matching failed to reproduce the factors of g",
                context={
                    "root": repr(lam),
                    "produced": produced,
                    "needed": y.multiplicity(lam),
                },
            )


def enumerate_assignments(x, y):
    """All feasible I sub-multisets, canonical choice first per pair.

    Yields nothing when the multisets cannot be matched.  Used to confirm
    that eps and theta do not depend on which feasible assignment is taken.
    """
    for lam, _ in y:
        if x.multiplicity(lam) == 0 and x.multiplicity(lam.inv()) == 0:
            return
    reps = []
    for lam, _ in x:
        if any(lam == mu or lam == mu.inv() for mu in reps):
            continue
        reps.append(lam)
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


# ---- Frobenius orbit machinery ----


def coefficient_level(field, *polys):
    """The tower level generated by the coefficients of the given polys."""
    if not isinstance(field, PrimeClosureField):
        return 1
    level = 1
    for poly in polys:
        for _, c in poly.terms():
            cl = field.canonical(c).level
            level = level * cl // gcd(level, cl)
    return level


def _frobenius_orbits(field, roots, step):
    """Group a root multiset into orbits of x -> x^(p^step).

    Rational roots are their own orbits.  Multiplicity must be uniform
    across an orbit, which holds whenever the multiset came from a
    polynomial with coefficients in F_{p^step}.
    """
    entries = list(roots)
    if not isinstance(field, PrimeClosureField):
        return [([lam], mult) for lam, mult in entries]
    used = [False] * len(entries)
    orbits = []
    for idx, (lam, mult) in enumerate(entries):
        if used[idx]:
            continue
        used[idx] = True
        orbit = [lam]
        cur = _frob_power(field, lam, step)
        while cur != lam:
            found = None
            for jdx, (mu, mu_mult) in enumerate(entries):
                if not used[jdx] and mu == cur:
                    if mu_mult != mult:
                        raise InternalInconsistency(
                            "uneven multiplicity along a Frobenius orbit"
                        )
                    found = jdx
                    break
            if found is None:
                raise InternalInconsistency(
                    "root multiset is not closed under the subfield Frobenius"
                )
            used[found] = True
            orbit.append(entries[found][0])
            cur = _frob_power(field, cur, step)
        orbits.append((orbit, mult))
    return orbits


def _frob_power(field, x, step):
    for _ in range(step):
        x = field.frobenius(x)
    return x


def _compress(field, x):
    if isinstance(field, PrimeClosureField):
        return field.canonical(x)
    return x


def _orbit_poly(field, orbit, invert_roots):
    """prod (t - lam) over one orbit, coefficients compressed to the subfield."""
    t = LaurentPoly.t_power(field, 1)
    acc = LaurentPoly.one(field)
    for lam in orbit:
        root = lam.inv() if invert_roots else lam
        acc = acc * (t - LaurentPoly.const(field, root))
    return LaurentPoly.from_terms(
        field,
        [(e, _compress(field, c)) for e, c in acc.terms()],
    )


def _orbit_scalar(field, orbit):
    """prod of the orbit's roots, compressed to the subfield."""
    prod = orbit[0]
    for lam in orbit[1:]:
        prod = prod * lam
    return _compress(field, prod)


def _prime_product(field, roots, starred, step):
    """prod p_i (starred=False) or prod p_i* (starred=True) over a multiset.

    For the starred form the unit parts of each factor
    (t - lam)* = (-lam) t^-1 (t - 1/lam) are folded in.
    """
    acc = LaurentPoly.one(field)
    for orbit, mult in _frobenius_orbits(field, roots, step):
        body = _orbit_poly(field, orbit, invert_roots=starred) ** mult
        if starred:
            sign = field.one if len(orbit) % 2 == 0 else -field.one
            scalar = (sign * _orbit_scalar(field, orbit)) ** mult
            body = body * LaurentPoly.t_power(field, -len(orbit) * mult, scalar)
        acc = acc * body
    return acc


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


def extract_eps_theta(fac_one_plus_f, fac_g, in_I, field, step=1):
    """(eps, theta, gamma, l) from the factorizations and the I choice.

    gamma t^l is the unit of g relative to the mixed prime product; the
    involution condition forces delta^2 = gamma^2, so eps = gamma/delta is
    a sign.
    """
    delta = fac_one_plus_f.unit.scalar
    m = fac_one_plus_f.unit.exponent
    comp = _complement(fac_one_plus_f.primes, in_I)
    comp_scalar = field.one
    for orbit, mult in _frobenius_orbits(field, comp, step):
        sign = field.one if len(orbit) % 2 == 0 else -field.one
        comp_scalar = comp_scalar * (sign * _orbit_scalar(field, orbit)) ** mult
    gamma = fac_g.unit.scalar / comp_scalar
    l = fac_g.unit.exponent + comp.degree()
    eps_scalar = gamma / delta
    if eps_scalar == field.one:
        eps = 1
    elif eps_scalar == -field.one:
        eps = -1
    else:
        raise InternalInconsistency(
            "unit scalars of g and 1+f differ by a non-sign",
            context={"gamma": repr(gamma), "delta": repr(delta)},
        )
    theta = (l + m) % 2
    return eps, theta, gamma, l


# ---- witness assembly ----


def build_witness(u, fac_one_plus_f, fac_g, in_I, eps, theta, l, field, step=1):
    """The conjugator nu with nu^-1 u nu = eps s t^theta, plus its g1, g2.

    Both halves of the split are rebuilt from the factor data and checked
    against u itself (g1 g2 = g and eps t^-theta g1 g2* = 1+f) before the
    witness is formed.
    """
    delta = fac_one_plus_f.unit.scalar
    m = fac_one_plus_f.unit.exponent
    comp = _complement(fac_one_plus_f.primes, in_I)

    eps_c = field.from_int(eps)
    g1 = LaurentPoly.t_power(field, (l + m + theta) // 2, eps_c) * _prime_product(
        field, in_I, starred=False, step=step
    )
    g2 = LaurentPoly.t_power(field, (l - m - theta) // 2, delta) * _prime_product(
        field, comp, starred=True, step=step
    )

    if g1 * g2 != u.g:
        raise InternalInconsistency("witness split does not multiply back to g")
    one_plus_f = LaurentPoly.one(field) + u.f
    if LaurentPoly.t_power(field, -theta, eps_c) * g1 * g2.star() != one_plus_f:
        raise InternalInconsistency("witness split is inconsistent with 1+f")

    half = field.from_int(2).inv()
    t_theta = LaurentPoly.t_power(field, theta)
    F = (g2.star().scale(eps_c) + t_theta * g1.star()).scale(half)
    G = (t_theta * g2 - g1.scale(eps_c)).scale(half)
    nu = AlgebraElement(F, G).scale(eps_c)
    return nu, g1, g2


# ---- top level ----


def classify(u, check=True):
    """The conjugacy class of an involution, with a conjugating witness.

    Raises NotInvolution unless u^2 = 1, NotSplitOverField when the base
    field cannot factor 1+f or g into linear primes, and LevelOverflow when
    a root lives beyond the tower bound.
    """
    field = u.field
    if check and not u.is_involution():
        raise NotInvolution(f"{u} does not square to 1")
    one = AlgebraElement.one(field)
    if u == one:
        return ClassificationResult(CanonicalInvolution.one(), one, None)
    if u == -one:
        return ClassificationResult(CanonicalInvolution.minus_one(), one, None)
    if u.g.is_zero:
        raise InternalInconsistency("non-central involution with g = 0")

    one_plus_f = LaurentPoly.one(field) + u.f
    step = coefficient_level(field, one_plus_f, u.g)
    fac_f = one_plus_f.factor_linear()
    fac_g = u.g.factor_linear()

    in_I = match_subset(fac_f.primes, fac_g.primes)
    eps, theta, gamma, l = extract_eps_theta(fac_f, fac_g, in_I, field, step)
    nu, g1, g2 = build_witness(u, fac_f, fac_g, in_I, eps, theta, l, field, step)

    label = CanonicalInvolution.eps_theta(eps, theta)
    details = ClassificationDetails(
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
    return ClassificationResult(label, nu, details)


def classify_idempotent(r, check=True):
    """Classify an idempotent through the involution 2r - 1."""
    from .algebra import check_idempotent, to_involution

    if check:
        check_idempotent(r)
    return classify(to_involution(r), check=False)


def verify_witness(u, result):
    """Independent checks on a classification: det nu = 1 and the conjugation."""
    field = u.field
    nu = result.witness
    target = result.label.element(field)
    _, det = nu.trace_det()
    checks = {"in_R": True, "det_one": det == LaurentPoly.one(field)}
    try:
        checks["conjugation"] = conjugate(nu, u) == target
    except NotInvertible:
        checks["conjugation"] = False
    return checks
