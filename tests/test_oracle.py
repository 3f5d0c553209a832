"""Root finding checked against sympy's factorizations, over F_p and Q.

sympy shares no code with the tower or the rational root search, so it
serves as an independent oracle.  Over F_p, every degree-k irreducible
factor of multiplicity m must show up as one Frobenius orbit of k roots,
each of multiplicity m, whose product of linear factors is that same
factor.  Over Q, the linear factors must give the roots with their
multiplicities, and NotSplitOverField must be raised exactly when a
non-linear factor exists, naming the total degree of those factors.
"""

import random
from fractions import Fraction

import pytest

from dihedral.errors import NotSplitOverField
from dihedral.fields import FieldSpec, RootMultiset, make_field

from conftest import linear_product, poly_coeffs

sympy = pytest.importorskip("sympy")


def frobenius_orbits(field, roots):
    """[(orbit roots, multiplicity)] for a RootMultiset over F_p."""
    pending = list(roots)
    orbits = []
    while pending:
        lam, mult = pending.pop(0)
        orbit = [lam]
        cur = field.frobenius(lam)
        while cur != lam:
            orbit.append(cur)
            cur = field.frobenius(cur)
        for mu in orbit[1:]:
            idx = next(i for i, (r, _) in enumerate(pending) if r == mu)
            assert pending.pop(idx)[1] == mult, "multiplicity varies along an orbit"
        orbits.append((orbit, mult))
    return orbits


def orbit_poly(field, orbit):
    """prod (x - r) over the orbit, as low-first ints mod p."""
    coeffs = [field.canonical(c) for c in poly_coeffs(linear_product(field, orbit))]
    assert all(c.level == 1 for c in coeffs), "orbit polynomial not over F_p"
    return [c.coords[0] for c in coeffs]


def sympy_factors(ints, p):
    """{(low-first monic coefficient tuple, multiplicity)} of the poly mod p."""
    x = sympy.Symbol("x")
    expr = sum(c * x**i for i, c in enumerate(ints))
    _, factors = sympy.Poly(expr, x, modulus=p).factor_list()
    out = []
    for fac, mult in factors:
        coeffs = [int(c) % p for c in fac.all_coeffs()[::-1]]
        inv = pow(coeffs[-1], p - 2, p)
        out.append((tuple(c * inv % p for c in coeffs), mult))
    return sorted(out)


def random_ints(rng, p):
    """A random poly, often with repeated factors, low-first coefficients."""
    x = sympy.Symbol("x")
    expr = sympy.Integer(rng.randrange(1, p))
    for _ in range(rng.randint(1, 3)):
        part = sum(rng.randrange(p) * x**i for i in range(rng.randint(1, 4))) + x ** rng.randint(1, 4)
        expr *= part ** rng.randint(1, 2)
    poly = sympy.Poly(sympy.expand(expr), x)
    return [int(c) % p for c in poly.all_coeffs()[::-1]]


@pytest.mark.parametrize("p", [3, 7, 101])
def test_roots_match_sympy_factorization(p):
    field = make_field(FieldSpec.prime_closure(p))
    rng = random.Random(4000 + p)
    checked = 0
    degrees = set()
    while checked < 25:
        ints = random_ints(rng, p)
        if len(ints) < 2 or ints[-1] == 0:
            continue
        ms = field.roots([field.from_int(n) for n in ints])
        got = sorted(
            (tuple(orbit_poly(field, orbit)), mult) for orbit, mult in frobenius_orbits(field, ms)
        )
        want = sympy_factors(ints, p)
        assert got == want, ints
        degrees.update(len(f) - 1 for f, _ in want)
        checked += 1
    # the corpus exercises irreducible factors of several degrees
    assert len(degrees) >= 3


def random_rational_product(rng):
    """Low-first Fraction coefficients of a random product over Q."""
    x = sympy.Symbol("x")
    expr = sympy.Rational(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6))
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.7:
            part = rng.randint(1, 9) * x - rng.randint(-20, 20)
        else:
            # may happen to be reducible; sympy decides
            deg = rng.randint(2, 4)
            part = x**deg + sum(sympy.Rational(rng.randint(-9, 9), rng.randint(1, 4)) * x**i for i in range(deg))
        expr *= part ** rng.choice((1, 1, 2, 3))
    poly = sympy.Poly(sympy.expand(expr), x, domain=sympy.QQ)
    return [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()[::-1]]


def test_rational_roots_match_sympy_factorization():
    Q = make_field(FieldSpec.rationals())
    x = sympy.Symbol("x")
    rng = random.Random(4100)
    outcomes = {"split": 0, "refused": 0}
    for _ in range(80):
        coeffs = random_rational_product(rng)
        _, factors = sympy.Poly(
            sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs)), x, domain=sympy.QQ
        ).factor_list()
        want = {}
        rest = 0
        for fac, mult in factors:
            if fac.degree() == 1:
                b, a = fac.all_coeffs()
                root = -Fraction(int(a.p), int(a.q)) / Fraction(int(b.p), int(b.q))
                want[root] = want.get(root, 0) + mult
            else:
                rest += fac.degree() * mult
        poly = [Q.from_fraction(c.numerator, c.denominator) for c in coeffs]
        if rest:
            with pytest.raises(NotSplitOverField) as exc:
                Q.roots(poly)
            assert str(exc.value) == f"irreducible factor of degree {rest} remains over the rationals", coeffs
            outcomes["refused"] += 1
        else:
            assert {r.value: m for r, m in Q.roots(poly)} == want, coeffs
            outcomes["split"] += 1
    # both outcomes are exercised
    assert min(outcomes.values()) >= 20, outcomes


def element_of_level(field, rng, level):
    """A random element whose minimal tower level is exactly level."""
    while True:
        r = field.random_element(rng, level)
        if field.canonical(r).level == level:
            return r


def test_roots_match_sympy_at_multiplicity_p():
    # f^p has a vanishing derivative, so multiplicities p and p+1 must be
    # peeled by exact division alone
    x = sympy.Symbol("x")
    for p in (3, 7):
        field = make_field(FieldSpec.prime_closure(p))
        rng = random.Random(4200 + p)
        mults = set()
        for _ in range(8):
            expr = sympy.Integer(rng.randrange(1, p))
            for _ in range(rng.randint(1, 2)):
                deg = rng.randint(1, 3)
                part = sum(rng.randrange(p) * x**i for i in range(deg)) + x**deg
                expr *= part ** rng.choice((p, p + 1))
            ints = [int(c) % p for c in sympy.Poly(sympy.expand(expr), x).all_coeffs()[::-1]]
            ms = field.roots([field.from_int(n) for n in ints])
            got = sorted(
                (tuple(orbit_poly(field, orbit)), mult) for orbit, mult in frobenius_orbits(field, ms)
            )
            want = sympy_factors(ints, p)
            assert got == want, (p, ints)
            mults.update(m for _, m in want)
        assert max(mults) >= p, (p, mults)

    # level-2 coefficients: roots a^3, b^4 and a level-4 orbit over F_9, twice
    field = make_field(FieldSpec.prime_closure(3))
    rng = random.Random(4203)
    a, b, c = (element_of_level(field, rng, lvl) for lvl in (2, 2, 4))
    c9 = field.frobenius(field.frobenius(c))
    built = [(a, 3), (b, 4), (c, 2), (c9, 2)]
    poly = linear_product(field, [r for r, m in built for _ in range(m)])
    assert max(field.canonical(co).level for co in poly.coeffs) == 2
    fac = poly.factor_linear()
    assert fac.reassemble() == poly
    assert fac.primes == RootMultiset(built)
    assert field.roots(poly_coeffs(poly)) == RootMultiset(built)


# ---- poly_gcd against sympy's gcd and exact division ----


def gcd_shapes(rand, const):
    """(shape, a, b) sympy Polys, none monic; rand(deg) draws a poly of that degree."""
    c, x, y, k = rand(2), rand(1), rand(3), const()
    shapes = [
        ("coprime", c * x, c * x + k),
        ("b divides a", c * x, c),
        ("a divides b", c, c * y),
        ("repeated common factor", c**2 * x, c**3 * y),
        ("degree-0 b", c * x, k + 0 * c),
        ("equal up to a unit", c * y, c * y * k),
    ]
    return [(shape, *(2 * f if f.LC() == 1 else f for f in ab)) for shape, *ab in shapes]


def sympy_gcd_cofactor(a, b):
    """sympy's monic gcd h of a and b, and a / h, both with a zero remainder check."""
    h = a.gcd(b).monic()
    q, r = a.div(h)
    assert r.is_zero
    return h, q


@pytest.mark.parametrize("p", [3, 7, 1048573])
def test_poly_gcd_matches_sympy_over_gf_p(p):
    field = make_field(FieldSpec.prime_closure(p))
    x = sympy.Symbol("x")
    rng = random.Random(4300 + p)

    def rand(deg):
        coeffs = [rng.randrange(2, p)] + [rng.randrange(p) for _ in range(deg)]
        return sympy.Poly(coeffs, x, modulus=p)

    def const():
        return sympy.Poly([rng.randrange(2, p)], x, modulus=p)

    def ints(poly):
        return [int(c) % p for c in poly.all_coeffs()[::-1]]

    def elements(poly):
        return [field.from_int(n) for n in ints(poly)]

    for _ in range(4):
        for shape, a, b in gcd_shapes(rand, const):
            assert ints(a)[-1] != 1 and ints(b)[-1] != 1, shape  # non-monic inputs
            h, q = field.poly_gcd(elements(a), elements(b))
            assert all(c.level == 1 for c in (*h, *q)), shape
            want_h, want_q = sympy_gcd_cofactor(a, b)
            assert [c.coords[0] for c in h] == ints(want_h), (shape, ints(a), ints(b))
            assert [c.coords[0] for c in q] == ints(want_q), (shape, ints(a), ints(b))


def test_poly_gcd_matches_sympy_over_q():
    Q = make_field(FieldSpec.rationals())
    x = sympy.Symbol("x")
    rng = random.Random(4400)

    def big():
        # numerators and denominators above 10^8
        sign = rng.choice((-1, 1))
        return sympy.Rational(sign * rng.randint(10**8, 10**12), rng.randint(10**8, 10**12))

    def rand(deg):
        return sympy.Poly([big() for _ in range(deg + 1)], x, domain=sympy.QQ)

    def const():
        return sympy.Poly([big()], x, domain=sympy.QQ)

    def fractions(poly):
        return [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()[::-1]]

    def elements(poly):
        return [Q.from_fraction(c.numerator, c.denominator) for c in fractions(poly)]

    for _ in range(4):
        for shape, a, b in gcd_shapes(rand, const):
            assert fractions(a)[-1] != 1 and fractions(b)[-1] != 1, shape
            h, q = Q.poly_gcd(elements(a), elements(b))
            want_h, want_q = sympy_gcd_cofactor(a, b)
            assert [c.value for c in h] == fractions(want_h), (shape, fractions(a), fractions(b))
            assert [c.value for c in q] == fractions(want_q), (shape, fractions(a), fractions(b))


def test_poly_gcd_at_level_2():
    # a = k1 (t-r1)(t-r2)(t-r3) and b = k2 (t-r1)(t-r2)(t-r4) over F_49, so the
    # monic gcd is (t-r1)(t-r2) and b's cofactor is known without dividing
    field = make_field(FieldSpec.prime_closure(7))
    rng = random.Random(4500)
    roots = []
    while len(roots) < 4:
        r = element_of_level(field, rng, 2)
        if all(r != s for s in roots):
            roots.append(r)
    k1, k2 = element_of_level(field, rng, 2), element_of_level(field, rng, 2)
    common = linear_product(field, roots[:2])
    a = (common * linear_product(field, roots[2:3])).scale(k1)
    b = (common * linear_product(field, roots[3:])).scale(k2)
    h, q = field.poly_gcd(poly_coeffs(a), poly_coeffs(b))
    assert h == list(poly_coeffs(common))
    assert field.poly_mul(h, q) == list(poly_coeffs(a))
    assert field.poly_mul(h, poly_coeffs(linear_product(field, roots[3:]).scale(k2))) == list(poly_coeffs(b))
    assert max(c.level for c in (*h, *q)) == 2
