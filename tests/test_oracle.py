"""Root finding over F_p checked against sympy's factorization mod p.

sympy shares no code with the tower, so it serves as an independent
oracle: every degree-k irreducible factor of multiplicity m over F_p must
show up as one Frobenius orbit of k roots, each of multiplicity m, whose
product of linear factors is that same factor.
"""

import random

import pytest

from dihedral.fields import FieldSpec, Poly, make_field

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
    out = Poly.one(field)
    for r in orbit:
        out = out * (Poly.x(field) - Poly(field, (r,)))
    coeffs = [field.canonical(c) for c in out.coeffs]
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
        ms = field.roots(Poly.from_int_coeffs(field, ints))
        got = sorted(
            (tuple(orbit_poly(field, orbit)), mult) for orbit, mult in frobenius_orbits(field, ms)
        )
        want = sympy_factors(ints, p)
        assert got == want, ints
        degrees.update(len(f) - 1 for f, _ in want)
        checked += 1
    # the corpus exercises irreducible factors of several degrees
    assert len(degrees) >= 3
