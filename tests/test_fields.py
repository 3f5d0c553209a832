"""Tower arithmetic, embeddings, Frobenius, and root finding."""

import hashlib
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from dihedral._kernel import Kernel
from dihedral.errors import (
    BadLevel,
    BadSpec,
    BudgetExceeded,
    CharacteristicTwo,
    DivisionByZero,
    LevelOverflow,
    NotSplitOverField,
)
from dihedral.exprs import evaluate
from dihedral.fields import (
    FieldSpec,
    RationalElement,
    RootMultiset,
    _binomial_is_irreducible,
    _divisors,
    _is_prime,
    _prime_factors,
    make_field,
)
from dihedral.laurent import LaurentPoly

from conftest import POWERS, linear_product, poly_coeffs, repeated_product


def test_field_spec_guards():
    with pytest.raises(CharacteristicTwo):
        make_field(FieldSpec.prime_closure(2))
    with pytest.raises(BadSpec):
        make_field(FieldSpec.prime_closure(9))
    with pytest.raises(BadSpec):
        make_field(FieldSpec.prime_closure(-5))
    with pytest.raises(BadSpec):
        # 2^20 + 7 is prime but beyond the kernel's packing bound
        make_field(FieldSpec.prime_closure((1 << 20) + 7))
    with pytest.raises(BadSpec):
        make_field(FieldSpec.prime_closure(7, 0))
    with pytest.raises(BadSpec):
        make_field(FieldSpec("galois"))


def test_from_int_wraps(F7):
    assert F7.from_int(9) == F7.from_int(2)
    assert F7.from_int(-1) == F7.from_int(6)
    assert F7.from_int(7).is_zero()
    assert F7.zero + F7.one == F7.one


def test_zero_has_no_inverse(F7, Q):
    for field in (F7, Q):
        with pytest.raises(DivisionByZero):
            field.zero.inv()


def test_ring_axioms_across_levels(F5):
    rng = random.Random(101)
    for _ in range(60):
        la, lb = rng.choice((1, 2, 3, 4)), rng.choice((1, 2, 3))
        x = F5.random_element(rng, la)
        y = F5.random_element(rng, lb)
        z = F5.random_element(rng, rng.choice((1, 2)))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x - x == F5.zero
        assert x * F5.one == x
        if not x.is_zero():
            assert x * x.inv() == F5.one
            assert (x ** -2) * (x ** 2) == F5.one
        assert x ** 3 == x * x * x


@pytest.mark.parametrize("level", [2, 3])
def test_power_is_the_repeated_product(F7, level):
    x = F7.random_element(random.Random(level), level)
    for n in POWERS:
        assert x ** n == repeated_product(x, n, F7.one), n


def test_trial_division_matches_brute_force():
    for n in range(1, 2001):
        divisors = [k for k in range(1, n + 1) if n % k == 0]
        primes = [k for k in divisors if k > 1 and all(k % j for j in range(2, k))]
        assert _divisors(n) == divisors, n
        assert _prime_factors(n) == primes, n
        assert _is_prime(n) == (primes == [n]), n
    assert not _is_prime(0)


def test_divisors_of_a_smooth_number_are_fast():
    n = 2**40 * 3**10
    start = time.perf_counter()
    divisors = _divisors(n)
    assert time.perf_counter() - start < 1.0
    assert len(divisors) == 41 * 11
    assert divisors == sorted(divisors) and all(n % d == 0 for d in divisors)


def test_frobenius_is_a_field_automorphism(F7):
    rng = random.Random(5)
    for _ in range(40):
        lvl = rng.choice((1, 2, 3, 4, 6))
        x = F7.random_element(rng, lvl)
        y = F7.random_element(rng, lvl)
        assert F7.frobenius(x + y) == F7.frobenius(x) + F7.frobenius(y)
        assert F7.frobenius(x * y) == F7.frobenius(x) * F7.frobenius(y)
        cur = x
        for _ in range(lvl):
            cur = F7.frobenius(cur)
        assert cur == x
    # the prime field is fixed pointwise
    for n in range(7):
        assert F7.frobenius(F7.from_int(n)) == F7.from_int(n)


def test_embeddings_commute(F3):
    rng = random.Random(77)
    chains = [(1, 2, 4), (1, 2, 6), (1, 3, 6), (2, 4, 8), (2, 6, 12), (3, 6, 12)]
    for e, f, d in chains:
        for _ in range(10):
            x = F3.random_element(rng, e)
            via = F3.embed(F3.embed(x, f), d)
            direct = F3.embed(x, d)
            assert via == direct, (e, f, d)
            assert via == x  # equality is level-independent


def test_canonical_minimizes_level(F7):
    rng = random.Random(13)
    for _ in range(25):
        x = F7.random_element(rng, 2)
        up = F7.embed(x, 6)
        canon = F7.canonical(up)
        assert canon.level <= 2
        assert canon == x
    # a scalar pushed to level 4 comes back down to level 1
    c = F7.embed(F7.from_int(5), 4)
    assert F7.canonical(c).level == 1


def test_equality_across_incompatible_levels():
    # lcm(2, 3) = 6 exceeds the bound, but equality never needs level 6
    field = make_field(FieldSpec.prime_closure(5, 3))
    rng = random.Random(3)
    x = field.random_element(rng, 2)
    y = field.random_element(rng, 3)
    if field.canonical(x).level > 1 and field.canonical(y).level > 1:
        assert x != y
    with pytest.raises(LevelOverflow):
        _ = x * y


def test_level_bound_enforced():
    field = make_field(FieldSpec.prime_closure(7, 2))
    with pytest.raises(LevelOverflow):
        field.ensure_level(3)
    with pytest.raises(BadLevel):
        field.ensure_level(0)
    with pytest.raises(BadLevel):
        field.element(2, (1,))
    with pytest.raises(LevelOverflow):
        field.element(3, (1, 2, 3))
    x = field.element(2, (7 + 1, -1))
    assert (x.level, x.coords) == (2, (1, 6))
    y = field.element(1, (10,))
    assert y.coords == (3,)
    for a, b in ((y, field.from_int(5)), (x, y), (x, field.element(2, (4, 2)))):
        assert a - b == a + (-b)


def test_level_one_negation_returns_the_cached_residue(F7):
    for n in range(7):
        assert -F7.from_int(n) is F7._elt1((-n) % 7)


def test_zero_coefficients_do_not_raise_the_lifted_level():
    # x*(1 + t^2) whose t-coefficient is a zero stored at level 3: lifting by
    # every stored level would ask for level 6, above the bound 4
    F = make_field(FieldSpec.prime_closure(7, 4))
    x = F.element(2, (3, 1))
    y = F.element(3, (1, 2, 0))
    p = LaurentPoly(F, 0, [x, y, x]) + LaurentPoly(F, 1, [-y])
    assert str(p) == "[3,1]@2 + [3,1]@2*t^2"
    assert p.coeffs[1].is_zero() and p.coeffs[1].level == 3
    roots = F.roots(list(p.coeffs))
    assert roots.degree() == 2 and all(r * r == -F.one for r, _ in roots)
    h, quot = F.poly_gcd(list(p.coeffs), [F.one, F.zero, F.one])
    assert (h, quot) == ([F.one, F.zero, F.one], [x])
    assert p.factor_linear().primes == roots


def test_sort_key_orders_elements(F7):
    rng = random.Random(8)
    xs = [F7.random_element(rng, rng.choice((1, 2, 3))) for _ in range(30)]
    keys = [F7.sort_key(x) for x in xs]
    order = sorted(range(len(xs)), key=lambda i: keys[i])
    for i, j in zip(order, order[1:]):
        if keys[i] == keys[j]:
            assert xs[i] == xs[j]
    # keys are stable under re-embedding
    x = F7.random_element(rng, 2)
    assert F7.sort_key(x) == F7.sort_key(F7.embed(x, 4))


def test_moduli_are_the_first_irreducible_candidates():
    # _find_modulus scans monic candidates by the base-p digits of k = 0, 1, ...,
    # constant coefficient first; sympy decides irreducibility independently
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p in (3, 5, 7):
        field = make_field(FieldSpec.prime_closure(p))
        for d in range(1, 7):
            for k in range(p**d):
                cand = [k // p**i % p for i in range(d)] + [1]
                expr = sum(c * x**i for i, c in enumerate(cand))
                if sympy.Poly(expr, x, modulus=p).is_irreducible:
                    break
            assert field._kernel(d).modulus.tolist() == cand, (p, d)
            if d > 1:  # F_p embeds as the constants: the unit column
                unit = np.zeros((d, 1), dtype=np.int64)
                unit[0, 0] = 1
                assert np.array_equal(field._emb[(1, d)], unit), (p, d)


def test_binomial_criterion_agrees_with_ben_or():
    for p in (3, 5, 7, 11, 13):
        field = make_field(FieldSpec.prime_closure(p))
        for d in range(2, 13):
            for c in range(p):
                want = field._kernel(1).is_irreducible([c] + [0] * (d - 1) + [1])
                assert _binomial_is_irreducible(p, d, c) == want, (p, d, c)


def test_levels_without_irreducible_binomials_skip_the_binomials(monkeypatch):
    # 5 and 11 do not divide p - 1, so no x^d + c is irreducible, and the
    # search tests none of the p binomials
    p = 1048573
    tested = []
    test = Kernel.is_irreducible

    def recorded(kern, coeffs):
        tested.append(coeffs)
        return test(kern, coeffs)

    monkeypatch.setattr(Kernel, "is_irreducible", recorded)
    field = make_field(FieldSpec.prime_closure(p, 11))
    t0 = time.perf_counter()
    for d in (5, 11):
        field.ensure_level(d)
        assert field._kernel(d).modulus.tolist() == tested[-1], d
    assert time.perf_counter() - t0 < 60
    assert all(any(coeffs[1:-1]) for coeffs in tested)


# sha256 of every modulus and embedding matrix for p in (3, 5, 7, 101) at
# levels 1..16: every coordinate above level 1 is written in these, so
# printed roots and transcripts change whenever they do
TOWER_DIGEST = "19ea69d4e25cbef3a7ab98887c04bd3e943eb19ef96fb836d12058d65ccdbd6d"


@pytest.mark.parametrize(
    "order",
    [range(1, 17), range(16, 0, -1), (7, 12, 1, 16, 9, 4, 15, 2, 10, 13, 6, 3, 14, 8, 11, 5)],
    ids=["ascending", "descending", "mixed"],
)
def test_tower_construction_is_pinned(order):
    h = hashlib.sha256()
    for p in (3, 5, 7, 101):
        field = make_field(FieldSpec.prime_closure(p, 16))
        for d in order:
            field.ensure_level(d)
        for d in range(1, 17):
            h.update(json.dumps([p, d, field._levels[d].modulus.tolist()]).encode())
        for key in sorted(field._emb):
            h.update(json.dumps([p, list(key), field._emb[key].tolist()]).encode())
    assert h.hexdigest() == TOWER_DIGEST


def test_roots_of_split_polynomials(F7):
    ms = F7.roots([F7.from_int(-1), F7.zero, F7.one])
    assert ms.degree() == 2
    assert ms.multiplicity(F7.from_int(1)) == 1
    assert ms.multiplicity(F7.from_int(-1)) == 1
    # (x - 2)^3
    ms3 = F7.roots(linear_product(F7, [F7.from_int(2)] * 3).coeffs)
    assert ms3.degree() == 3
    assert ms3.multiplicity(F7.from_int(2)) == 3
    with pytest.raises(ValueError):
        F7.roots([])
    with pytest.raises(ValueError):
        F7.roots([F7.one, F7.zero])


def test_roots_above_the_prime_field(F7):
    # -1 is not a square mod 7, so x^2 + 1 splits at level 2
    ms = F7.roots([F7.one, F7.zero, F7.one])
    assert ms.degree() == 2
    for r, m in ms:
        assert m == 1
        assert F7.canonical(r).level == 2
        assert r * r == F7.from_int(-1)
    roots = [r for r, _ in ms]
    assert roots[0] == F7.frobenius(roots[1])


def test_roots_reassemble_and_match_construction(F5):
    rng = random.Random(55)
    for trial in range(25):
        lvl = rng.choice((1, 1, 2, 3))
        chosen = [F5.random_element(rng, lvl) for _ in range(rng.randint(1, 4))]
        poly = linear_product(F5, chosen)
        ms = F5.roots(poly_coeffs(poly))
        assert ms == RootMultiset([(r, 1) for r in chosen]), trial
        assert linear_product(F5, [r for r, m in ms for _ in range(m)]) == poly


def test_roots_need_more_level_than_allowed():
    field = make_field(FieldSpec.prime_closure(7, 1))
    with pytest.raises(LevelOverflow):
        field.roots([field.one, field.zero, field.one])


def test_roots_deterministic_across_instances():
    specs = FieldSpec.prime_closure(11)
    a, b = make_field(specs), make_field(specs)
    pa = [a.from_int(n) for n in (3, 0, 1, 5, 1)]
    pb = [b.from_int(n) for n in (3, 0, 1, 5, 1)]
    ra = [(r.level, r.coords, m) for r, m in a.roots(pa)]
    rb = [(r.level, r.coords, m) for r, m in b.roots(pb)]
    assert ra == rb
    assert ra == [(r.level, r.coords, m) for r, m in a.roots(pa)]


def test_rational_field_basics(Q):
    assert Q.describe() == "q"
    x = Q.from_int(3) / Q.from_int(4)
    assert x + x == Q.from_int(3) / Q.from_int(2)
    assert x - Q.from_int(2) == x + (-Q.from_int(2)) == Q.from_int(-5) / Q.from_int(4)
    assert (x ** -1) * x == Q.one
    assert Q.characteristic == 0
    with pytest.raises(DivisionByZero):
        Q.from_int(1) / Q.zero


def test_coefficient_too_long_to_print_is_a_budget_error(Q):
    nines = "9" * 4000
    u = evaluate(f"{nines}*{nines}", Q)
    with pytest.raises(BudgetExceeded, match="about 8000 digits is too long to print"):
        str(u)


def test_rational_roots(Q):
    half = Q.from_int(1) / Q.from_int(2)
    ms = Q.roots(linear_product(Q, [half, half, Q.from_int(-1)]).coeffs)
    assert ms.multiplicity(Q.from_int(1) / Q.from_int(2)) == 2
    assert ms.multiplicity(Q.from_int(-1)) == 1


def _qpoly(Q, *factors):
    """prod of (s*x - r) for (s, r) in factors; a bare int multiplies."""
    out = LaurentPoly.one(Q)
    for f in factors:
        if isinstance(f, int):
            out = out * LaurentPoly.const(Q, Q.from_int(f))
        else:
            s, r = f
            out = out * LaurentPoly(Q, 0, (Q.from_fraction(-r), Q.from_int(s)))
    return out


def _qroots(Q, poly):
    return [(r.value, m) for r, m in Q.roots(poly_coeffs(poly))]


@pytest.mark.parametrize(
    "factors, want",
    [
        # root 0 with multiplicity, split off before the integer search
        ([(1, 0), (1, 0), (1, 0), (1, 2), (3, -1)], [(Fraction(-1, 3), 1), (0, 3), (2, 1)]),
        # roots +-1 make s - r or s + r vanish, so the F(1)/F(-1) test is skipped
        ([(1, 1), (1, 1), (1, -1), (1, -1), (2, 3)], [(-1, 2), (1, 2), (Fraction(3, 2), 1)]),
        # negative leading coefficient
        ([-1, (1, 2), (1, -3), (3, 1), (1, 7)], [(-3, 1), (Fraction(1, 3), 1), (2, 1), (7, 1)]),
        # content > 1
        ([6, (1, 2), (1, 3), (1, -4), (2, -1)], [(-4, 1), (Fraction(-1, 2), 1), (2, 1), (3, 1)]),
        # a double root left for the quadratic formula (zero discriminant)
        ([(1, 1), (1, 2), (5, -3), (5, -3)], [(Fraction(-3, 5), 2), (1, 1), (2, 1)]),
        ([(3, 2), (3, 2)], [(Fraction(2, 3), 2)]),
        # large roots, far down the candidate list
        ([(7, 1234567), (1, -9991), (11, 2), (1, 5)],
         [(-9991, 1), (Fraction(2, 11), 1), (5, 1), (Fraction(1234567, 7), 1)]),
        # a constant has no roots
        ([5], []),
    ],
)
def test_rational_root_edge_cases(Q, factors, want):
    assert _qroots(Q, _qpoly(Q, *factors)) == sorted(want)


@pytest.mark.parametrize(
    "coeffs, split, degree",
    [
        ((1, 0, 1), [(1, 1)], 2),  # (x - 1)(x^2 + 1)
        ((-2, 0, 1), [(2, -1), (1, 0)], 2),  # after two roots, x^2 - 2 is left
        ((-2, 0, 0, 1), [], 3),  # x^3 - 2
        ((-2, 0, 0, 1), [(2, 1), (2, 1)], 3),
        ((1, 1, 1, 1, 1), [(1, -1)], 4),  # (x + 1) times the fifth cyclotomic
    ],
)
def test_rational_roots_report_what_does_not_split(Q, coeffs, split, degree):
    poly = LaurentPoly.from_int_terms(Q, enumerate(coeffs)) * _qpoly(Q, *split)
    with pytest.raises(NotSplitOverField) as exc:
        Q.roots(poly_coeffs(poly))
    assert str(exc.value) == f"irreducible factor of degree {degree} remains over the rationals"
    with pytest.raises(ValueError):
        Q.roots([])
    with pytest.raises(ValueError):
        Q.roots([Q.one, Q.zero])


def test_root_multiset_merges_and_sorts(F7):
    two, five = F7.from_int(2), F7.from_int(5)
    ms = RootMultiset([(five, 1), (two, 2), (five, 1)])
    assert ms.multiplicity(five) == 2
    assert ms.multiplicity(two) == 2
    assert ms.degree() == 4
    assert ms == RootMultiset([(two, 1), (two, 1), (five, 2)])
    assert list(ms) == sorted(list(ms), key=lambda e: F7.sort_key(e[0]))
    assert not RootMultiset.empty()
    with pytest.raises(ValueError):
        RootMultiset([(two, -1)])


def test_level_conformance_small_scale():
    # every level up to 8 for p = 3: random split products come back exactly
    field = make_field(FieldSpec.prime_closure(3, 16))
    rng = random.Random(31)
    for lvl in range(1, 9):
        for _ in range(4):
            chosen = [field.random_element(rng, lvl) for _ in range(3)]
            ms = field.roots(poly_coeffs(linear_product(field, chosen)))
            assert ms.degree() == 3
            assert ms == RootMultiset([(r, 1) for r in chosen]), lvl


def test_rational_element_keeps_the_fraction_it_is_given(Q):
    v = Fraction(-3, 4)
    assert RationalElement(Q, v).value is v
    for x in (RationalElement(Q, 5), Q.from_int(5), RationalElement(Q, v) * RationalElement(Q, 2)):
        assert type(x.value) is Fraction
    assert RationalElement(Q, 5).value == 5


def element_schoolbook(field, a, b):
    """The tower product as an element loop from field.zero, skipping zero entries."""
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


@pytest.mark.parametrize("level", [2, 3, 4])
def test_tower_products_match_the_element_loop(level):
    # nonzero entries at `level` and at level 1, zeros stored at levels 1-4:
    # every output keeps the value and the .level of the element loop's
    field = make_field(FieldSpec.prime_closure(7, 12))
    rng = random.Random(level)

    def entry():
        k = rng.randint(1, 4)
        roll = rng.random()
        if roll < 0.3:
            return field.element(k, (0,) * k)
        return field.random_element(rng, level if roll < 0.8 else 1)

    for _ in range(60):
        a = [entry() for _ in range(rng.randint(1, 6))]
        b = [entry() for _ in range(rng.randint(1, 6))]
        got, want = field.poly_mul(a, b), element_schoolbook(field, a, b)
        assert len(got) == len(want)
        assert all(x == y and x.level == y.level for x, y in zip(got, want)), (a, b)
