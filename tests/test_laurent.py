"""Laurent polynomial arithmetic, the star map, units, and factorization."""

import random
from functools import reduce
from operator import mul

import pytest

from dihedral.errors import DivisionByZero, NotAUnit, NotSplitOverField
from dihedral.fields import FieldSpec, RootMultiset, make_field
from dihedral.laurent import LaurentPoly, prime_product

from conftest import POWERS, repeated_product


def test_basic_arithmetic(F7):
    t = LaurentPoly.t_power(F7, 1)
    tinv = LaurentPoly.t_power(F7, -1)
    one = LaurentPoly.one(F7)
    assert (t + tinv) * t == t * t + one
    p = LaurentPoly.from_int_terms(F7, {-2: 3, 0: 1, 5: 2})
    q = LaurentPoly.from_int_terms(F7, {-1: 4, 3: 6})
    assert p.valuation == -2 and p.degree == 5
    assert p.coefficient(0) == F7.from_int(1)
    assert p.coefficient(1) == F7.from_int(0)
    assert (p - p).is_zero
    assert (p * LaurentPoly.zero(F7)).is_zero
    assert p.shift(2).valuation == 0
    assert p.shift(2) == p * t ** 2
    assert p * q == q * p
    assert t ** 3 == LaurentPoly.t_power(F7, 3)
    assert (t + one) ** 2 == t * t + t.scale(F7.from_int(2)) + one


@pytest.mark.parametrize("field_name", ["F7", "Q"])
def test_power_is_the_repeated_product(request, field_name):
    field = request.getfixturevalue(field_name)
    x = LaurentPoly.from_int_terms(field, {-2: 3, 0: 1, 1: -2, 3: 5})
    if field_name == "Q":
        x = x.scale(field.from_int(2) / field.from_int(3))
    for n in POWERS:
        assert x ** n == repeated_product(x, n, LaurentPoly.one(field)), n
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(ValueError):
        LaurentPoly.t_power(field, 1) ** -1


def test_star_is_a_ring_involution(F7):
    rng = random.Random(4)
    t = LaurentPoly.t_power(F7, 1)
    assert t.star() == LaurentPoly.t_power(F7, -1)
    for _ in range(25):
        terms = {e: F7.random_element(rng) for e in range(-3, 4) if rng.random() < 0.6}
        a = LaurentPoly.from_terms(F7, terms)
        b = LaurentPoly.from_int_terms(F7, {-1: rng.randrange(7), 2: rng.randrange(7)})
        assert a.star().star() == a
        assert (a + b).star() == a.star() + b.star()
        assert (a * b).star() == a.star() * b.star()
    assert (t + t.star()).star() == t + t.star()


def test_eval_and_pole(F7):
    p = LaurentPoly.from_int_terms(F7, {-2: 3, 0: 1, 5: 2})
    # 3*x^-2 + 1 + 2*x^5 at x = 3 over F_7 comes to 2
    assert p.eval(F7.from_int(3)) == F7.from_int(2)
    with pytest.raises(DivisionByZero):
        LaurentPoly.t_power(F7, -1).eval(F7.zero)


def test_unit_part(F7):
    u5 = LaurentPoly.t_power(F7, -4, F7.from_int(5))
    up = u5.as_unit()
    assert up.scalar == F7.from_int(5) and up.exponent == -4
    assert LaurentPoly.t_power(F7, up.exponent, up.scalar) == u5
    inverse = LaurentPoly.t_power(F7, -up.exponent, up.scalar.inv())
    assert inverse * u5 == LaurentPoly.one(F7)
    product = (u5 * LaurentPoly.t_power(F7, 3, F7.from_int(4))).as_unit()
    assert (product.scalar, product.exponent) == (F7.from_int(6), -1)
    with pytest.raises(NotAUnit):
        (LaurentPoly.t_power(F7, 1) + LaurentPoly.one(F7)).as_unit()
    with pytest.raises(NotAUnit):
        LaurentPoly.zero(F7).as_unit()


def test_str_forms(F7, Q):
    t = LaurentPoly.t_power(F7, 1)
    one = LaurentPoly.one(F7)
    assert str(t + one) == "1 + t"
    assert str(LaurentPoly.t_power(F7, -1)) == "t^-1"
    assert str(LaurentPoly.zero(F7)) == "0"
    assert str(LaurentPoly.from_int_terms(F7, {2: 3})) == "3*t^2"
    # signs survive where the field has them
    assert str(-LaurentPoly.t_power(Q, 1)) == "-t"
    assert str(LaurentPoly.from_int_terms(Q, {0: 1, 1: -2})) == "1 - 2*t"


def test_worked_factorization_one_plus_f(F7):
    # 1 + f with f = (t^-1 - t)/2: unit part 3*t^-1, roots {4, 5}
    inv2 = F7.from_int(2).inv()
    f0 = LaurentPoly.from_terms(F7, {-1: inv2, 1: -inv2})
    one_plus_f = LaurentPoly.one(F7) + f0
    fac = one_plus_f.factor_linear()
    assert fac.unit.scalar == F7.from_int(3)
    assert fac.unit.exponent == -1
    assert {(r.coords[0], m) for r, m in fac.primes} == {(4, 1), (5, 1)}
    assert fac.reassemble() == one_plus_f


def test_worked_factorization_g(F7):
    # g = 1 + (t - t^-1)/2: unit part 4*t^-1, roots {2, 3}
    inv2 = F7.from_int(2).inv()
    g0 = LaurentPoly.one(F7) + LaurentPoly.from_terms(F7, {1: inv2, -1: -inv2})
    fac = g0.factor_linear()
    assert fac.unit.scalar == F7.from_int(4)
    assert fac.unit.exponent == -1
    assert {(r.coords[0], m) for r, m in fac.primes} == {(2, 1), (3, 1)}
    assert fac.reassemble() == g0


def test_star_of_prime_identity(F7):
    # (t - lam)* = (-lam) t^-1 (t - lam^-1)
    t = LaurentPoly.t_power(F7, 1)
    for n in range(2, 7):
        lam = F7.from_int(n)
        lhs = (t - LaurentPoly.const(F7, lam)).star()
        rhs = LaurentPoly.t_power(F7, -1, -lam) * (t - LaurentPoly.const(F7, lam.inv()))
        assert lhs == rhs


def test_factor_round_trips(F7):
    rng = random.Random(20240814)
    done = 0
    for trial in range(30):
        terms = {e: F7.random_element(rng) for e in range(-3, 4) if rng.random() < 0.6}
        lp = LaurentPoly.from_terms(F7, terms)
        if lp.is_zero:
            continue
        fac = lp.factor_linear()
        assert fac.reassemble() == lp, trial
        assert fac.primes.degree() == lp.degree - lp.valuation
        done += 1
    assert done >= 20


def test_factor_with_extension_roots(F5):
    # x^2 + 2 has no root mod 5; its Laurent version splits at level 2
    lp = LaurentPoly.from_int_terms(F5, {0: 2, 2: 1})
    fac = lp.factor_linear()
    assert fac.reassemble() == lp
    assert all(F5.canonical(r).level == 2 for r, _ in fac.primes)


def test_reassemble_stays_below_the_level_bound():
    # irreducible factors of degrees 7 and 10 have roots at levels 7 and 10;
    # multiplied level by level they never need level lcm(7, 10) = 70
    field = make_field(FieldSpec.prime_closure(3, 10))
    moduli = (field._kernel(d).modulus.tolist() for d in (7, 10))  # irreducible over F_3
    lp = reduce(mul, (LaurentPoly(field, 0, [field.from_int(c) for c in m]) for m in moduli))
    fac = lp.factor_linear()
    assert sorted({r.level for r, _ in fac.primes}) == [7, 10]
    assert fac.reassemble() == lp


@pytest.mark.parametrize("field_name", ["F7", "Q"])
def test_prime_product_star_is_the_product_of_starred_primes(request, field_name):
    field = request.getfixturevalue(field_name)
    t = LaurentPoly.t_power(field, 1)
    if field_name == "Q":
        roots = [(field.from_fraction(-2, 3), 2), (field.from_int(5), 1), (field.from_int(-1), 3)]
    else:
        lam = field.generator(2)
        roots = [(field.from_int(3), 2), (lam, 1), (field.frobenius(lam), 1), (lam + field.one, 2)]
    product = prime_product(field, RootMultiset(roots))
    starred = [(t - LaurentPoly.const(field, r)).star() ** m for r, m in roots]
    assert product.star() == reduce(mul, starred)
    assert product == reduce(mul, [(t - LaurentPoly.const(field, r)) ** m for r, m in roots])
    assert prime_product(field, RootMultiset.empty()) == LaurentPoly.one(field)


def test_prime_product_lands_at_the_minimal_level(F7):
    # a whole Frobenius orbit at level 2 multiplies out to a level-1 polynomial
    lam = F7.generator(2)
    product = prime_product(F7, RootMultiset([(lam, 2), (F7.frobenius(lam), 2), (F7.one, 1)]))
    assert [c.level for c in product.coeffs] == [1] * 6


def test_rational_factor_honesty(Q):
    t = LaurentPoly.t_power(Q, 1)
    one = LaurentPoly.one(Q)
    with pytest.raises(NotSplitOverField):
        (t * t - t.scale(Q.from_int(2)) - one).factor_linear()
    fac = (t * t - one).factor_linear()
    assert fac.reassemble() == t * t - one
    assert fac.primes.degree() == 2


def test_zero_polynomial_has_no_factorization(F7):
    with pytest.raises(ValueError):
        LaurentPoly.zero(F7).factor_linear()


def schoolbook(x, y):
    """x * y by the double loop over all coefficient pairs, zeros skipped."""
    field = x.field
    if x.is_zero or y.is_zero:
        return LaurentPoly.zero(field)
    out = [field.zero] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            if not a.is_zero() and not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return LaurentPoly(field, x.val + y.val, out)


def printed(x):
    """The offset, every stored coefficient as printed (zeros and levels too), and x itself."""
    return x.val, [repr(c) for c in x.coeffs], repr(x)


@pytest.fixture(scope="module")
def F1048573():
    return make_field(FieldSpec.prime_closure(1048573))


@pytest.mark.parametrize(
    "field_name, poly_level, mono_level",
    [("F7", 1, 1), ("F7", 2, 1), ("F7", 1, 2), ("F7", 2, 2), ("Q", 1, 1), ("F1048573", 1, 1)],
)
def test_one_term_product_is_the_schoolbook_product(request, field_name, poly_level, mono_level):
    field = request.getfixturevalue(field_name)
    rng = random.Random(17)
    zero = LaurentPoly.zero(field)
    for _ in range(30):
        # interior coefficients may be zero, at level 2 too
        coeffs = [field.random_element(rng, poly_level) for _ in range(rng.randint(1, 6))]
        x = LaurentPoly(field, rng.randint(-4, 4), coeffs)
        c = field.random_element(rng, mono_level)
        d = field.random_element(rng, poly_level)
        if c.is_zero() or d.is_zero():
            continue
        m = LaurentPoly.t_power(field, rng.randint(-5, 5), c)
        coeffs = [field.random_element(rng, mono_level) for _ in range(rng.randint(2, 6))]
        y = LaurentPoly(field, rng.randint(-4, 4), coeffs)
        # d*(1 + r*t + r^2*t^2) * c*(1 - r*t) = d*c*(1 - r^3*t^3): both interior
        # coefficients cancel, and over F_p their residue sums are multiples of p
        r = field.from_int(rng.randint(2, 6))
        u = LaurentPoly(field, rng.randint(-4, 4), [d, d * r, d * r * r])
        w = LaurentPoly(field, rng.randint(-4, 4), [c, -(c * r)])
        assert [e.is_zero() for e in (u * w).coeffs] == [False, True, True, False]
        pairs = ((m, x), (x, m), (m, m), (zero, x), (x, zero), (zero, m), (x, y), (y, x), (u, w))
        for a, b in pairs:
            assert printed(a * b) == printed(schoolbook(a, b)), (a, b)
            assert a * b == schoolbook(a, b)


def test_level_one_product_multiplies_residues(F7, element_ops):
    x = LaurentPoly.from_int_terms(F7, {-2: 3, 0: 1, 1: 6, 3: 5})
    y = LaurentPoly.from_int_terms(F7, {-1: 4, 0: 2, 2: 1})
    element_ops.update(mul=0, add=0)
    product = x * y
    assert (element_ops["mul"], element_ops["add"]) == (0, 0)
    assert printed(product) == printed(schoolbook(x, y))


def trimmed_like(x, val, coeffs):
    """Whether x stores what LaurentPoly(field, val, coeffs) stores: offset, values and levels."""
    ref = LaurentPoly(x.field, val, coeffs)
    return (
        x.val == ref.val
        and len(x.coeffs) == len(ref.coeffs)
        and all(a == b and a.level == b.level for a, b in zip(x.coeffs, ref.coeffs))
    )


@pytest.mark.parametrize("field_name, level", [("Q", 1), ("F7", 1), ("F7", 2), ("F7", 3), ("F7", 4)])
def test_results_built_untrimmed_match_the_trimming_constructor(request, field_name, level):
    field = request.getfixturevalue(field_name)
    rng = random.Random(31 + level)

    def nonzero():
        while True:
            c = field.random_element(rng, level)
            if c:
                return c

    def poly(n):
        # nonzero ends at `level`; interior zeros stored at another level
        coeffs = [nonzero() for _ in range(n)]
        for i in range(1, n - 1):
            if rng.random() < 0.4:
                k = rng.choice([k for k in range(1, 5) if k != level]) if field_name == "F7" else 1
                coeffs[i] = field.zero if k == 1 else field.element(k, (0,) * k)
        return LaurentPoly(field, rng.randint(-4, 4), coeffs)

    for _ in range(25):
        x, y, m = poly(rng.randint(1, 6)), poly(rng.randint(2, 6)), poly(1)
        c, z, k = m.coeffs[0], field.zero, rng.randint(-5, 5)
        n = len(x.coeffs)
        assert trimmed_like(x.star(), -(x.val + n - 1), x.coeffs[::-1])
        assert trimmed_like(x.shift(k), x.val + k, x.coeffs)
        assert trimmed_like(-x, x.val, [-a for a in x.coeffs])
        assert trimmed_like(x.scale(c), x.val, [a * c for a in x.coeffs])
        assert trimmed_like(x.scale(z), x.val, [a * z for a in x.coeffs])
        for product in (m * x, x * m):
            assert trimmed_like(product, x.val + m.val, [a * c if a else z for a in x.coeffs])
        assert trimmed_like(x * y, x.val + y.val, field.poly_mul(x.coeffs, y.coeffs))
        assert x * y == schoolbook(x, y)
    assert trimmed_like(LaurentPoly.zero(field), 0, [field.zero])
    assert trimmed_like(LaurentPoly.one(field), -1, [field.zero, field.one, field.zero])
