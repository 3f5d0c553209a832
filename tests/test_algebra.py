"""Group algebra elements: relations, embeddings, units, and characters."""

import random

import pytest

from dihedral.algebra import (
    AlgebraElement,
    CanonicalInvolution,
    Character,
    check_idempotent,
    check_involution,
    conjugate,
    invert,
    random_element,
    random_involution,
    random_unit,
    to_idempotent,
    to_involution,
    unipotent_unit,
)
from dihedral.errors import NotIdempotent, NotInvertible, NotInvolution
from dihedral.laurent import LaurentPoly

from conftest import POWERS, repeated_product


def test_defining_relations(F7):
    s = AlgebraElement.s(F7)
    t = AlgebraElement.t(F7)
    one = AlgebraElement.one(F7)
    assert s * s == one
    assert t * invert(t) == one
    assert t * s == s * invert(t)  # ts = st^-1
    assert (s * t) * (s * t) == one  # b^2 = 1
    assert AlgebraElement.a(F7) == s
    assert AlgebraElement.b(F7) == s * t


def test_multiplication_law(F7):
    # (f1 + s g1)(f2 + s g2) = (f1 f2 + g1* g2) + s (f1* g2 + g1 f2)
    rng = random.Random(2)
    for _ in range(20):
        A = random_element(F7, rng, 3)
        B = random_element(F7, rng, 3)
        prod = A * B
        assert prod.f == A.f * B.f + A.g.star() * B.g
        assert prod.g == A.f.star() * B.g + A.g * B.f


@pytest.mark.parametrize("field_name", ["F7", "Q"])
def test_presentation_identities(request, field_name):
    # s (f + s g) = g + s f  and  t^m (f + s g) = t^m f + s t^-m g
    field = request.getfixturevalue(field_name)
    rng = random.Random(6)
    s = AlgebraElement.s(field)
    zero = LaurentPoly.zero(field)
    for _ in range(20):
        x = random_element(field, rng, 3)
        assert s * x == AlgebraElement(x.g, x.f)
        for m in (-3, -1, 0, 1, 4):
            tm = AlgebraElement(LaurentPoly.t_power(field, m), zero)
            assert tm * x == AlgebraElement(x.f.shift(m), x.g.shift(-m))


def test_iota_is_a_homomorphism(F7):
    rng = random.Random(3)

    def mat_mul(M, N):
        return (
            (M[0][0] * N[0][0] + M[0][1] * N[1][0], M[0][0] * N[0][1] + M[0][1] * N[1][1]),
            (M[1][0] * N[0][0] + M[1][1] * N[1][0], M[1][0] * N[0][1] + M[1][1] * N[1][1]),
        )

    for _ in range(15):
        A = random_element(F7, rng, 2)
        B = random_element(F7, rng, 2)
        assert mat_mul(A.iota(), B.iota()) == (A * B).iota()
    M = AlgebraElement.s(F7).iota()
    zero = LaurentPoly.zero(F7)
    one = LaurentPoly.one(F7)
    assert M == ((zero, one), (one, zero))


def test_trace_det(F7):
    rng = random.Random(9)
    for _ in range(20):
        A = random_element(F7, rng, 2)
        B = random_element(F7, rng, 2)
        trA, dA = A.trace_det()
        assert trA == A.f + A.f.star()
        assert dA == A.f * A.f.star() - A.g * A.g.star()
        _, dB = B.trace_det()
        _, dAB = (A * B).trace_det()
        assert dAB == dA * dB
        assert dA.star() == dA  # determinants are star-symmetric


def test_involution_predicate(F7):
    s = AlgebraElement.s(F7)
    t = AlgebraElement.t(F7)
    one = AlgebraElement.one(F7)
    assert s.is_involution()
    assert (-one).is_involution()
    assert (s * t ** 5).is_involution()
    assert not t.is_involution()
    assert not (s + one).is_involution()
    assert not AlgebraElement.zero(F7).is_involution()
    with pytest.raises(NotInvolution):
        check_involution(t)


def test_canonical_involutions(F7):
    labels = CanonicalInvolution.all_six()
    assert len(labels) == 6
    assert len(set(labels)) == 6
    seen = set()
    for lab in labels:
        el = lab.element(F7)
        assert el.is_involution(), lab
        seen.add(str(el))
    assert len(seen) == 6
    assert str(CanonicalInvolution.one()) == "1"
    assert str(CanonicalInvolution.minus_one()) == "-1"
    assert str(CanonicalInvolution.eps_theta(-1, 1)) == "eps=-1 theta=1"
    one = AlgebraElement.one(F7)
    assert CanonicalInvolution.one().element(F7) == one
    assert CanonicalInvolution.eps_theta(1, 0).element(F7) == AlgebraElement.s(F7)
    assert CanonicalInvolution.eps_theta(-1, 1).element(F7) == -AlgebraElement.b(F7)


def test_idempotent_correspondence(F7):
    s = AlgebraElement.s(F7)
    b = AlgebraElement.b(F7)
    one = AlgebraElement.one(F7)
    e = to_idempotent(-s)  # (1 - a)/2
    ep = to_idempotent(-b)  # (1 - b)/2
    for r in (e, one - e, ep, one - ep):
        check_idempotent(r)
        assert to_idempotent(to_involution(r)) == r
        assert to_involution(r).is_involution()
    assert to_involution(e) == -s
    with pytest.raises(NotIdempotent):
        check_idempotent(AlgebraElement.t(F7))


def test_is_idempotent_method(F7):
    e = to_idempotent(-AlgebraElement.s(F7))
    assert e.is_idempotent()
    assert not AlgebraElement.t(F7).is_idempotent()
    assert AlgebraElement.one(F7).is_idempotent()
    assert AlgebraElement.zero(F7).is_idempotent()


def test_inverses(F7):
    one = AlgebraElement.one(F7)
    rng = random.Random(12)
    for i in range(25):
        u = random_unit(F7, rng, 3)
        assert u * invert(u) == one, i
        assert invert(u) * u == one, i
    with pytest.raises(NotInvertible):
        invert(AlgebraElement.one(F7) + AlgebraElement.s(F7))
    with pytest.raises(NotInvertible):
        invert(AlgebraElement.zero(F7))


def test_power_is_the_repeated_product(F7):
    one = AlgebraElement.one(F7)
    x = AlgebraElement.from_parts(F7, {-1: 2, 0: 1, 2: 3}, {0: 3, 1: -1})
    for n in POWERS:
        assert x ** n == repeated_product(x, n, one), n


def test_negative_power_of_a_unit_is_a_power_of_its_inverse(F7):
    one = AlgebraElement.one(F7)
    t = AlgebraElement.t(F7)
    two_s_t3 = AlgebraElement.from_parts(F7, {}, {3: 2})
    for u in (t, two_s_t3):
        for n in POWERS[1:]:
            assert u ** -n == repeated_product(invert(u), n, one), n
            assert u ** -n * u ** n == one, n


def test_unipotent_units(F7):
    e = to_idempotent(-AlgebraElement.s(F7))
    x = AlgebraElement.from_parts(F7, {1: 2, -1: 3}, {0: 1, 2: 5})
    w = unipotent_unit(e, x)
    one = AlgebraElement.one(F7)
    assert w * invert(w) == one
    nilp = w - one
    assert (nilp * nilp).is_zero
    with pytest.raises(NotIdempotent):
        unipotent_unit(AlgebraElement.t(F7), x)


def test_conjugation(F7):
    s = AlgebraElement.s(F7)
    t = AlgebraElement.t(F7)
    e = to_idempotent(-s)
    w = unipotent_unit(e, t)
    u = conjugate(w, s)
    assert u.is_involution()
    # conjugating back with the inverse restores s
    assert conjugate(invert(w), u) == s
    with pytest.raises(NotInvertible):
        conjugate(AlgebraElement.one(F7) + s, s)


def test_worked_example_element(F7):
    # u0 = (t^-1 - t)/2 + s(1 + (t - t^-1)/2) is w0^-1 s w0 for
    # w0 = 1 + e t (1 - e), e = (1 - s)/2
    inv2 = F7.from_int(2).inv()
    f0 = LaurentPoly.from_terms(F7, {-1: inv2, 1: -inv2})
    g0 = LaurentPoly.one(F7) + LaurentPoly.from_terms(F7, {1: inv2, -1: -inv2})
    u0 = AlgebraElement(f0, g0)
    assert u0.is_involution()
    tr, _ = u0.trace_det()
    assert tr.is_zero
    w0 = unipotent_unit(to_idempotent(-AlgebraElement.s(F7)), AlgebraElement.t(F7))
    assert conjugate(w0, AlgebraElement.s(F7)) == u0


def test_characters_are_homomorphisms(F7):
    rng = random.Random(6)
    chars = Character.all_four()
    assert [(c.alpha, c.beta) for c in chars] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    one = AlgebraElement.one(F7)
    for ch in chars:
        assert ch.of(one) == F7.one
        assert ch.of(-one) == F7.from_int(-1)
        for _ in range(5):
            A = random_element(F7, rng, 2)
            B = random_element(F7, rng, 2)
            assert ch.of(A * B) == ch.of(A) * ch.of(B)
            assert ch.of(A + B) == ch.of(A) + ch.of(B)


def test_character_values_on_generators(F7):
    # chi(a) = alpha and chi(b) = beta
    a = AlgebraElement.a(F7)
    b = AlgebraElement.b(F7)
    for ch in Character.all_four():
        assert ch.of(a) == F7.from_int(ch.alpha)
        assert ch.of(b) == F7.from_int(ch.beta)


def test_character_vanishing_patterns(F7):
    one = AlgebraElement.one(F7)
    e = to_idempotent(-AlgebraElement.a(F7))
    ep = to_idempotent(-AlgebraElement.b(F7))
    chars = Character.all_four()

    def pattern(r):
        return tuple(0 if ch.of(r).is_zero() else 1 for ch in chars)

    assert pattern(e) == (0, 0, 1, 1)
    assert pattern(one - e) == (1, 1, 0, 0)
    assert pattern(ep) == (0, 1, 0, 1)
    assert pattern(one - ep) == (1, 0, 1, 0)


def test_random_involutions_carry_their_label(F7, Q):
    rng = random.Random(41)
    for field in (F7, Q):
        for _ in range(20):
            u, label = random_involution(field, rng)
            assert u.is_involution(), label
            assert label in CanonicalInvolution.all_six()


def test_element_equality_and_json(F7):
    t = AlgebraElement.t(F7)
    s = AlgebraElement.s(F7)
    assert t != s
    assert t == AlgebraElement.t(F7)
    assert t != LaurentPoly.t_power(F7, 1)
    blob = (s * t + t).to_json()
    assert blob["field"] == "fp:7"
    assert blob["f"] == [[1, "1"]]
    assert blob["g"] == [[1, "1"]]
    assert str(s * t + t) == "t + s*(t)"


@pytest.mark.parametrize("field_name", ["F7", "Q"])
def test_product_with_zero_halves_forms_no_zero_product(request, field_name, monkeypatch):
    field = request.getfixturevalue(field_name)
    rng = random.Random(12)
    zero = LaurentPoly.zero(field)
    pairs = []
    for _ in range(40):
        A, B = random_element(field, rng, 3), random_element(field, rng, 3)
        # zero a half of either factor, or both halves, now and then
        A = AlgebraElement(A.f if rng.random() < 0.6 else zero, A.g if rng.random() < 0.6 else zero)
        B = AlgebraElement(B.f if rng.random() < 0.6 else zero, B.g if rng.random() < 0.6 else zero)
        pairs.append((A, B))
    for A, B in pairs:
        prod = A * B
        assert prod.f == A.f * B.f + A.g.star() * B.g
        assert prod.g == A.f.star() * B.g + A.g * B.f

    # is_involution and trace_det by their full formulas, s and -s included
    s = AlgebraElement.s(field)
    one = LaurentPoly.one(field)
    checked = [s, -s] + [x for pair in pairs for x in pair]
    want = [
        (
            x.f * x.f + x.g.star() * x.g == one and (x.g * (x.f + x.f.star())).is_zero,
            (x.f + x.f.star(), x.f * x.f.star() - x.g * x.g.star()),
        )
        for x in checked
    ]

    zero_operands = []
    laurent_mul = LaurentPoly.__mul__

    def counted(a, b):
        if a.is_zero or b.is_zero:
            zero_operands.append((a, b))
        return laurent_mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    assert [(x.is_involution(), x.trace_det()) for x in checked] == want
    three = AlgebraElement.from_int(field, 3)
    for A, B in pairs:
        for x in (A, B):
            t_k = AlgebraElement(LaurentPoly.t_power(field, rng.randint(-4, 4)), zero)
            products = (s * x, x * s, three * t_k, t_k * three, three * t_k * x)
            assert products[0] == AlgebraElement(x.g, x.f)
    assert zero_operands == []
