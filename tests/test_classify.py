"""Classification pipeline: factor, match, extract signs, build the witness."""

import dataclasses
import random

import pytest

from dihedral.algebra import (
    AlgebraElement,
    CanonicalInvolution,
    conjugate,
    random_involution,
    to_idempotent,
    unipotent_unit,
)
from dihedral.classification import (
    classify,
    classify_idempotent,
    coefficient_level,
    enumerate_assignments,
    extract_eps_theta,
    match_subset,
    transcript,
    verify_witness,
)
from dihedral.errors import InternalInconsistency, NotInvolution, NotSplitOverField
from dihedral.fields import RootMultiset
from dihedral.laurent import LaurentPoly


def worked_example(field):
    # u0 = (t^-1 - t)/2 + s(1 + (t - t^-1)/2)
    inv2 = field.from_int(2).inv()
    f0 = LaurentPoly.from_terms(field, {-1: inv2, 1: -inv2})
    g0 = LaurentPoly.one(field) + LaurentPoly.from_terms(field, {1: inv2, -1: -inv2})
    return AlgebraElement(f0, g0)


def test_canonical_elements_are_fixed_points(F7):
    one = AlgebraElement.one(F7)
    for lab in CanonicalInvolution.all_six():
        res = classify(lab.element(F7))
        assert res.label == lab
        assert res.witness == one
        assert all(verify_witness(lab.element(F7), res).values())


def test_worked_example_classification(F7):
    u0 = worked_example(F7)
    res = classify(u0)
    d = res.details
    assert res.label == CanonicalInvolution.eps_theta(1, 0)
    assert d.delta == F7.from_int(3)
    assert d.m == -1
    assert {(r.coords[0], mult) for r, mult in d.one_plus_f_primes} == {(4, 1), (5, 1)}
    assert {(r.coords[0], mult) for r, mult in d.g_primes} == {(2, 1), (3, 1)}
    assert len(d.in_I) == 0
    assert d.gamma == F7.from_int(3)
    assert d.l == 1
    assert res.witness.f == LaurentPoly.from_int_terms(F7, {-1: 2, 0: 1, 1: 5})
    assert res.witness.g == LaurentPoly.from_int_terms(F7, {-1: 5, 1: 2})
    assert all(verify_witness(u0, res).values())
    assert conjugate(res.witness, u0) == AlgebraElement.s(F7)


def test_worked_example_g_split(F7):
    # g1 g2 = g and 1 + f = eps t^-theta g1 g2*
    u0 = worked_example(F7)
    d = classify(u0).details
    assert d.g1 * d.g2 == u0.g
    lhs = LaurentPoly.one(F7) + u0.f
    assert d.g1 * d.g2.star() == lhs  # eps = +1, theta = 0


def test_witness_determinant_is_one(F7):
    u0 = worked_example(F7)
    res = classify(u0)
    _, det = res.witness.trace_det()
    assert det == LaurentPoly.one(F7)


def test_classify_s_t_squared_over_q(Q):
    st2 = AlgebraElement(LaurentPoly.zero(Q), LaurentPoly.t_power(Q, 2))
    res = classify(st2)
    assert res.label == CanonicalInvolution.eps_theta(1, 0)
    assert res.witness == AlgebraElement(LaurentPoly.t_power(Q, -1), LaurentPoly.zero(Q))
    assert res.details.g1 == LaurentPoly.t_power(Q, 1)
    assert res.details.g2 == LaurentPoly.t_power(Q, 1)
    assert all(verify_witness(st2, res).values())


def test_classify_refuses_non_involutions(F7):
    with pytest.raises(NotInvolution):
        classify(AlgebraElement.t(F7))
    with pytest.raises(NotInvolution):
        classify(AlgebraElement.zero(F7))


def test_honest_failure_over_the_rationals(Q):
    u0 = worked_example(Q)
    assert u0.is_involution()
    with pytest.raises(NotSplitOverField):
        classify(u0)


def test_classify_idempotent(F7):
    e = to_idempotent(-AlgebraElement.s(F7))
    res = classify_idempotent(e)
    assert res.label == CanonicalInvolution.eps_theta(-1, 0)
    assert all(verify_witness(-AlgebraElement.s(F7), res).values())


def test_six_class_round_trip_sample(F3, F5, F7, F101):
    for field in (F3, F5, F7, F101):
        rng = random.Random(1234 + field.p)
        for i in range(25):
            u, label = random_involution(field, rng)
            res = classify(u)
            assert res.label == label, (field.p, i)
            assert all(verify_witness(u, res).values()), (field.p, i)


def test_round_trip_over_rationals(Q):
    rng = random.Random(7)
    done = 0
    for i in range(25):
        u, label = random_involution(Q, rng, degree_bound=2)
        try:
            res = classify(u)
        except NotSplitOverField:
            continue
        assert res.label == label, i
        assert all(verify_witness(u, res).values()), i
        done += 1
    assert done >= 10


def test_extension_coefficients(F7):
    # conjugators whose coefficients live above the prime field
    rng = random.Random(4242)
    e = to_idempotent(-AlgebraElement.s(F7))
    seen_high = 0
    for i in range(12):
        x = AlgebraElement(
            LaurentPoly.from_terms(
                F7, {0: F7.random_element(rng, 2), 1: F7.random_element(rng, 2)}
            ),
            LaurentPoly.from_terms(F7, {-1: F7.random_element(rng, 2)}),
        )
        w = unipotent_unit(e, x)
        label = CanonicalInvolution.all_six()[rng.randrange(6)]
        u = conjugate(w, label.element(F7))
        if coefficient_level(F7, LaurentPoly.one(F7) + u.f, u.g) > 1:
            seen_high += 1
        res = classify(u)
        assert res.label == label, i
        assert all(verify_witness(u, res).values()), i
    assert seen_high >= 4


def skew_involution(field, rng, starred):
    """f skew, g = t^-m (1 +- f); both pairing styles of 1+f against g."""
    terms = {}
    for k in range(1, 4):
        if rng.random() < 0.7:
            c = field.random_element(rng)
            terms[k] = c
            terms[-k] = -c
    f = LaurentPoly.from_terms(field, terms)
    body = LaurentPoly.one(field) + (-f if starred else f)
    g = body.shift(-rng.randint(-2, 2))
    return AlgebraElement(f, g)


def test_assignment_unique_for_involutions(F5, F7):
    # every root lam of 1+f has f(lam) = -1, so f(1/lam) = +1 and 1/lam is
    # never again a root of 1+f: the subset assignment is forced
    rng = random.Random(99)
    starred_hits = 0
    for i in range(60):
        field = (F5, F7)[i % 2]
        u = skew_involution(field, rng, starred=(i % 3 == 0))
        if not u.g.is_zero and u.is_involution():
            pass
        else:
            continue
        res = classify(u)
        assert all(verify_witness(u, res).values()), i
        one_plus_f = LaurentPoly.one(field) + u.f
        for lam, _ in one_plus_f.factor_linear().primes:
            assert u.f.eval(lam) == field.from_int(-1)
            assert u.f.eval(lam.inv()) == field.one
        fac_f = one_plus_f.factor_linear()
        fac_g = u.g.factor_linear()
        assignments = list(enumerate_assignments(fac_f.primes, fac_g.primes))
        assert len(assignments) == 1, i
        if res.details is not None:
            assert assignments[0] == res.details.in_I
            step = coefficient_level(field, one_plus_f, u.g)
            eps, theta, _, _ = extract_eps_theta(fac_f, fac_g, assignments[0], field, step)
            assert (eps, theta) == (res.label.eps, res.label.theta), i
            if len(res.details.in_I) < len(res.details.one_plus_f_primes):
                starred_hits += 1
    assert starred_hits >= 15


def test_match_subset_minimal_choice(F7):
    # star(x) = y already, so the minimal assignment keeps I empty even
    # though pushing one reciprocal pair into I would also be feasible
    lam = F7.from_int(3)
    x = RootMultiset([(lam, 2), (lam.inv(), 1)])
    y = RootMultiset([(lam, 1), (lam.inv(), 2)])
    in_I = match_subset(x, y)
    assert len(in_I) == 0
    options = list(enumerate_assignments(x, y))
    assert len(options) == 2
    assert in_I in options
    other = next(op for op in options if op != in_I)
    assert other.multiplicity(lam) == 1 and other.multiplicity(lam.inv()) == 1


def test_match_subset_self_paired_goes_to_I(F7):
    one = F7.one
    x = RootMultiset([(one, 2)])
    y = RootMultiset([(one, 2)])
    assert match_subset(x, y).multiplicity(one) == 2
    options = list(enumerate_assignments(x, y))
    assert len(options) == 3  # i in {2, 1, 0}
    assert options[0].multiplicity(one) == 2


def test_match_subset_infeasible(F7):
    lam = F7.from_int(3)
    x = RootMultiset([(lam, 1)])
    y = RootMultiset([(F7.from_int(2), 1)])
    with pytest.raises(InternalInconsistency):
        match_subset(x, y)
    assert list(enumerate_assignments(x, y)) == []


def test_enumerate_assignments_sees_ambiguity(F7):
    # off the involution locus reciprocal pairs make the choice ambiguous
    lam = F7.from_int(3)
    x = RootMultiset([(lam, 1), (lam.inv(), 1)])
    y = RootMultiset([(lam, 1), (lam.inv(), 1)])
    options = list(enumerate_assignments(x, y))
    assert len(options) == 2
    counts = sorted(op.multiplicity(lam) for op in options)
    assert counts == [0, 1]


def test_transcript_shape(F7):
    u0 = worked_example(F7)
    res = classify(u0)
    record = transcript(u0, res)
    assert set(record) == {"label", "epsilon", "theta", "witness", "checks"}
    assert record["label"] == "eps=+1 theta=0"
    assert record["epsilon"] == 1 and record["theta"] == 0
    assert set(record["checks"]) == {"in_R", "det_one", "conjugation"}
    assert all(record["checks"].values())
    assert record["witness"]["f"] == [[-1, "2"], [0, "1"], [1, "5"]]
    central = classify(-AlgebraElement.one(F7))
    rec2 = transcript(-AlgebraElement.one(F7), central)
    assert rec2["label"] == "-1"
    assert rec2["epsilon"] is None and rec2["theta"] is None


def test_result_to_json(F7):
    u0 = worked_example(F7)
    res = classify(u0)
    blob = res.to_json()
    assert blob["kind"] == "eps"
    assert blob["eps"] == 1 and blob["theta"] == 0
    fac = blob["factorization"]
    assert fac["m"] == -1 and fac["l"] == 1
    assert len(fac["one_plus_f_primes"]) == 2
    assert fac["in_I"] == []


def test_verify_witness_non_unit_fails_conjugation(F7):
    u0 = worked_example(F7)
    res = classify(u0)
    # 1 + t has determinant (1+t)(1+t^-1), not a unit, so it has no inverse
    non_unit = AlgebraElement(LaurentPoly.one(F7) + LaurentPoly.t_power(F7, 1), LaurentPoly.zero(F7))
    forged = dataclasses.replace(res, witness=non_unit)
    assert verify_witness(u0, forged)["conjugation"] is False


def test_verify_witness_lets_bugs_propagate(F7, monkeypatch):
    import dihedral.classification as classification

    u0 = worked_example(F7)
    res = classify(u0)

    def broken(v, u):
        raise InternalInconsistency("injected", context={"where": "conjugate"})

    monkeypatch.setattr(classification, "conjugate", broken)
    with pytest.raises(InternalInconsistency):
        verify_witness(u0, res)
