"""The gcd split that classify uses, checked against the root path and the characters.

classify reads the label and the witness off gcd_split, which needs no
roots.  The root path (factor_linear, match_subset, extract_eps_theta,
build_witness) still fills in ClassificationResult.details, so here it is
the oracle: on every golden input the two must give the same eps, theta,
g1, g2 and witness.  The label is also read off the four sign characters,
which share no code with either path.
"""

import hashlib
import json
import random

import pytest

from dihedral.algebra import (
    AlgebraElement,
    CanonicalInvolution,
    Character,
    conjugate,
    random_involution,
    to_idempotent,
    unipotent_unit,
)
from dihedral.classification import (
    build_witness,
    classify,
    coefficient_level,
    extract_eps_theta,
    gcd_split,
    match_subset,
    transcript,
    verify_witness,
)
from dihedral.errors import LevelOverflow, NotSplitOverField
from dihedral.fields import FieldSpec, make_field
from dihedral.laurent import LaurentPoly

from test_golden import a1_cases, a3_a6_cases, deep_cases, q_cases


def character_label(u):
    """The one label whose character vector is u's (A2: the six vectors differ)."""
    chars = Character.all_four()
    vec = [ch.of(u) for ch in chars]
    found = [
        lab
        for lab in CanonicalInvolution.all_six()
        if [ch.of(lab.element(u.field)) for ch in chars] == vec
    ]
    assert len(found) == 1
    return found[0]


def root_path(u):
    """(eps, theta, nu) from the factorizations of 1+f and g into linear primes."""
    field = u.field
    one_plus_f = LaurentPoly.one(field) + u.f
    fac_f, fac_g = one_plus_f.factor_linear(), u.g.factor_linear()
    step = coefficient_level(field, one_plus_f, u.g)
    in_I = match_subset(fac_f.primes, fac_g.primes)
    eps, theta, _, l = extract_eps_theta(fac_f, fac_g, in_I, field, step)
    nu, _, _ = build_witness(u, fac_f, fac_g, in_I, eps, theta, l, field, step)
    return eps, theta, nu


@pytest.mark.parametrize("cases", [a1_cases, a3_a6_cases, deep_cases, q_cases])
def test_split_agrees_with_the_root_path(cases):
    non_central = 0
    for name, u in cases():
        try:
            res = classify(u)
        except NotSplitOverField:
            continue
        assert res.label == character_label(u), name
        if res.label.kind != "eps":
            assert res.details is None, name
            continue
        non_central += 1
        eps, theta, g1, g2 = gcd_split(LaurentPoly.one(u.field) + u.f, u.g)
        assert (eps, theta) == (res.label.eps, res.label.theta), name
        assert (res.details.g1, res.details.g2) == (g1, g2), name
        assert root_path(u) == (eps, theta, res.witness), name
    assert non_central >= 2


def test_split_classifies_past_the_tower_bound():
    # at p = 1048573 the roots of 1+f and g often live above level 4, so the
    # root path refuses; the split never leaves the coefficients' level
    field = make_field(FieldSpec.prime_closure(1048573, 4))
    non_central = refused = 0
    for seed in range(128):
        u, label = random_involution(field, random.Random(seed), degree_bound=3)
        res = classify(u)
        assert res.label == label, seed
        assert all(verify_witness(u, res).values()), seed
        if label.kind == "eps":
            non_central += 1
            try:
                res.details
            except LevelOverflow:
                refused += 1
                assert "factorization" not in res.to_json(), seed
            else:
                assert "factorization" in res.to_json(), seed
    assert non_central >= 70
    assert refused >= 20  # keeps the inputs doing what they are here for


def level2_cases():
    """Twelve involutions over F_7 bounded at level 2, whose coefficients need level 2."""
    field = make_field(FieldSpec.prime_closure(7, 2))
    rng = random.Random(4242)
    e = to_idempotent(-AlgebraElement.s(field))
    for i in range(12):
        x = AlgebraElement(
            LaurentPoly.from_terms(
                field, {0: field.random_element(rng, 2), 1: field.random_element(rng, 2)}
            ),
            LaurentPoly.from_terms(field, {-1: field.random_element(rng, 2)}),
        )
        label = CanonicalInvolution.eps_theta(1 - 2 * (i % 2), (i // 2) % 2)
        yield conjugate(unipotent_unit(e, x), label.element(field)), label


def test_split_runs_at_the_coefficient_level():
    # classify succeeds even where the roots need a level above the bound
    beyond = 0
    for i, (u, label) in enumerate(level2_cases()):
        field = u.field
        assert coefficient_level(field, u.f, u.g) == 2, i
        res = classify(u)
        assert res.label == label, i
        assert all(verify_witness(u, res).values()), i
        _, _, g1, g2 = gcd_split(LaurentPoly.one(field) + u.f, u.g)
        assert coefficient_level(field, g1, g2) <= 2, i
        try:
            res.details
        except LevelOverflow:
            beyond += 1
    assert beyond >= 1


# sha256 of json.dumps(transcript(u, classify(u))) for level2_cases().  The
# root path printed these witnesses with coefficients at whatever level its
# orbit products left them; the split prints each at its minimal level.
LEVEL2_GOLDEN = [
    "78bf8496533dab0ac7fee8936657cb3776f7bfcc3a0f251f439bb6d7bd71bfd6",
    "aa4ea5854da0a0a6d4295fa12dcf7c2162a13504ea28b056547a7867519c8149",
    "c1c1a2965b880e72fbde1748eeec0b5e7732ea084bc8feef0932205945c3343c",
    "e05f070eca6fd170dd0a7e57ad43e9b159fc1fd1f86df5ffa184167d7f9fea68",
    "4813ccaf99c0c23a9ed58157053e3b364dce3aad60bc4a294938db254c641aae",
    "7512f506481dd98f29779aa12e089f0f911275e28d9b4bbfa66935ef8e96ae6b",
    "d6e982f6dec6f6ca3792c9e13b22397efab73dc52262830fe3caad5d32982d9e",
    "d9b409ab711bda78e3859023f7869c6b9a348917a8c2e51aed12ae8663bcaf9d",
    "58ca0f8c8f2d24f7b6055811dec03a9bc585c48100fb8be868baf82aca3c3ca5",
    "89b5ba10034ce658a04e9409ee4b16644ff277ad3349f8798961dab77305ddf1",
    "de8ba9e5ed592ab72a82b448583e719d7a7fe647e857f49d51d5842d213126eb",
    "1d2765912d61588ccaf3b592b83f31244bab19825a936671317e46e0d3cd2f8a",
]


def test_level2_witnesses_print_at_minimal_level():
    got = []
    for u, _ in level2_cases():
        res = classify(u)
        for _, c in (*res.witness.f.terms(), *res.witness.g.terms()):
            assert c.level == u.field.canonical(c).level
        blob = json.dumps(transcript(u, res))
        got.append(hashlib.sha256(blob.encode()).hexdigest())
    assert got == LEVEL2_GOLDEN
