"""verify_witness's conjugation check against the reading it replaced.

verify_witness reads "nu conjugates u to the label" as "det nu is a unit and
u nu = nu target".  Here that is compared with nu^-1 u nu == target, computed
through conjugate, on the golden corpus, and each check is made to fail on
its own with a forged result.
"""

import dataclasses

import pytest
from test_golden import a1_cases, a3_a6_cases, deep_cases, q_cases

from dihedral.algebra import AlgebraElement, CanonicalInvolution, conjugate
from dihedral.classification import classify, verify_witness
from dihedral.errors import NotInvertible, NotSplitOverField


def _old_conjugation(u, result):
    try:
        return conjugate(result.witness, u) == result.label.element(u.field)
    except NotInvertible:
        return False


@pytest.mark.parametrize("cases", [a1_cases, a3_a6_cases, deep_cases, q_cases])
def test_conjugation_agrees_with_conjugate(cases):
    seen = 0
    for name, u in cases():
        try:
            result = classify(u)
        except NotSplitOverField:
            continue
        seen += 1
        field = u.field
        checks = verify_witness(u, result)
        assert checks == {"in_R": True, "det_one": True, "conjugation": True}, name
        assert checks["conjugation"] == _old_conjugation(u, result), name

        # a central unit c leaves the conjugation intact but scales det by c^2
        c = field.from_int(2)
        if c * c != field.one:  # F_3 has no such c at level 1
            scaled = dataclasses.replace(result, witness=result.witness.scale(c))
            checks = verify_witness(u, scaled)
            assert checks == {"in_R": True, "det_one": False, "conjugation": True}, name
            assert _old_conjugation(u, scaled), name

        # the classes are distinct, so nu conjugates u to no other label
        other = next(lab for lab in CanonicalInvolution.all_six() if lab != result.label)
        relabeled = dataclasses.replace(result, label=other)
        checks = verify_witness(u, relabeled)
        assert checks == {"in_R": True, "det_one": True, "conjugation": False}, name
        assert not _old_conjugation(u, relabeled), name

        # T = target has T^2 = 1, so nu (1 + T) still satisfies u x = x T,
        # but det(1 + T) = 0 unless T = 1: only the unit test rejects it
        target = result.label.element(field)
        if result.label.kind != "one":
            intertwiner = result.witness * (AlgebraElement.one(field) + target)
            forged = dataclasses.replace(result, witness=intertwiner)
            assert u * intertwiner == intertwiner * target, name
            assert verify_witness(u, forged)["conjugation"] is False, name
            assert not _old_conjugation(u, forged), name
    assert seen
