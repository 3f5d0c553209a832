"""The invariant suites themselves: reporting, determinism, honest skips."""

from dihedral.fields import FieldSpec, make_field
from dihedral.selfcheck import SuiteReport, run_selftest


def test_suite_report_collects_failures():
    rep = SuiteReport(name="demo", rounds=1)
    rep.ok(True, "fine")
    rep.ok(False, "broken thing")
    assert rep.checks == 2
    assert not rep.passed()
    assert rep.failures == ["broken thing"]
    blob = rep.to_json()
    assert blob["name"] == "demo"
    assert blob["failures"] == ["broken thing"]


def test_all_suites_pass(F7):
    reports = run_selftest(F7, seed=2, iterations=3)
    assert [r.name for r in reports] == [
        "field-axioms",
        "laurent-star",
        "factorization",
        "tower-embeddings",
        "matrix-embedding",
        "characters",
        "classification",
    ]
    for rep in reports:
        assert rep.passed(), (rep.name, rep.failures[:3])
        assert rep.checks > 0 or rep.skipped > 0


def test_deterministic_under_seed(F7):
    a = run_selftest(F7, seed=5, iterations=2)
    b = run_selftest(F7, seed=5, iterations=2)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]


def test_rationals_skip_what_cannot_split(Q):
    reports = run_selftest(Q, seed=1, iterations=6)
    by_name = {r.name: r for r in reports}
    # tower embeddings do not exist over the rationals
    assert by_name["tower-embeddings"].skipped == 6
    for rep in reports:
        assert rep.passed(), (rep.name, rep.failures[:3])


def test_factorization_past_the_level_bound_is_skipped(F7):
    # at degree bound 8 the roots reach levels 7 and 10; reassembled level by
    # level they never need the lcm of unrelated levels, so under the default
    # bound every round is checked, while under bound 8 the roots past level 8
    # cannot be found and those rounds are skipped, not fatal
    unbounded = run_selftest(F7, seed=1, iterations=5, degree_bound=8)
    bounded = run_selftest(
        make_field(FieldSpec.prime_closure(7, 8)), seed=1, iterations=5, degree_bound=8
    )
    for rep in (*unbounded, *bounded):
        assert rep.passed(), (rep.name, rep.failures[:3])
    unbounded_fac = {r.name: r for r in unbounded}["factorization"]
    bounded_fac = {r.name: r for r in bounded}["factorization"]
    assert (unbounded_fac.checks, unbounded_fac.skipped) == (10, 0)  # two checks a round
    assert bounded_fac.skipped >= 1
