"""The invariant suites themselves: reporting, determinism, honest skips."""

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
    # at degree bound 8, reassembling primes from unrelated levels (here 10
    # and 7) needs a level past 64; such rounds are skipped, not fatal
    reports = run_selftest(F7, seed=1, iterations=5, degree_bound=8)
    for rep in reports:
        assert rep.passed(), (rep.name, rep.failures[:3])
    by_name = {r.name: r for r in reports}
    assert by_name["factorization"].skipped >= 1
