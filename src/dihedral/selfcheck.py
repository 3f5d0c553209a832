"""Randomized invariant suites behind the selftest command.

Each suite draws its own RNG stream derived from the master seed by a fixed
counter, so runs are reproducible and suites stay independent of each other
and of iteration order.  A suite reports how many checks it ran, which ones
failed, and how many rounds it skipped because the field genuinely cannot
complete them (rational inputs whose factors do not split stay honest skips,
never silent passes).
"""

import random
from dataclasses import dataclass, field as _dc_field

from .algebra import (
    AlgebraElement,
    CanonicalInvolution,
    Character,
    conjugate,
    random_element,
    random_involution,
    random_laurent,
    random_unit,
    to_idempotent,
    to_involution,
)
from .classification import classify, verify_witness
from .errors import LevelOverflow, NotSplitOverField
from .fields import PrimeClosureField
from .laurent import LaurentPoly


@dataclass
class SuiteReport:
    name: str
    rounds: int
    checks: int = 0
    skipped: int = 0
    failures: list = _dc_field(default_factory=list)

    def ok(self, passed, message):
        self.checks += 1
        if not passed:
            self.failures.append(message)

    def passed(self):
        return not self.failures

    def to_json(self):
        return {
            "name": self.name,
            "rounds": self.rounds,
            "checks": self.checks,
            "skipped": self.skipped,
            "failures": list(self.failures),
        }


def _random_level(field, rng):
    if not isinstance(field, PrimeClosureField):
        return 1
    return min(rng.choice((1, 1, 1, 2, 2, 3)), field.max_level)


def _suite_field_axioms(field, rng, report, degree_bound):
    for _ in range(report.rounds):
        lvl = _random_level(field, rng)
        x = field.random_element(rng, lvl)
        y = field.random_element(rng, lvl)
        z = field.random_element(rng, _random_level(field, rng))
        report.ok((x + y) * z == x * z + y * z, "distributivity")
        report.ok((x * y) * z == x * (y * z), "associativity")
        report.ok(x * y == y * x, "commutativity")
        report.ok(x + (-x) == field.zero, "additive inverse")
        report.ok(x * field.one == x, "multiplicative identity")
        if x:
            report.ok(x * x.inv() == field.one, "multiplicative inverse")
        if isinstance(field, PrimeClosureField):
            fx, fy = field.frobenius(x), field.frobenius(y)
            report.ok(field.frobenius(x + y) == fx + fy, "Frobenius additivity")
            report.ok(field.frobenius(x * y) == fx * fy, "Frobenius multiplicativity")
            cur = x
            for _ in range(x.level):
                cur = field.frobenius(cur)
            report.ok(cur == x, "Frobenius order divides the level")


def _suite_star(field, rng, report, degree_bound):
    for _ in range(report.rounds):
        a = random_laurent(field, rng, degree_bound)
        b = random_laurent(field, rng, degree_bound)
        report.ok(a.star().star() == a, "star is an involution")
        report.ok((a + b).star() == a.star() + b.star(), "star is additive")
        report.ok((a * b).star() == a.star() * b.star(), "star is multiplicative")
    t = LaurentPoly.t_power(field, 1)
    report.ok(t.star() == LaurentPoly.t_power(field, -1), "star sends t to t^-1")


def _suite_factorization(field, rng, report, degree_bound):
    for _ in range(report.rounds):
        if isinstance(field, PrimeClosureField):
            a = random_laurent(field, rng, degree_bound)
            if a.is_zero:
                report.skipped += 1
                continue
        else:
            a = LaurentPoly.t_power(field, rng.randint(-2, 2), field.random_element(rng))
            if a.is_zero:
                report.skipped += 1
                continue
            for _ in range(rng.randint(0, degree_bound)):
                root = field.random_element(rng)
                a = a * (LaurentPoly.t_power(field, 1) - LaurentPoly.const(field, root))
        try:
            fac = a.factor_linear()
            primes = fac.primes
        except (NotSplitOverField, LevelOverflow):
            report.skipped += 1
            continue
        report.ok(fac.reassemble() == a, "factorization reassembles")
        report.ok(
            primes.degree() == (a.degree - a.valuation),
            "prime count matches the body degree",
        )


def _suite_embeddings(field, rng, report, degree_bound):
    if not isinstance(field, PrimeClosureField):
        report.skipped += report.rounds
        return
    for _ in range(report.rounds):
        e = rng.choice((1, 2, 3))
        d = e * rng.choice((2, 3))
        if d > field.max_level:
            report.skipped += 1
            continue
        x = field.random_element(rng, e)
        y = field.random_element(rng, e)
        ex, ey = field.embed(x, d), field.embed(y, d)
        report.ok(field.embed(x + y, d) == ex + ey, "embedding is additive")
        report.ok(field.embed(x * y, d) == ex * ey, "embedding is multiplicative")
        report.ok(ex == x, "embedded value equals its source")
        report.ok(
            field.canonical(ex).level <= e, "canonical level never grows"
        )


def _suite_iota(field, rng, report, degree_bound):
    for _ in range(report.rounds):
        A = random_element(field, rng, degree_bound)
        B = random_element(field, rng, degree_bound)
        MA, MB, MAB = A.iota(), B.iota(), (A * B).iota()
        prod = (
            (
                MA[0][0] * MB[0][0] + MA[0][1] * MB[1][0],
                MA[0][0] * MB[0][1] + MA[0][1] * MB[1][1],
            ),
            (
                MA[1][0] * MB[0][0] + MA[1][1] * MB[1][0],
                MA[1][0] * MB[0][1] + MA[1][1] * MB[1][1],
            ),
        )
        report.ok(prod == MAB, "iota is multiplicative")
        _, dA = A.trace_det()
        _, dB = B.trace_det()
        _, dAB = (A * B).trace_det()
        report.ok(dAB == dA * dB, "determinant is multiplicative")


def _suite_characters(field, rng, report, degree_bound):
    chars = Character.all_four()
    vectors = set()
    for lab in CanonicalInvolution.all_six():
        el = lab.element(field)
        vec = tuple(str(ch.of(el)) for ch in chars)
        vectors.add(vec)
    report.ok(len(vectors) == 6, "characters separate the six classes")
    for _ in range(report.rounds):
        A = random_element(field, rng, degree_bound)
        B = random_element(field, rng, degree_bound)
        for ch in chars:
            report.ok(ch.of(A * B) == ch.of(A) * ch.of(B), f"{ch} multiplicative")
            report.ok(ch.of(A + B) == ch.of(A) + ch.of(B), f"{ch} additive")
        u = random_unit(field, rng, degree_bound, num_factors=2)
        for ch in chars:
            report.ok(
                ch.of(conjugate(u, A)) == ch.of(A),
                f"{ch} is conjugation invariant",
            )


def _suite_classification(field, rng, report, degree_bound):
    for _ in range(report.rounds):
        u, label = random_involution(field, rng, degree_bound)
        try:
            res = classify(u)
        except NotSplitOverField:
            report.skipped += 1
            continue
        report.ok(res.label == label, f"label stable under conjugation ({label})")
        checks = verify_witness(u, res)
        for key, value in checks.items():
            report.ok(value, f"witness check {key} ({label})")
        r = to_idempotent(u)
        report.ok(r * r == r, "idempotent correspondence lands on idempotents")
        report.ok(to_involution(r) == u, "involution correspondence round-trips")


SUITES = (
    ("field-axioms", _suite_field_axioms),
    ("laurent-star", _suite_star),
    ("factorization", _suite_factorization),
    ("tower-embeddings", _suite_embeddings),
    ("matrix-embedding", _suite_iota),
    ("characters", _suite_characters),
    ("classification", _suite_classification),
)


def run_selftest(field, seed=0, iterations=20, degree_bound=3):
    """Run every suite for the given number of rounds; returns the reports."""
    reports = []
    for index, (name, fn) in enumerate(SUITES):
        rng = random.Random(seed * 1_000_003 + index)
        report = SuiteReport(name=name, rounds=iterations)
        fn(field, rng, report, degree_bound)
        reports.append(report)
    return reports
