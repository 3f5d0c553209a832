"""Self-check of the benchmark's span arithmetic.

Run from the root of a checkout:  python3 -m pytest -q bench/test_spans.py
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from spans import Tracer  # noqa: E402


def replay(tracer, events):
    """Drive a tracer through (time, name) opens and (time, None) closes."""
    clock = iter(t for t, _ in events)
    tracer.clock = lambda: next(clock)
    stack = []
    for _, name in events:
        if name is None:
            tracer.exit(stack.pop())
        else:
            stack.append(tracer.enter(tracer.name_id(name)))
    assert not stack


def test_self_time_recursion_and_factor_attribution():
    tracer = Tracer()
    replay(
        tracer,
        [
            (0.0, "classification.classify"),
            (1.0, "laurent.factor_linear"),
            (1.5, "fields.ensure_level"),
            (1.7, "fields.ensure_level"),  # recursive: builds a divisor level
            (2.0, None),
            (2.5, None),
            (3.0, None),
            (4.0, "laurent.factor_linear"),
            (6.0, None),
            (10.0, None),
            (11.0, "laurent.factor_linear"),  # not under classify: keeps its name
            (12.0, None),
        ],
    )
    got = {k: (c, round(s, 9)) for k, (c, s) in tracer.summary().items()}
    assert got == {
        "classification.classify": (1, 6.0),
        "classification.factor_1pf": (1, 1.0),
        "classification.factor_g": (1, 2.0),
        "fields.ensure_level": (2, 1.0),  # outer 1.0 - 0.3, inner 0.3
        "laurent.factor_linear": (1, 1.0),
    }


def test_kernel_spans_split_by_level_band():
    class Kern:
        def __init__(self, d):
            self.d = d

    tracer = Tracer()
    traced = tracer.wrap_kernel(lambda kern, x: x + 1, "kernel.e_mul")
    for d in (1, 2, 8, 9, 37):
        assert traced(Kern(d), 1) == 2
    tracer.on = False  # paused: calls go through unrecorded
    assert traced(Kern(1), 1) == 2
    counts = {k: c for k, (c, _) in tracer.summary().items()}
    assert counts == {"kernel.e_mul.l1": 1, "kernel.e_mul.l2-8": 2, "kernel.e_mul.l9-64": 2}


def test_install_traces_classify_and_uninstall_restores():
    dh = pytest.importorskip("dihedral")
    import dihedral.cli  # noqa: F401  (install also wraps cli.main)

    orig = dh.classification.classify
    field = dh.make_field(dh.FieldSpec.prime_closure(7))
    u = dh.evaluate("(t^-1 - t)/2 + s*(1 + (t - t^-1)/2)", field)
    tracer = Tracer()
    tracer.install(dh)
    try:
        assert dh.classification.classify is not orig
        assert dh.classify is dh.classification.classify
        dh.classify(u)
    finally:
        tracer.uninstall()
    assert dh.classification.classify is orig and dh.classify is orig
    summary = tracer.summary()
    assert summary["classification.classify"][0] == 1
    assert summary["classification.factor_1pf"][0] == 1
    assert summary["classification.factor_g"][0] == 1
    assert "laurent.factor_linear" not in summary
    assert sum(c for k, (c, _) in summary.items() if k.startswith("kernel.")) > 0
    total_self = sum(s for _, s in summary.values())
    top = tracer.end[0] - tracer.start[0]
    assert total_self == pytest.approx(top)  # self times partition the root span
