"""Command line behavior: outputs, JSON mode, and the exit-code contract."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dihedral import cli
from dihedral.algebra import AlgebraElement
from dihedral.classification import classify, transcript
from dihedral.errors import BadSpec, LevelOverflow
from dihedral.exprs import evaluate
from dihedral.fields import FieldSpec, make_field
from dihedral.laurent import LaurentPoly


SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    """main() plus argparse's SystemExit, normalized to an exit code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def run_python(args):
    """A fresh interpreter importing dihedral from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["classify", "s*t^2", "--field", "fp:7", "--json"], 0),
        (["classify", "s*(", "--field", "fp:7"], 1),
        (["classify", "s + t", "--field", "fp:7"], 2),
        (["classify", "(t^-1 - t)/2 + s*(1 + (t - t^-1)/2)", "--field", "q"], 3),
    ],
)
def test_process_matches_main(capsys, argv, expected):
    # the process entry adds only the heap freeze and sys.exit to cli.main
    proc = run_python(["-m", "dihedral", *argv])
    assert proc.returncode == expected
    assert run(argv) == expected
    captured = capsys.readouterr()
    assert proc.stdout == captured.out.encode()
    assert proc.stderr.decode() == captured.err


def test_import_graph_in_a_fresh_interpreter():
    code = (
        "import json, sys\n"
        "import dihedral.cli\n"
        "loaded = {name: name in sys.modules for name in ('dihedral.selfcheck', 'numpy')}\n"
        "loaded['attribute'] = dihedral.selfcheck is sys.modules['dihedral.selfcheck']\n"
        "from dihedral import run_selftest\n"
        "loaded['function'] = run_selftest is dihedral.selfcheck.run_selftest\n"
        "loaded['exported'] = 'run_selftest' in dihedral.__all__ and all(\n"
        "    hasattr(dihedral, name) for name in dihedral.__all__)\n"
        "print(json.dumps(loaded))\n"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    # only selftest needs selfcheck, so the CLI's other commands never compile it
    assert loaded["dihedral.selfcheck"] is False
    # bench/run.py's measure_import_split reads numpy's import time from
    # `import dihedral`; drop this once that reading tolerates no numpy
    # (ROADMAP items 1 and 4)
    assert loaded["numpy"] is True
    assert loaded["attribute"] is loaded["function"] is loaded["exported"] is True


def test_classify_worked_example_text(capsys):
    code = run(["classify", "s*t^2", "--field", "q"])
    out = capsys.readouterr().out
    assert code == 0
    assert "label: eps=+1 theta=0" in out
    assert "witness: t^-1" in out
    assert "in_R=pass" in out and "det_one=pass" in out and "conjugation=pass" in out


def test_classify_json_matches_library(capsys):
    expr = "(t^-1 - t)/2 + s*(1 + (t - t^-1)/2)"
    code = run(["classify", expr, "--json"])  # default field fp:7
    out = capsys.readouterr().out
    assert code == 0
    field = make_field(FieldSpec.prime_closure(7))
    u = evaluate(expr, field)
    expected = transcript(u, classify(u))
    assert json.loads(out) == json.loads(json.dumps(expected))
    assert out == json.dumps(expected) + "\n"


def test_exit_code_corpus(capsys):
    cases = [
        (["normalize", "a*"], 1),
        (["normalize", "x"], 1),
        (["normalize", "1/0"], 1),
        (["classify", "t"], 2),
        (["conjugate", "s", "--by", "1+s"], 2),
        (["is-involution", "t"], 2),
        (["is-idempotent", "t"], 2),
        (["classify", "(t^-1 - t)/2 + s*(1 + (t - t^-1)/2)", "--field", "q"], 3),
        (["normalize", "(1-a)/7", "--field", "fp:7"], 3),
        (["normalize", "t^-1", "--field", "fp:4"], 1),
        (["normalize", "t", "--field", "fp:2"], 1),
        (["normalize", "t", "--field", "gf(9)"], 1),
        (["normalize", "t", "--seed", "-3"], 1),
        (["normalize", "t", "--iterations", "0"], 1),
        (["classify"], 1),
        (["conjugate", "s"], 1),
        (["frobnicate", "t"], 1),
        (["normalize", "t", "--bogus"], 1),
        # only ASCII digits, within the bound p < 2^20 checked before primality
        (["normalize", "t", "--field", "fp:\u00b2"], 1),
        (["normalize", "t", "--field", "fp:\u0663"], 1),
        (["normalize", "t", "--field", "fp:" + "9" * 5000], 1),
        (["normalize", "t", "--field", "fp:2305843009213693951"], 1),
        (["normalize", "t", "--field", "fp:1048576"], 1),
        (["normalize", "t", "--field", "fp:+7"], 1),
        (["normalize", "t", "--seed", "\u0663"], 1),
        (["normalize", "t", "--iterations", "\u00b2"], 1),
        (["normalize", "t", "--degree-bound", " 3"], 1),
        (["normalize", "t", "--max-level", "1_0"], 1),
        (["normalize", "t", "--seed", "9" * 5000], 1),
        (["selftest", "--degree-bound", "8", "--seed", "1", "--iterations", "5"], 0),
        (["normalize", "9" * 4000 + "*" + "9" * 4000, "--field", "q"], 3),
    ]
    for argv, expected in cases:
        code = run(argv)
        capsys.readouterr()
        assert code == expected, argv


def test_huge_prime_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(BadSpec, match="too large"):
        make_field(FieldSpec.prime_closure(2**61 - 1))
    assert time.perf_counter() - start < 1.0


def test_ascii_digit_flags_still_work(capsys):
    argv = ["random-involution", "--field", "fp:101", "--seed", "18446744073709551615"]
    assert run(argv + ["--degree-bound", "2", "--max-level", "3"]) == 0
    assert "label: " in capsys.readouterr().out


@pytest.mark.parametrize("src, offset", [("9" * 5000, 0), ("t^" + "9" * 5000, 2)])
def test_over_long_literal_exits_with_a_parse_error(capsys, src, offset):
    assert run(["normalize", src]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dihedral: parse error at offset {offset}: integer literal")
    assert "Traceback" not in err


def test_deep_nesting_exits_with_a_parse_error(capsys):
    for src in ("(" * 247 + "t" + ")" * 247, "-" * 985 + "t", "(-" * 198 + "t" + ")" * 198):
        assert run(["normalize", "--", src]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dihedral: parse error at offset 100: nesting deeper than 100")
        assert "Traceback" not in err


def test_classify_beyond_the_level_bound(capsys):
    # 1 + f = t^-1 (t^2 + t - 1) has no root in F_7, yet the gcd split
    # classifies u without leaving F_7
    expr = "t - t^-1 + s*(1 + t - t^-1)"
    field = make_field(FieldSpec.prime_closure(7, 1))
    u = evaluate(expr, field)
    with pytest.raises(LevelOverflow):
        (LaurentPoly.one(field) + u.f).factor_linear().primes
    assert run(["classify", expr, "--field", "fp:7", "--max-level", "1", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["label"] == "eps=+1 theta=0"
    assert blob["checks"] == {"in_R": True, "det_one": True, "conjugation": True}


def test_expression_starting_with_minus_follows_double_dash(capsys):
    # argparse reads a leading "-" as an option; "--" ends the options, so
    # flags come before it
    assert run(["classify", "-s"]) == 1
    capsys.readouterr()
    assert run(["classify", "--field", "fp:7", "--", "-s"]) == 0
    assert "label: eps=-1 theta=0" in capsys.readouterr().out
    assert run(["normalize", "--", "-s*t"]) == 0
    assert capsys.readouterr().out.strip() == "s*(-t)"


def test_predicates(capsys):
    assert run(["is-involution", "s*t^4"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["is-involution", "t", "--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {"involution": False}
    assert run(["is-idempotent", "(1-b)/2", "--field", "q"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["is-idempotent", "(1-b)/3", "--field", "q"]) == 2
    assert capsys.readouterr().out.strip() == "false"


def test_normalize(capsys):
    assert run(["normalize", "a*b"]) == 0
    assert capsys.readouterr().out.strip() == "t"
    assert run(["normalize", "2*s*t - s*t", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"f": [], "g": [[1, "1"]], "field": "q"}


def test_conjugate(capsys):
    assert run(["conjugate", "s*t^2", "--by", "t^-1", "--field", "q"]) == 0
    assert capsys.readouterr().out.strip() == "s*(1)"


def test_char_table_patterns(capsys):
    patterns = {
        "(1-a)/2": ["0", "0", "1", "1"],
        "(1+a)/2": ["1", "1", "0", "0"],
        "(1-b)/2": ["0", "1", "0", "1"],
        "(1+b)/2": ["1", "0", "1", "0"],
    }
    for expr, values in patterns.items():
        assert run(["char-table", expr]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(" = ")[1] for line in lines] == values, expr
        assert run(["char-table", expr, "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert [row["value"] for row in blob["table"]] == values
        assert [(row["alpha"], row["beta"]) for row in blob["table"]] == [
            (1, 1), (1, -1), (-1, 1), (-1, -1),
        ]


def test_random_involution_deterministic(capsys):
    assert run(["random-involution", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert run(["random-involution", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "label:" in first
    assert run(["random-involution", "--seed", "6", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob) == {"element", "label"}
    # the element really is an involution with that label
    field = make_field(FieldSpec.prime_closure(7))
    u = AlgebraElement.from_parts(
        field,
        {e: int(c) for e, c in blob["element"]["f"]},
        {e: int(c) for e, c in blob["element"]["g"]},
    )
    assert u.is_involution()


def test_degree_bound_above_the_budget_exits_3(capsys, monkeypatch):
    assert cli.MAX_DEGREE_BOUND == 32
    assert run(["random-involution", "--degree-bound", "32", "--seed", "3"]) == 0
    capsys.readouterr()
    # refused before anything is drawn
    monkeypatch.setattr(cli, "random_involution", None)
    monkeypatch.setattr("dihedral.selfcheck.run_selftest", None)
    for command in ("random-involution", "selftest"):
        for field in ("fp:7", "q"):
            assert run([command, "--degree-bound", "33", "--field", field]) == 3
            assert "BudgetExceeded" in capsys.readouterr().err


def test_selftest_flags_above_their_budget_exit_3(capsys, monkeypatch):
    assert (cli.SELFTEST_MAX_DEGREE_BOUND, cli.SELFTEST_MAX_ITERATIONS) == (8, 200)
    # refused before any suite runs
    monkeypatch.setattr("dihedral.selfcheck.run_selftest", None)
    for flags in (["--degree-bound", "9"], ["--iterations", "201"]):
        for field in ("fp:7", "q"):
            assert run(["selftest", *flags, "--field", field]) == 3
            assert "BudgetExceeded" in capsys.readouterr().err


def test_selftest_runs_clean(capsys):
    assert run(["selftest", "--iterations", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "selftest: PASS over fp:7" in out
    assert run(["selftest", "--iterations", "2", "--seed", "1", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["passed"] is True
    assert blob["field"] == "fp:7"
    assert len(blob["suites"]) == 7
    assert all(s["failures"] == [] for s in blob["suites"])


def test_selftest_deterministic(capsys):
    run(["selftest", "--iterations", "2", "--json"])
    first = capsys.readouterr().out
    run(["selftest", "--iterations", "2", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_selftest_over_q(capsys):
    assert run(["selftest", "--iterations", "2", "--field", "q"]) == 0
    out = capsys.readouterr().out
    assert "selftest: PASS over q" in out
