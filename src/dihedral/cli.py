"""Command line front end.

Commands take an expression in the generators a, b, s, t, evaluate it over
the selected coefficient field, and print text or JSON.  Exit codes separate
the failure surfaces: 1 for malformed input (expressions or flags), 2 for
domain errors (not an involution, not invertible, ...), 3 for honest field
limitations (a factor does not split over q, level bound exceeded, division
by an integer that vanishes in the field), 4 for internal inconsistencies,
which indicate a bug rather than a user error.
"""

import argparse
import json
import random
import sys

from .algebra import Character, conjugate, random_involution
from .classification import classify, transcript
from .errors import (
    BadLevel,
    BadSpec,
    BudgetExceeded,
    DihedralError,
    DivisionByZero,
    InternalInconsistency,
    LevelOverflow,
    NotIdempotent,
    NotInvertible,
    NotInvolution,
    NotSplitOverField,
    ParseError,
)
from .exprs import evaluate
from .fields import FieldSpec, make_field

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_FIELD = 3
EXIT_INTERNAL = 4

# classification needs splitting, so those commands default to a prime field
FP_DEFAULT_COMMANDS = {"classify", "random-involution", "selftest"}

# largest --degree-bound of random-involution (0.4 s over q; 64 took 3.5 s)
MAX_DEGREE_BOUND = 32
# largest --degree-bound and --iterations of selftest (both at once: 20-32 s over q)
SELFTEST_MAX_DEGREE_BOUND = 8
SELFTEST_MAX_ITERATIONS = 200


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on flag errors; flag errors are parse errors here
    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _ascii_int(text):
    """A run of ASCII digits as an int; int() alone also reads signs, spaces, _ and other scripts."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _positive_int(text):
    value = _ascii_int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed(text):
    value = _ascii_int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return value


def make_field_from_flag(flag, max_level=64):
    """Build a field from its flag syntax: "q" or "fp:<odd prime>", p in ASCII digits."""
    if flag == "q":
        return make_field(FieldSpec.rationals())
    if flag.startswith("fp:"):
        try:
            p = _ascii_int(flag[3:])
        except ValueError:
            raise BadSpec(f"bad field flag {flag!r}: expected fp:<prime>") from None
        return make_field(FieldSpec.prime_closure(p, max_level))
    raise BadSpec(f"bad field flag {flag!r}: expected q or fp:<prime>")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--field",
        default=None,
        metavar="q|fp:<p>",
        help="coefficient field (default fp:7 for classify, random-involution "
        "and selftest, q otherwise)",
    )
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    common.add_argument(
        "--iterations",
        type=_positive_int,
        default=20,
        metavar="N",
        help="rounds per selftest suite (default 20, at most 200)",
    )
    common.add_argument(
        "--degree-bound",
        type=_positive_int,
        default=3,
        metavar="N",
        help="degree bound for random Laurent parts (default 3, at most 32; 8 for selftest)",
    )
    common.add_argument(
        "--max-level",
        type=_positive_int,
        default=64,
        metavar="N",
        help="largest extension degree the field may build (default 64); it "
        "bounds root finding, which classify does not need",
    )

    parser = _ArgumentParser(
        prog="dihedral",
        description="exact computations in the group algebra of the infinite "
        "dihedral group",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    def cmd(name, help_text, expr=True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if expr:
            p.add_argument(
                "expr",
                help="element expression in a, b, s, t; one that starts with '-' "
                "must follow '--', after every flag",
            )
        return p

    cmd("normalize", "evaluate an expression and print its canonical form")
    cmd("is-involution", "exit 0 when the element squares to 1, 2 otherwise")
    cmd("is-idempotent", "exit 0 when the element squares to itself, 2 otherwise")
    cmd("classify", "classify an involution and print the verified transcript")
    conj = cmd("conjugate", "conjugate an element: prints v^-1 u v")
    conj.add_argument("--by", required=True, metavar="EXPR", help="the conjugating unit v")
    cmd("char-table", "values of the four sign characters on the element")
    cmd("random-involution", "generate a seeded random involution", expr=False)
    cmd("selftest", "run the randomized invariant suites", expr=False)
    return parser


def _resolve_field(args):
    flag = args.field
    if flag is None:
        flag = "fp:7" if args.command in FP_DEFAULT_COMMANDS else "q"
    return make_field_from_flag(flag, args.max_level)


def _emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_normalize(args, field):
    u = evaluate(args.expr, field)
    _emit(args, [str(u)], u.to_json())
    return EXIT_OK


def _cmd_predicate(args, field):
    u = evaluate(args.expr, field)
    if args.command == "is-involution":
        verdict = u.is_involution()
        key = "involution"
    else:
        verdict = u.is_idempotent()
        key = "idempotent"
    _emit(args, ["true" if verdict else "false"], {key: verdict})
    return EXIT_OK if verdict else EXIT_DOMAIN


def _cmd_classify(args, field):
    u = evaluate(args.expr, field)
    result = classify(u)
    record = transcript(u, result)
    checks = record["checks"]
    lines = [
        f"label: {result.label}",
        f"witness: {result.witness}",
        "checks: " + " ".join(
            f"{name}={'pass' if ok else 'FAIL'}" for name, ok in checks.items()
        ),
    ]
    _emit(args, lines, record)
    if not all(checks.values()):
        raise InternalInconsistency("witness failed verification", record)
    return EXIT_OK


def _cmd_conjugate(args, field):
    u = evaluate(args.expr, field)
    v = evaluate(args.by, field)
    w = conjugate(v, u)
    _emit(args, [str(w)], w.to_json())
    return EXIT_OK


def _cmd_char_table(args, field):
    u = evaluate(args.expr, field)
    rows = [
        {"alpha": ch.alpha, "beta": ch.beta, "value": str(ch.of(u))}
        for ch in Character.all_four()
    ]
    lines = [
        f"chi({row['alpha']:+d},{row['beta']:+d}) = {row['value']}" for row in rows
    ]
    _emit(args, lines, {"table": rows})
    return EXIT_OK


def _check_budget(flag, value, bound):
    if value > bound:
        raise BudgetExceeded(f"--{flag} {value} exceeds {bound}")


def _cmd_random_involution(args, field):
    _check_budget("degree-bound", args.degree_bound, MAX_DEGREE_BOUND)
    rng = random.Random(args.seed)
    u, label = random_involution(field, rng, args.degree_bound)
    _emit(
        args,
        [str(u), f"label: {label}"],
        {"element": u.to_json(), "label": str(label)},
    )
    return EXIT_OK


def _cmd_selftest(args, field):
    _check_budget("degree-bound", args.degree_bound, SELFTEST_MAX_DEGREE_BOUND)
    _check_budget("iterations", args.iterations, SELFTEST_MAX_ITERATIONS)
    # imported here so that no other command compiles or loads selfcheck
    from .selfcheck import run_selftest

    reports = run_selftest(field, args.seed, args.iterations, args.degree_bound)
    lines = []
    for rep in reports:
        status = "pass" if rep.passed() else "FAIL"
        lines.append(
            f"suite {rep.name}: {status} "
            f"({rep.checks} checks, {rep.skipped} skipped)"
        )
        lines.extend(f"  failed: {msg}" for msg in rep.failures[:5])
    ok = all(rep.passed() for rep in reports)
    lines.append(f"selftest: {'PASS' if ok else 'FAIL'} over {field.describe()}")
    _emit(
        args,
        lines,
        {
            "field": field.describe(),
            "passed": ok,
            "suites": [rep.to_json() for rep in reports],
        },
    )
    return EXIT_OK if ok else EXIT_INTERNAL


HANDLERS = {
    "normalize": _cmd_normalize,
    "is-involution": _cmd_predicate,
    "is-idempotent": _cmd_predicate,
    "classify": _cmd_classify,
    "conjugate": _cmd_conjugate,
    "char-table": _cmd_char_table,
    "random-involution": _cmd_random_involution,
    "selftest": _cmd_selftest,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        field = _resolve_field(args)
        return HANDLERS[args.command](args, field)
    except ParseError as exc:
        print(f"dihedral: parse error at offset {exc.position}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (BadSpec, BadLevel) as exc:
        print(f"dihedral: bad input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotInvolution, NotIdempotent, NotInvertible) as exc:
        print(f"dihedral: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (NotSplitOverField, LevelOverflow, DivisionByZero, BudgetExceeded) as exc:
        print(f"dihedral: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FIELD
    except InternalInconsistency as exc:
        print(f"dihedral: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except DihedralError as exc:
        # anything else from the library that reaches the CLI is a bug
        print(f"dihedral: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
