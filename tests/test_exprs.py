"""Expression grammar: parsing, evaluation, and the print round trip."""

import random
from functools import reduce
from operator import add, mul

import pytest

from dihedral.algebra import AlgebraElement, random_element, to_idempotent
from dihedral.errors import DivisionByZero, NonUnitPower, NotInvertible, ParseError
from dihedral.exprs import (
    GENERATORS,
    Generator,
    Neg,
    Power,
    Product,
    ScalarLiteral,
    Sum,
    eval_expression,
    evaluate,
    parse_expression,
)


def test_canonical_idempotent_expression(Q):
    ast = parse_expression("(1-a)/2")
    assert isinstance(ast, Product)
    e = eval_expression(ast, Q)
    assert e.is_idempotent()
    assert e == to_idempotent(-AlgebraElement.a(Q))


def test_negative_power_ast():
    ast = parse_expression("s*t^-2 + 3")
    assert isinstance(ast, Sum)
    left = ast.parts[0]
    assert isinstance(left, Product)
    assert left.parts[1] == Power(Generator("t"), -2)
    assert ast.parts[1] == ScalarLiteral(3)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("a*")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_expression("x + 1")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_expression("(1+s")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_expression("1 + + 2")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_expression("t^b")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_expression("")
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse_expression("1/0")
    with pytest.raises(ParseError):
        parse_expression("3/a")


@pytest.mark.parametrize("src, position", [("t^\u00b2", 2), ("\u0663*t", 0), ("\U0001d7d9", 0)])
def test_only_ascii_digits(src, position):
    # superscript two, Arabic-Indic three, double-struck one: str.isdigit accepts them all
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_expression(src)
    assert err.value.position == position


@pytest.mark.parametrize("src, position", [("9" * 5000, 0), ("t^" + "9" * 5000, 2), ("s + 1/" + "7" * 5000, 6)])
def test_over_long_literal_is_a_parse_error(src, position):
    # int() refuses more than 4300 digits by default
    with pytest.raises(ParseError, match="5000 digits is too long") as err:
        parse_expression(src)
    assert err.value.position == position


def test_nesting_bound(F7):
    # open parentheses and unary minus signs count together, up to MAX_NESTING = 100
    t = AlgebraElement.t(F7)
    for src in ("(" * 100 + "t" + ")" * 100, "-" * 100 + "t", "(-" * 50 + "t" + ")" * 50):
        assert evaluate(src, F7) == t
    # siblings do not add up: depth counts only what encloses a point
    assert len(parse_expression("(-t)" * 150).parts) == 150
    past = [
        "(" * 101 + "t" + ")" * 101,
        "-" * 101 + "t",
        "(-" * 50 + "(t)" + ")" * 50,
        "-(" * 50 + "-t" + ")" * 50,
        # the depths at which evaluation overflowed the stack without the bound
        "(" * 247 + "t" + ")" * 247,
        "-" * 985 + "t",
        "(-" * 198 + "t" + ")" * 198,
    ]
    for src in past:
        with pytest.raises(ParseError, match="nesting deeper than 100") as err:
            parse_expression(src)
        assert err.value.position == 100


def test_any_text_parses_or_reports_an_offset():
    """Every string over the grammar's characters, plus three it rejects, either
    parses or raises ParseError at an offset inside the string (or at its end).

    Only parsing is tried: evaluation has no cost budget yet (ROADMAP item 6),
    so a short input such as (1+t)^99999 could run for minutes.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=1000, deadline=None, database=None)
    @hypothesis.given(st.text(alphabet="abst0123456789+-*/^() \u00b2\u0663\u00e9"))
    def check(src):
        try:
            parse_expression(src)
        except ParseError as exc:
            assert 0 <= exc.position <= len(src)

    check()


def test_trailing_input_rejected():
    with pytest.raises(ParseError) as err:
        parse_expression("s t 2 )")
    assert err.value.position == 6


def test_implicit_product(Q):
    t = AlgebraElement.t(Q)
    s = AlgebraElement.s(Q)
    assert evaluate("st", Q) == s * t
    assert evaluate("2t", Q) == t.scale(Q.from_int(2))
    assert evaluate("s t^2", Q) == s * t * t
    assert evaluate("(1+s)(1-s)", Q).is_zero
    assert evaluate("2(1+t)", Q) == (AlgebraElement.one(Q) + t).scale(Q.from_int(2))


def test_precedence_and_signs(Q):
    t = AlgebraElement.t(Q)
    one = AlgebraElement.one(Q)
    assert evaluate("t^-1 * t", Q) == one
    assert evaluate("-t^2", Q) == -(t * t)
    assert evaluate("1 - 2 - 3", Q) == AlgebraElement.from_int(Q, -4)
    assert evaluate("-a^2", Q) == -one
    assert evaluate("(-a)^2", Q) == one
    assert evaluate("3/4", Q) == AlgebraElement.from_scalar(
        Q.from_int(3) / Q.from_int(4)
    )
    assert evaluate("1/2 * t", Q) == t.scale(Q.from_int(2).inv())


def test_division_semantics(Q, F7):
    # '/' multiplies by the inverse of the integer in the active field
    assert evaluate("(1-a)/2", F7) == to_idempotent(-AlgebraElement.a(F7))
    with pytest.raises(DivisionByZero):
        evaluate("(1-a)/7", F7)
    assert evaluate("t/3", Q) == AlgebraElement.t(Q).scale(Q.from_int(3).inv())


def test_generator_b(Q):
    assert evaluate("b", Q) == AlgebraElement.s(Q) * AlgebraElement.t(Q)
    assert evaluate("a*b", Q) == AlgebraElement.t(Q)
    assert evaluate("b*b", Q) == AlgebraElement.one(Q)


def test_negative_power_of_non_unit(Q):
    with pytest.raises(NonUnitPower):
        evaluate("(1+s)^-1", Q)
    # positive powers of non-units are fine
    assert evaluate("(1+s)^2", Q) == evaluate("2+2s", Q)


def test_power_of_unit_subexpressions(Q):
    t = AlgebraElement.t(Q)
    assert evaluate("(s*t)^-1", Q) == AlgebraElement.s(Q) * t
    assert evaluate("(2t)^-2", Q) == (t ** -2).scale(Q.from_int(4).inv())
    assert evaluate("t^0", Q) == AlgebraElement.one(Q)


def test_print_parse_round_trip(F7, Q):
    rng = random.Random(11)
    for i in range(40):
        field = F7 if i % 2 else Q
        u = random_element(field, rng, 3)
        assert evaluate(str(u), field) == u, str(u)


def test_whitespace_insensitive(Q):
    a = evaluate(" ( 1 - a ) / 2 ", Q)
    b = evaluate("(1-a)/2", Q)
    assert a == b


def render(node):
    """Source text for a syntax tree, every compound part in parentheses."""
    if isinstance(node, ScalarLiteral):
        return str(node.num) if node.den == 1 else f"({node.num}/{node.den})"
    if isinstance(node, Generator):
        return node.name
    if isinstance(node, Neg):
        return f"-({render(node.arg)})"
    if isinstance(node, Sum):
        return "(" + " + ".join(map(render, node.parts)) + ")"
    if isinstance(node, Product):
        return "(" + "*".join(map(render, node.parts)) + ")"
    return f"({render(node.base)})^{node.exponent}"


def fold(node, field):
    """The value of a syntax tree by plain AlgebraElement arithmetic."""
    s, t = AlgebraElement.s(field), AlgebraElement.t(field)
    if isinstance(node, ScalarLiteral):
        return AlgebraElement.from_scalar(field.from_int(node.num) / field.from_int(node.den))
    if isinstance(node, Generator):
        return {"a": s, "b": s * t, "s": s, "t": t}[node.name]
    if isinstance(node, Neg):
        return -fold(node.arg, field)
    if isinstance(node, Sum):
        return reduce(add, (fold(part, field) for part in node.parts))
    if isinstance(node, Product):
        return reduce(mul, (fold(part, field) for part in node.parts))
    base = fold(node.base, field)
    try:
        return base ** node.exponent
    except NotInvertible as exc:
        raise NonUnitPower(str(exc)) from exc


def outcome(compute):
    try:
        x = compute()
    except (DivisionByZero, NonUnitPower) as exc:
        return type(exc)
    return x, str(x)


def test_evaluation_is_the_algebra_fold(F7, Q):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    leaves = st.one_of(
        st.builds(ScalarLiteral, st.integers(0, 20), st.integers(1, 20)),
        st.sampled_from(GENERATORS).map(Generator),
    )

    def trees(depth):
        if depth == 0:
            return leaves
        sub = trees(depth - 1)
        parts = st.lists(sub, min_size=2, max_size=3).map(tuple)
        return st.one_of(
            leaves,
            sub.map(Neg),
            parts.map(Sum),
            parts.map(Product),
            st.builds(Power, sub, st.integers(-12, 12)),
        )

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @hypothesis.given(trees(3))
    def check(tree):
        src = render(tree)
        assert parse_expression(src) == tree
        for field in (F7, Q):
            assert outcome(lambda: evaluate(src, field)) == outcome(lambda: fold(tree, field)), src

    check()


def test_monomial_evaluation_takes_constant_work(F7, Q, element_ops):
    for field in (F7, Q):
        for template in ("t^{}", "3*t^{}", "s*(3*t^{})"):
            seen = set()
            for k in (1, -1, 1000, -1000, 10**6, -(10**6)):
                element_ops.update(mul=0, inv=0)
                evaluate(template.format(k), field)
                seen.add((element_ops["mul"], element_ops["inv"]))
            assert len(seen) == 1, (field.describe(), template, seen)
            assert seen.pop()[1] == 0
