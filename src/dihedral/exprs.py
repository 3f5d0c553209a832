"""A small expression language for entering algebra elements.

Grammar, whitespace insignificant:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor | factor)*   (implicit product)
    factor := ('-')? atom ('^' signedInt)?
    atom   := generator | scalar | '(' expr ')'
    scalar := int ('/' nonzeroInt)?

Generators are a, b, s, t with a = s and b = s*t; adjacent letters multiply,
so "st" reads as s*t.  A '/' outside a scalar literal must be followed by an
integer and multiplies by its inverse in the coefficient field, which is how
"(1-a)/2" builds an idempotent.  Integers are ASCII digits 0-9 only, at most
as many as Python converts to an int (4300 by default).  At most
MAX_NESTING open parentheses and unary minus signs, counted together, may
enclose any point of the input, so parsing and evaluation stay well inside
Python's recursion limit.  Parse errors carry the offset at which the input
stopped making sense.

Evaluation does closed-form work where it can: t^k is built as the monomial
t^k whatever k is, with no inverse and no powering; a sum collects the terms
of all its parts into one Laurent polynomial per half; and a product with a
one-term factor is a shift and a scale (LaurentPoly.__mul__).
"""

from dataclasses import dataclass
from functools import reduce
from operator import mul

from .algebra import AlgebraElement
from .errors import NonUnitPower, NotInvertible, ParseError
from .laurent import LaurentPoly


# ---- syntax tree ----


@dataclass(frozen=True)
class ScalarLiteral:
    num: int
    den: int = 1


@dataclass(frozen=True)
class Generator:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Sum:
    parts: tuple


@dataclass(frozen=True)
class Product:
    parts: tuple


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


GENERATORS = ("a", "b", "s", "t")

MAX_NESTING = 100


# ---- tokenizer ----


_SYMBOLS = "+-*/^()"
_DIGITS = "0123456789"


def _tokenize(src):
    toks = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            try:
                value = int(src[i:j])
            except ValueError:  # past Python's limit on digits converted
                raise ParseError(f"integer literal of {j - i} digits is too long", i) from None
            toks.append(("INT", value, i))
            i = j
            continue
        if ch.isalpha():
            if ch not in GENERATORS:
                raise ParseError(
                    f"unknown generator {ch!r}", i, expected=GENERATORS
                )
            toks.append(("GEN", ch, i))
            i += 1
            continue
        if ch in _SYMBOLS:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("END", None, n))
    return toks


# ---- parser ----


class _Parser:
    def __init__(self, src):
        self.toks = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def nest(self, tok):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", tok[2])

    def expect(self, kind, what):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2], expected=(kind,))
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError("trailing input", tok[2])
        return node

    def expr(self):
        parts = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            parts.append(Neg(rhs) if op == "-" else rhs)
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def term(self):
        parts = [self.factor()]
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.advance()
                parts.append(self.factor())
            elif kind == "/":
                self.advance()
                den = self._nonzero_int()
                parts.append(ScalarLiteral(1, den))
            elif kind in ("INT", "GEN", "("):
                parts.append(self.factor())
            else:
                break
        return parts[0] if len(parts) == 1 else Product(tuple(parts))

    def factor(self):
        if self.peek()[0] == "-":
            self.nest(self.advance())
            node = Neg(self.factor())
            self.depth -= 1
            return node
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            node = Power(node, self._signed_int())
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "INT":
            self.advance()
            if self.peek()[0] == "/" and self.toks[self.i + 1][0] == "INT":
                self.advance()
                den = self._nonzero_int()
                return ScalarLiteral(tok[1], den)
            return ScalarLiteral(tok[1])
        if tok[0] == "GEN":
            self.advance()
            return Generator(tok[1])
        if tok[0] == "(":
            self.nest(self.advance())
            node = self.expr()
            self.expect(")", "a closing parenthesis")
            self.depth -= 1
            return node
        raise ParseError(
            "expected a value", tok[2], expected=("INT", "GEN", "(")
        )

    def _signed_int(self):
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.expect("INT", "an integer exponent")
        return sign * tok[1]

    def _nonzero_int(self):
        tok = self.expect("INT", "a nonzero integer")
        if tok[1] == 0:
            raise ParseError("division by the integer zero", tok[2])
        return tok[1]


def parse_expression(src):
    """Parse source text into a syntax tree; ParseError carries the offset."""
    return _Parser(src).parse()


# ---- evaluation ----


def eval_expression(node, field):
    """Fold a syntax tree into an AlgebraElement over the given field.

    Integer scalars map through the characteristic; '/' multiplies by a
    field inverse and raises DivisionByZero when the denominator vanishes
    there.  t^k is the monomial itself; other powers go through algebra
    powering, and a negative power of a non-unit raises NonUnitPower.
    """
    if isinstance(node, ScalarLiteral):
        c = field.from_int(node.num)
        if node.den != 1:
            c = c * field.from_int(node.den).inv()
        return AlgebraElement.from_scalar(c)
    if isinstance(node, Generator) and node.name in GENERATORS:
        return getattr(AlgebraElement, node.name)(field)
    if isinstance(node, Neg):
        return -eval_expression(node.arg, field)
    if isinstance(node, Sum):
        parts = [eval_expression(part, field) for part in node.parts]
        return AlgebraElement(
            LaurentPoly.from_terms(field, [term for x in parts for term in x.f.terms()]),
            LaurentPoly.from_terms(field, [term for x in parts for term in x.g.terms()]),
        )
    if isinstance(node, Product):
        return reduce(mul, (eval_expression(part, field) for part in node.parts))
    if isinstance(node, Power):
        if node.base == Generator("t"):
            return AlgebraElement(LaurentPoly.t_power(field, node.exponent), LaurentPoly.zero(field))
        base = eval_expression(node.base, field)
        try:
            return base ** node.exponent
        except NotInvertible as exc:
            raise NonUnitPower(
                f"negative power of a non-unit: {base}"
            ) from exc
    raise TypeError(f"not a syntax node: {node!r}")


def evaluate(src, field):
    """parse_expression followed by eval_expression."""
    return eval_expression(parse_expression(src), field)
