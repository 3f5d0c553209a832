"""Errors shared across the package.

Everything raised on purpose derives from DihedralError so callers (and the
CLI) can tell domain failures from genuine bugs.  InternalInconsistency is the
one exception that should never fire on well-formed inputs; it carries the
offending intermediate data to make reports actionable.
"""


class DihedralError(Exception):
    pass


class BadSpec(DihedralError):
    """Field description is malformed (nonprime p, bad bounds, ...)."""


class CharacteristicTwo(BadSpec):
    """The construction needs 2 to be invertible; characteristic 2 refused."""


class DivisionByZero(DihedralError):
    """Exact division by a zero element, polynomial, or scalar literal."""


class BadLevel(DihedralError):
    """Tower level that is not a positive divisor relation."""


class LevelOverflow(DihedralError):
    """Requested extension degree exceeds the configured bound."""


class NotSplitOverField(DihedralError):
    """A polynomial does not split over the active coefficient field."""


class BudgetExceeded(DihedralError):
    """An input or result is larger than the package can handle in bounded cost."""


class NotAUnit(DihedralError):
    """Laurent polynomial with more than one term cannot be a unit."""


class NotInvertible(DihedralError):
    """Group-algebra element has no inverse (its determinant is not a unit)."""


class InverseOutsideR(NotInvertible):
    """Determinant is a unit but the matrix inverse would leave the algebra.

    Unreachable for honest inputs (the determinant of an embedded element is
    star-symmetric, so its unit part is a constant); kept as a guard.
    """


class NonUnitPower(NotInvertible):
    """Negative power of a non-unit in an expression."""


class NotInvolution(DihedralError):
    pass


class NotIdempotent(DihedralError):
    pass


class ParseError(DihedralError):
    """Expression syntax error; carries offset and expectation."""

    def __init__(self, message, position, expected=None):
        super().__init__(message)
        self.position = position
        self.expected = expected


class InternalInconsistency(DihedralError):
    """A verified invariant failed mid-pipeline; carries the context."""

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context
