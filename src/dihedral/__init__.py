"""Exact arithmetic in the group algebra of the infinite dihedral group.

The algebra is K<s, t : s^2 = 1, t*s = s*t^-1> over a coefficient field K of
characteristic other than 2 (a lazily built algebraic tower over F_p, or the
rationals).  The package factors Laurent polynomials over K, classifies
involutions and idempotents of the algebra into their six conjugacy classes,
and produces an explicit conjugating unit as a checkable witness.
"""

from .errors import (
    BadLevel,
    BadSpec,
    BudgetExceeded,
    CharacteristicTwo,
    DihedralError,
    DivisionByZero,
    InternalInconsistency,
    InverseOutsideR,
    LevelOverflow,
    NonUnitPower,
    NotAUnit,
    NotIdempotent,
    NotInvertible,
    NotInvolution,
    NotSplitOverField,
    ParseError,
)
from .fields import (
    FieldSpec,
    PrimeClosureField,
    RationalField,
    RootMultiset,
    make_field,
)
from .laurent import LaurentFactorization, LaurentPoly, UnitPart
from .algebra import (
    AlgebraElement,
    CanonicalInvolution,
    Character,
    check_idempotent,
    check_involution,
    conjugate,
    invert,
    random_element,
    random_involution,
    random_laurent,
    random_unit,
    to_idempotent,
    to_involution,
    unipotent_unit,
)
from .classification import (
    ClassificationDetails,
    ClassificationResult,
    build_witness,
    classify,
    classify_idempotent,
    enumerate_assignments,
    extract_eps_theta,
    gcd_split,
    match_subset,
    transcript,
    verify_witness,
)
from .exprs import eval_expression, evaluate, parse_expression

# selfcheck loads on first use (PEP 562), so that importing the package or
# its CLI does not compile it
_LAZY = ("run_selftest", "selfcheck")

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not `from . import selfcheck`, which would look the name up here again
    from importlib import import_module

    selfcheck = import_module(".selfcheck", __name__)
    return selfcheck if name == "selfcheck" else selfcheck.run_selftest
