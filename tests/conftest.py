import pytest

from dihedral.fields import FieldSpec, RationalElement, TowerElement, make_field
from dihedral.laurent import LaurentPoly


def poly_coeffs(poly):
    """Low-first coefficients of a polynomial LaurentPoly, restoring the t^k it drops."""
    return (poly.field.zero,) * poly.valuation + poly.coeffs


def linear_product(field, roots):
    """prod (t - r) over roots, as a LaurentPoly."""
    out = LaurentPoly.one(field)
    for r in roots:
        out = out * LaurentPoly(field, 0, (-r, field.one))
    return out


# exponents around the powers of two, where binary powering changes shape
POWERS = (0, 1, 2, 3, 7, 8, 9, 16, 17)


def repeated_product(x, n, one):
    """x * x * ... * x (n factors), one for n = 0: the reference for x ** n."""
    out = one
    for _ in range(n):
        out = out * x
    return out


@pytest.fixture(scope="session")
def F3():
    return make_field(FieldSpec.prime_closure(3))


@pytest.fixture(scope="session")
def F5():
    return make_field(FieldSpec.prime_closure(5))


@pytest.fixture(scope="session")
def F7():
    return make_field(FieldSpec.prime_closure(7))


@pytest.fixture(scope="session")
def F101():
    return make_field(FieldSpec.prime_closure(101))


@pytest.fixture(scope="session")
def Q():
    return make_field(FieldSpec.rationals())


@pytest.fixture
def element_ops(monkeypatch):
    """Counts of coefficient multiplications, additions and inversions, for both fields' elements."""
    counts = {"mul": 0, "add": 0, "inv": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for cls in (TowerElement, RationalElement):
        monkeypatch.setattr(cls, "__mul__", counted("mul", cls.__mul__))
        monkeypatch.setattr(cls, "__add__", counted("add", cls.__add__))
        monkeypatch.setattr(cls, "inv", counted("inv", cls.inv))
    return counts
