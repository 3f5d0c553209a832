"""The numpy kernel against plain-integer references."""

import random

import numpy as np
import pytest

from dihedral._kernel import Kernel
from dihedral.fields import FieldSpec, make_field

BIG_P = 1048573  # the largest prime the tower accepts (p < 2^20)


def ref_mul_mod(a, b, modulus, p):
    """coords(a * b mod modulus) with Python ints; modulus is monic, low first."""
    d = len(modulus) - 1
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        prod[k] = 0
        for i in range(d):
            prod[k - d + i] -= c * modulus[i]
    return [c % p for c in prod[:d]]


@pytest.mark.parametrize("d", [8, 9, 12])
def test_e_mul_exact_at_largest_prime(d):
    rng = random.Random(d)
    p = BIG_P
    # high coefficients make y^(d+i) mod m large, the worst case for the fold
    moduli = [[p - 1] * d + [1], [rng.randrange(p) for _ in range(d)] + [1]]
    for modulus in moduli:
        kern = Kernel(p, modulus)
        vecs = [[p - 1] * d] + [[rng.randrange(p) for _ in range(d)] for _ in range(20)]
        for a in vecs:
            for b in vecs[:3]:
                got = kern.e_mul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
                assert got.tolist() == ref_mul_mod(a, b, modulus, p)


def test_p_mul_matches_e_mul_at_largest_prime():
    p, d = BIG_P, 12
    kern = Kernel(p, [p - 1] * d + [1])
    full = np.full((3, d), p - 1, dtype=np.int64)
    prod = kern.p_mul(full, full)
    row = kern.e_mul(full[0], full[0])
    for k, count in enumerate((1, 2, 3, 2, 1)):
        assert prod[k].tolist() == (row * count % p).tolist()


@pytest.mark.parametrize("p", [3, 7, 101])
def test_e_inv_is_inverse(p):
    field = make_field(FieldSpec.prime_closure(p, 16))
    rng = random.Random(p)
    for level in (2, 3, 5, 8, 12, 16):
        kern = field._kernel(level)
        for _ in range(20):
            a = np.array([rng.randrange(p) for _ in range(level)], dtype=np.int64)
            if not a.any():
                continue
            assert kern.e_mul(a, kern.e_inv(a)).tolist() == kern.e_one.tolist()
        with pytest.raises(ZeroDivisionError):
            kern.e_inv(kern.e_zero)


@pytest.mark.parametrize("level", [1, 2, 6])
def test_p_divmod_identity(level):
    p = 7
    field = make_field(FieldSpec.prime_closure(p))
    kern = field._kernel(level)
    rng = random.Random(level)

    def rand_poly(n, monic=False):
        rows = [[rng.randrange(p) for _ in range(level)] for _ in range(n)]
        rows.append(kern.e_one.tolist() if monic else [rng.randrange(1, p)] + [0] * (level - 1))
        return kern.p_from_rows(rows)

    for _ in range(30):
        for monic in (True, False):
            A = rand_poly(rng.randrange(0, 9))
            B = rand_poly(rng.randrange(0, 5), monic)
            Q, R = kern.p_divmod(A, B)
            assert len(R) < len(B)
            assert np.array_equal(kern.p_add(kern.p_mul(Q, B), R), kern.trim(A))
