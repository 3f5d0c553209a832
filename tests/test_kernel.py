"""The numpy kernel against plain-integer references."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dihedral
from dihedral._kernel import Kernel
from dihedral.errors import InternalInconsistency
from dihedral.fields import FieldSpec, _poly_divmod, make_field

from conftest import POWERS

BIG_P = 1048573  # the largest prime the tower accepts (p < 2^20)
FOLD_PRIMES = (7, 1021, 1031, BIG_P)  # 1021 and 1031 sit either side of the fold's 2^10 guard


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


@pytest.mark.parametrize("p", [7, BIG_P])
def test_power_matrix_and_frob_matrix(p):
    field = make_field(FieldSpec.prime_closure(p, 6))
    rng = random.Random(p)
    for level in range(2, 7):
        kern = field._kernel(level)
        r = np.array([rng.randrange(p) for _ in range(level)], dtype=np.int64)
        columns = kern.power_matrix(r, level + 2).T
        want = kern.e_one
        for j, col in enumerate(columns):
            assert col.tolist() == want.tolist(), (level, j)
            want = kern.e_mul(want, r)
        for _ in range(5):
            v = np.array([rng.randrange(p) for _ in range(level)], dtype=np.int64)
            assert ((kern.frob_matrix() @ v) % p).tolist() == kern.e_pow(v, p).tolist(), level


@pytest.mark.parametrize("p", [3, 7, 101])
def test_e_inv_is_inverse(p):
    field = make_field(FieldSpec.prime_closure(p, 16))
    rng = random.Random(p)
    for level in (1, 2, 3, 5, 8, 12, 16):
        kern = field._kernel(level)
        for _ in range(20):
            a = np.array([rng.randrange(p) for _ in range(level)], dtype=np.int64)
            if not a.any():
                continue
            assert kern.e_mul(a, kern.e_inv(a)).tolist() == kern.e_one.tolist()
        with pytest.raises(ZeroDivisionError):
            kern.e_inv(np.zeros(level, dtype=np.int64))


@pytest.mark.parametrize("level", [1, 2, 5])
def test_e_pow_is_the_repeated_product(level):
    p = 7
    kern = make_field(FieldSpec.prime_closure(p))._kernel(level)
    rng = random.Random(level)
    a = np.array([rng.randrange(1, p) for _ in range(level)], dtype=np.int64)
    want = kern.e_one
    for n in range(max(POWERS) + 1):
        if n in POWERS:
            assert kern.e_pow(a, n).tolist() == want.tolist(), n
        want = kern.e_mul(want, a)
    assert kern.e_mul(kern.e_pow(kern.e_inv(a), 3), kern.e_pow(a, 3)).tolist() == kern.e_one.tolist()


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
            assert np.array_equal(kern.p_sub(kern.trim(A), kern.p_mul(Q, B)), R)


@pytest.mark.parametrize("p", [7, BIG_P])
def test_p_monic_scales_by_the_inverse_lead(p):
    # entries of p - 1 push the scaling sums towards their d * p^2 bound
    field = make_field(FieldSpec.prime_closure(p, 4))
    rng = random.Random(p)
    for level in (1, 2, 3, 4):
        kern = field._kernel(level)
        for trial in range(10):
            rows = [[p - 1] * level] + [[rng.randrange(p) for _ in range(level)] for _ in range(3)]
            lead = [rng.randrange(1, p) for _ in range(level)]
            rows.append([p - 1] * level if trial == 0 else lead)
            A = kern.p_from_rows(rows)
            got = kern.p_monic(A)
            assert got[-1].tolist() == kern.e_one.tolist(), (level, trial)
            want = kern.p_mul(A, kern.e_inv(A[-1]).reshape(1, level))
            assert np.array_equal(got, want), (level, trial)


def test_powering_builds_one_reduction_matrix_per_modulus(monkeypatch):
    # the distinct-degree loop powers modulo one irreducible candidate (d // 2 times)
    d = 6
    coeffs = make_field(FieldSpec.prime_closure(7))._kernel(d).modulus.tolist()
    field = make_field(FieldSpec.prime_closure(7))
    built = []
    build = Kernel.reduction_matrix

    def counted(kern, M):
        built.append(len(M) - 1)
        return build(kern, M)

    monkeypatch.setattr(Kernel, "reduction_matrix", counted)
    assert field._kernel(1).is_irreducible(coeffs)
    assert built == [d]


@pytest.mark.parametrize("p, top", [(3, 4), (5, 3), (7, 3)])
def test_is_irreducible_matches_sympy_on_every_small_candidate(p, top):
    # every monic candidate of degree 1..top, so also the squares of
    # irreducibles, such as (x^2+1)^2 over F_3, and every candidate after the
    # first irreducible, which the modulus scan never tests
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    kern = Kernel(p, [0, 1])
    for d in range(1, top + 1):
        for k in range(p**d):
            cand = [k // p**i % p for i in range(d)] + [1]
            want = sympy.Poly(cand[::-1], x, modulus=p).is_irreducible
            assert kern.is_irreducible(cand) == want, (p, cand)


@pytest.mark.parametrize("level", [1, 2])
def test_powering_alternating_moduli_matches_fresh_kernels(level):
    p = 7
    modulus = make_field(FieldSpec.prime_closure(p))._kernel(level).modulus.tolist()
    kern = Kernel(p, modulus)
    rng = random.Random(level)

    def rand_poly(n):
        rows = [[rng.randrange(p) for _ in range(level)] for _ in range(n)]
        return kern.p_from_rows(rows + [kern.e_one.tolist()])

    moduli = [rand_poly(4), rand_poly(5)]
    for i, which in enumerate((0, 1, 0, 0, 1, 1, 0, 1)):
        A, e, M = rand_poly(rng.randrange(1, 8)), rng.randrange(1, 400), moduli[which]
        got = kern.p_powmod(A, e, M)
        assert np.array_equal(got, Kernel(p, modulus).p_powmod(A, e, M)), i


def ref_p_mul(A, B, modulus, p):
    """Rows of A * B over F_p[y]/(modulus) with Python ints, trailing zero rows trimmed."""
    d = len(modulus) - 1
    out = [[0] * d for _ in range(len(A) + len(B) - 1)]
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            row = ref_mul_mod(a, b, modulus, p)
            out[i + j] = [(x + y) % p for x, y in zip(out[i + j], row)]
    while out and not any(out[-1]):
        out.pop()
    return out


@pytest.mark.parametrize("p", FOLD_PRIMES)
@pytest.mark.parametrize("d", [1, 2, 8, 9])
def test_e_mul_and_p_mul_match_plain_ints(p, d):
    rng = random.Random(p * 100 + d)
    # residues of p - 1 in the modulus and the operands push every fold to its bound
    for modulus in ([p - 1] * d + [1], [rng.randrange(p) for _ in range(d)] + [1]):
        kern = Kernel(p, modulus)
        vecs = [[p - 1] * d] + [[rng.randrange(p) for _ in range(d)] for _ in range(6)]
        for a in vecs:
            for b in vecs[:3]:
                got = kern.e_mul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
                assert got.tolist() == ref_mul_mod(a, b, modulus, p)
        for n, m in ((1, 1), (3, 4), (5, 2)):
            A = [vecs[0]] + [rng.choice(vecs) for _ in range(n - 1)]
            B = [rng.choice(vecs) for _ in range(m - 1)] + [vecs[0]]
            got = kern.p_mul(np.array(A, dtype=np.int64), np.array(B, dtype=np.int64))
            assert got.tolist() == ref_p_mul(A, B, modulus, p), (n, m)


@pytest.mark.parametrize("p", FOLD_PRIMES)
def test_tables_match_plain_ints(p):
    # red and mul_rows at the moduli a field picks, levels 1..8
    field = make_field(FieldSpec.prime_closure(p, 8))
    rng = random.Random(p)
    for d in range(1, 9):
        kern = field._kernel(d)
        modulus = kern.modulus.tolist()
        y = [[int(i == j) for i in range(d)] for j in range(d)]  # y[j] = coords(y^j)
        assert kern.red.shape == (d - 1, d), d
        for i in range(d - 1):  # y^(d+i) = y^(d-1) * y^(i+1)
            assert kern.red[i].tolist() == ref_mul_mod(y[d - 1], y[i + 1], modulus, p), (d, i)
        for _ in range(3):
            q = [rng.randrange(p) for _ in range(d)]
            rows = kern.mul_rows(np.array(q, dtype=np.int64))
            assert rows.tolist() == [ref_mul_mod(q, y[j], modulus, p) for j in range(d)], (d, q)


@pytest.mark.parametrize("p", FOLD_PRIMES)
@pytest.mark.parametrize("level", [1, 2])
def test_p_powmod_matches_repeated_products(p, level):
    field = make_field(FieldSpec.prime_closure(p, 2))
    kern = field._kernel(level)
    rng = random.Random(p + level)

    def rows(n):
        # a monic polynomial with n random rows below its lead
        return kern.p_from_rows([[rng.randrange(p) for _ in range(level)] for _ in range(n)] + [kern.e_one.tolist()])

    for _ in range(4):
        A, M, e = rows(rng.randrange(1, 7)), rows(rng.randrange(1, 5)), rng.randrange(1, 40)
        want = kern.p_mod(A, M)
        for _ in range(e - 1):
            want = kern.p_mod(kern.p_mul(want, A), M)
        assert np.array_equal(kern.p_powmod(A, e, M), want), e


def residue_divmod(a, b, p):
    """Long division of residue lists, low first, reducing after every subtraction."""
    nb, r = len(b), list(a)
    lead_inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - nb + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + nb - 1] * lead_inv % p
        if c:
            q[i] = c
            for j in range(nb - 1):
                r[i + j] = (r[i + j] - c * b[j]) % p
    return q, (r[: nb - 1] if q else r)


def fraction_divmod(a, b):
    """Long division of Fraction lists, low first; the remainder without trailing zeros."""
    n, rem = len(b) - 1, list(a)
    quot = [0] * max(len(rem) - n, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + n] / b[-1]
        if c:
            for i in range(n):
                rem[k + i] -= c * b[i]
    rem = rem[:n]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def trimmed(xs):
    xs = list(xs)
    while xs and not xs[-1]:
        xs.pop()
    return xs


@pytest.mark.parametrize("p", [7, BIG_P])
def test_residue_division_matches_the_reducing_loop(p):
    kern = Kernel(p, [0, 1])
    rng = random.Random(p)
    for trial in range(60):
        b = [rng.randrange(p) for _ in range(rng.randint(0, 5))] + [1 if trial % 2 else rng.randrange(1, p)]
        # dividends shorter than the divisor included; p - 1 entries stress the unreduced sums
        a = [p - 1 if trial % 3 == 0 else rng.randrange(p) for _ in range(rng.randint(0, 12))]
        Q, R = kern.p_divmod(np.array(a, dtype=np.int64).reshape(-1, 1), np.array(b, dtype=np.int64).reshape(-1, 1))
        q, r = residue_divmod(trimmed(a), b, p)
        assert (Q[:, 0].tolist(), R[:, 0].tolist()) == (trimmed(q), trimmed(r)), (a, b)


def test_fraction_division_matches_the_fraction_loop():
    rng = random.Random(5)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    for trial in range(200):
        lead = Fraction(1) if trial % 2 else Fraction(rng.choice((-7, -2, 3, 5)), rng.randint(1, 9))
        b = [frac() for _ in range(rng.randint(0, 5))] + [lead]
        a = [frac() for _ in range(rng.randint(0, 10))]
        assert _poly_divmod(a, b) == fraction_divmod(a, b), (a, b)


def test_only_the_kernel_imports_numpy():
    importers = set()
    for path in Path(dihedral.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"_kernel.py"}


def ref_red(modulus, p):
    """red[i] = coords(y^(d+i) mod m) for i < d - 1, by repeated shifts."""
    d = len(modulus) - 1
    y_d = (-np.array(modulus[:-1], dtype=np.int64)) % p
    red = np.zeros((max(d - 1, 0), d), dtype=np.int64)
    cur = y_d.copy()
    for i in range(d - 1):
        red[i] = cur
        shifted = np.zeros(d, dtype=np.int64)
        shifted[1:] = cur[:-1]
        cur = (shifted + cur[-1] * y_d) % p
    return red


def ref_ypow(red, d, p):
    """ypow[j] = Y^j for the companion matrix Y of multiplication by y."""
    Y = np.eye(d, k=-1, dtype=np.int64)
    if d > 1:
        Y[:, -1] = red[0]
    mats = [np.eye(d, dtype=np.int64)]
    for _ in range(1, d):
        mats.append((Y @ mats[-1]) % p)
    return np.stack(mats)


@pytest.mark.parametrize("p", (3,) + FOLD_PRIMES)
def test_tables_match_the_loops(p):
    rng = random.Random(p)
    for d in range(1, 9):
        # p - 1 entries make every y^(d+i) mod m dense
        for modulus in ([p - 1] * d + [1], [rng.randrange(p) for _ in range(d)] + [1]):
            kern = Kernel(p, modulus)
            red = ref_red(modulus, p)
            assert kern.red.shape == red.shape and np.array_equal(kern.red, red), (d, modulus)
            assert np.array_equal(kern.ypow, ref_ypow(red, d, p)), (d, modulus)


def test_tower_map_checks_raise_internal_inconsistency():
    field = make_field(FieldSpec.prime_closure(7, 4))
    kern, E = field._kernel(4), field._emb[(2, 4)]
    with pytest.raises(InternalInconsistency, match="^embedding matrix lost rank$"):
        kern.section(np.zeros_like(E))
    # y generates level 4, so it has no coordinates at level 2
    with pytest.raises(InternalInconsistency, match="^canonical form does not round-trip$"):
        kern.e_restrict(E, field.generator(4).coords)
    unreachable = [(np.eye(2, dtype=np.int64), np.zeros((4, 2), dtype=np.int64))]
    with pytest.raises(InternalInconsistency, match="^no compatible embedding from level 2 into level 4$"):
        kern.embedding(field._kernel(2), unreachable)
