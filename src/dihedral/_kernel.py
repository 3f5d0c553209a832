"""Dense polynomial arithmetic over F_{p^d}, numpy-backed.  Internal.

The only module that imports numpy: fields.py passes coordinate tuples and
keeps kernel values unopened.  Root finding, Ben-Or's test, embeddings and
their sections, and both seeded RNGs (crc32 of split rows' int64 bytes) are here.

An element of F_{p^d} = F_p[y]/(m) is a length-d int64 vector of residues
mod p (coefficients of the class mod the level's defining polynomial m).  A
polynomial over F_{p^d} is an (n+1, d) array whose row i is the coefficient
of x^i; trailing zero rows are trimmed and the zero polynomial has 0 rows.

Products pack both operands into one 1-D array with y-stride 2d-1 so a single
np.convolve does the whole bivariate multiply; fold then folds the y-axis mod
m (and p_powmod's x-axis mod its modulus).  For p < 2^20 the convolution sums
stay below 2**63, but folding multiplies them by another residue: exact only
for p < 2^10, so fold reduces them mod p first for larger p.  long_division
serves level-1 residues and Fractions; residues are reduced once, at the end.
"""

import zlib
from random import Random

import numpy as np

from .errors import InternalInconsistency


def fp_inv(a, p):
    return pow(int(a), p - 2, p)


def power(x, n, mul):
    """x ** n for n >= 1 under mul, left to right: a square per bit below the top, times x per 1 bit."""
    acc = x
    for bit in bin(n)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def long_division(a, b, digit):
    """Quotient and untrimmed, unreduced remainder of lists a by b; digit(top) clears top."""
    n = len(b) - 1
    rem = list(a)
    quot = [0] * max(len(rem) - n, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = digit(rem[k + n])
        if c:
            for i in range(n):
                rem[k + i] -= c * b[i]
    return quot, rem[:n]


class Kernel:
    """Arithmetic for one tower level: F_{p^d} elements and polys over them."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = np.asarray(modulus, dtype=np.int64) % p
        self.modulus[-1] = 1  # monic by construction
        self.d = len(modulus) - 1
        self.width = 2 * self.d - 1
        d = self.d
        self.e_one = np.zeros(d, dtype=np.int64)
        self.e_one[0] = 1
        self.zero_poly = np.zeros((0, d), dtype=np.int64)
        self.one_poly = self.e_one.reshape(1, d).copy()
        # row j of table is coords(y^j), j < 2d-1: y times row j-1, its top
        # coefficient folded back through y^d = -m[:-1]; then red[i] =
        # coords(y^(d+i)) folds convolution overflow, and ypow[j], the matrix
        # of multiplication by y^j, has column k = coords(y^(j+k))
        neg = (-self.modulus[:-1] % p).tolist()
        table = [self.e_one.tolist()]
        while len(table) < 2 * d - 1:
            *low, top = table[-1]
            table.append([(a + top * b) % p for a, b in zip([0] + low, neg)])
        table = np.array(table, dtype=np.int64)
        self.red = table[d:]
        self.ypow = table[np.add.outer(np.arange(d), np.arange(d))].transpose(0, 2, 1)
        self._frob = None
        self._frob_pows = [np.eye(d, dtype=np.int64)]
        self._reduction = (None, None)  # (modulus bytes, reduction_matrix)
        self._sections = {}  # sublevel -> section of its embedding matrix

    # ---- element ops: vectors of shape (d,) ----

    def fold(self, c, mat):
        # (first k entries + the rest @ mat) % p along c's last axis, k = mat's
        # width; with mat = red it folds 2d-1 coefficients of y to d mod m
        if self.p >= (1 << 10):  # so the fold's sums cannot overflow int64
            c = c % self.p
        k = mat.shape[1]
        return (c[..., :k] + c[..., k:] @ mat) % self.p

    def e_mul(self, a, b):
        return self.fold(np.convolve(a, b), self.red)

    def e_pow(self, a, n):
        if n == 0:
            return self.e_one.copy()
        return power(np.asarray(a, dtype=np.int64) % self.p, n, self.e_mul)

    def e_inv(self, a):
        p = self.p
        # Itoh-Tsujii: with r = 1 + p + ... + p^(d-1), the norm a^r lies in
        # F_p and a^-1 = a^(r-1) / a^r.  beta = a^(p + p^2 + ... + p^k) is
        # built along the binary digits of d-1: doubling k multiplies beta
        # by its own k-th Frobenius image, and k -> k+1 takes frob(a * beta).
        # beta starts at a^0 = 1, so d = 1 leaves it there and gives a^-1.
        beta, k = self.e_one, 0
        for bit in bin(self.d - 1)[2:]:
            if k:
                beta = self.e_mul(beta, self.e_frob(beta, k))
                k *= 2
            if bit == "1":
                beta = self.e_frob(a if k == 0 else self.e_mul(a, beta))
                k += 1
        norm = int(self.e_mul(a, beta)[0])
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return (beta * fp_inv(norm, p)) % p

    def power_matrix(self, r, n):
        # column j holds coords(r^j), j < n
        cols = [self.e_one.copy()]
        for _ in range(1, n):
            cols.append(self.e_mul(cols[-1], r))
        return np.stack(cols, axis=1)

    def frob_matrix(self):
        # column j holds (y^j)^p mod m; Frobenius is F_p-linear on coords
        if self._frob is None:
            self._frob = self.power_matrix(self.e_pow(self.gen_vec(), self.p), self.d)
        return self._frob

    def e_frob(self, a, times=1):
        # powers of the Frobenius matrix are cached as they are first needed
        k = times % self.d
        pows = self._frob_pows
        while len(pows) <= k:
            pows.append((self.frob_matrix() @ pows[-1]) % self.p)
        return (pows[k] @ a) % self.p

    def gen_vec(self):
        v = np.zeros(self.d, dtype=np.int64)
        if self.d > 1:
            v[1] = 1
        return v

    # ---- poly ops: arrays of shape (n+1, d) ----

    def trim(self, A):
        if len(A) == 0 or A[-1].any():
            return A
        nz = np.nonzero(A.any(axis=1))[0]
        if len(nz) == 0:
            return A[:0]
        return A[: nz[-1] + 1]

    def deg(self, A):
        return len(A) - 1

    def p_from_rows(self, rows):
        if not rows:
            return self.zero_poly
        return self.trim(np.array(rows, dtype=np.int64) % self.p)

    def p_sub(self, A, B):
        n = max(len(A), len(B))
        out = np.zeros((n, self.d), dtype=np.int64)
        out[: len(A)] += A
        out[: len(B)] -= B
        return self.trim(out % self.p)

    def p_mul(self, A, B):
        if len(A) == 0 or len(B) == 0:
            return self.zero_poly
        d, W = self.d, self.width
        a = np.zeros((len(A), W), dtype=np.int64)
        a[:, :d] = A
        b = np.zeros((len(B), W), dtype=np.int64)
        b[:, :d] = B
        n = len(A) + len(B) - 1
        # the convolution has n*W + W-1 entries; the tail past n*W is zero
        c2 = np.convolve(a.ravel(), b.ravel())[: n * W].reshape(n, W)
        return self.trim(self.fold(c2, self.red))

    def mul_rows(self, q):
        # row j is coords(q * y^j), so (v @ mul_rows(q)) % p == coords(q * v)
        return (self.ypow @ q) % self.p

    def p_divmod(self, A, B):
        if len(B) == 0:
            raise ZeroDivisionError("polynomial division by zero")
        A = self.trim(A)
        nb = len(B)
        if len(A) < nb:
            return self.zero_poly, A.copy()
        p = self.p
        nq = len(A) - nb + 1
        if self.d == 1:
            # on Python ints, which beats a numpy call per quotient digit here;
            # the remainder stays below p + nq p^2 until its one reduction
            b = B[:, 0].tolist()
            lead_inv = 1 if b[-1] == 1 else fp_inv(b[-1], p)
            q, r = long_division(A[:, 0].tolist(), b, lambda top: top * lead_inv % p)
            Q = np.array(q, dtype=np.int64).reshape(nq, 1)
            R = np.array([c % p for c in r], dtype=np.int64).reshape(nb - 1, 1)
            return self.trim(Q), self.trim(R)
        R = A.copy()
        Q = np.zeros((nq, self.d), dtype=np.int64)
        lead = B[-1]
        monic = lead[0] == 1 and not lead[1:].any()
        lead_inv = None if monic else self.e_inv(lead)
        for i in range(nq - 1, -1, -1):
            top = R[i + nb - 1]
            if not top.any():
                continue
            q = top if monic else self.e_mul(top, lead_inv)
            Q[i] = q
            R[i : i + nb] = (R[i : i + nb] - B @ self.mul_rows(q)) % p
        return self.trim(Q), self.trim(R[: nb - 1])

    def p_mod(self, A, B):
        return self.p_divmod(A, B)[1]

    def p_monic(self, A):
        A = self.trim(A)
        if len(A) == 0:
            return A
        lead = A[-1]
        if lead[0] == 1 and not lead[1:].any():
            return A
        # scaled as p_divmod scales B: the sums stay below d * p^2 < 2^46
        return (A @ self.mul_rows(self.e_inv(lead))) % self.p

    def p_gcd(self, A, B):
        A, B = self.trim(A), self.trim(B)
        while len(B):
            A, B = B, self.p_mod(A, B)
        return self.p_monic(A)

    def is_irreducible(self, coeffs):
        # Ben-Or, at level 1: monic M = sum coeffs[i] x^i is irreducible over F_p iff
        # gcd(x^(p^k) - x, M), its factors of degree dividing k, is 1 for all k <= deg M / 2
        M = self.p_from_rows([[c] for c in coeffs])
        x = r = self.x_poly()
        for _ in range((len(coeffs) - 1) // 2):
            r = self.p_powmod(r, self.p, M)
            if self.deg(self.p_gcd(self.p_sub(r, x), M)) != 0:
                return False
        return True

    def reduction_matrix(self, M):
        """Reduction mod monic M of degree n >= 1 as one matrix.

        Row r*d + k holds coords(x^(n+r) * y^k mod M), flattened, for
        r < n-1 and k < d.  For a product P of two residues (2n-1 rows),
        P mod M == (P[:n].ravel() + P[n:].ravel() @ matrix) mod p.
        """
        n, d = len(M) - 1, self.d
        rows = []
        cur = (-M[:-1]) % self.p
        for _ in range(n - 1):
            rows.append(cur)
            top = cur[-1].copy()
            nxt = np.zeros((n, d), dtype=np.int64)
            nxt[1:] = cur[:-1]
            if top.any():
                nxt = (nxt + rows[0] @ self.mul_rows(top)) % self.p
            cur = nxt
        if not rows:
            return np.zeros((0, n * d), dtype=np.int64)
        # block (r, k) is row r with every coefficient times y^k; reduced in
        # place, since for large n and d this is the largest array built
        big = np.stack(rows)[:, None] @ self.ypow.transpose(0, 2, 1)
        big %= self.p
        return big.reshape((n - 1) * d, n * d)

    def p_powmod(self, A, e, M):
        """A^e mod M by left-to-right binary powering.

        Residues stay n = deg M rows long and packed at y-stride 2d-1 for the
        whole loop, and every product is reduced mod M by one precomputed
        matrix, so the loop neither trims nor goes through p_mul.  The matrix
        of the last modulus is kept: Ben-Or's test and the distinct-degree
        loop power modulo one modulus several times in a row.
        """
        if e == 0:
            return self.one_poly.copy()
        M = self.p_monic(self.trim(M))
        n = len(M) - 1
        if n <= 0:
            return self.zero_poly
        d, W = self.d, self.width
        key = M.tobytes()
        cached = self._reduction
        if cached[0] != key:
            cached = self._reduction = (key, self.reduction_matrix(M))
        big = cached[1]
        base = np.zeros((n, W), dtype=np.int64)
        low = self.p_mod(A, M)
        base[: len(low), :d] = low
        base = base.ravel()

        def mulmod(a, b):
            c = np.convolve(a, b)[: (2 * n - 1) * W]
            if d == 1:
                # no y-fold: root finding at level 1 runs this loop, and the
                # general form's extra numpy calls cost it about a third
                return self.fold(c, big)
            out = np.zeros((n, W), dtype=np.int64)
            out[:, :d] = self.fold(self.fold(c.reshape(2 * n - 1, W), self.red).ravel(), big).reshape(n, d)
            return out.ravel()

        acc = power(base, e, mulmod)
        return self.trim(np.ascontiguousarray(acc.reshape(n, W)[:, :d]))

    def x_poly(self):
        out = np.zeros((2, self.d), dtype=np.int64)
        out[1] = self.e_one
        return out

    # ---- called by fields.py with coordinate tuples and rows ----

    def e_image(self, E, a):
        # coords here of a sublevel element a, by that sublevel's embedding matrix
        return (E @ a) % self.p

    def e_fixed(self, a, times):
        # whether Frobenius^times fixes a, that is, a lies in F_{p^times}
        return np.array_equal(self.e_frob(a, times), a)

    def e_restrict(self, E, a):
        # coords of a at the sublevel with embedding matrix E, by its section
        e = E.shape[1]
        if e not in self._sections:
            self._sections[e] = self.section(E)
        b = (self._sections[e] @ a) % self.p
        if not np.array_equal((E @ b) % self.p, a):
            raise InternalInconsistency("canonical form does not round-trip")
        return b

    def section(self, E):
        """A left inverse mod p of the embedding matrix E (d x e) of a sublevel, by Gaussian elimination."""
        p, d = self.p, self.d
        e = E.shape[1]
        A = np.concatenate([E % p, np.eye(d, dtype=np.int64)], axis=1)
        row = 0
        for col in range(e):
            piv = row
            while piv < d and A[piv, col] == 0:
                piv += 1
            if piv == d:
                raise InternalInconsistency("embedding matrix lost rank")
            if piv != row:
                A[[row, piv]] = A[[piv, row]]
            A[row] = (A[row] * pow(int(A[row, col]), p - 2, p)) % p
            for rr in range(d):
                if rr != row and A[rr, col]:
                    A[rr] = (A[rr] - A[rr, col] * A[row]) % p
            row += 1
        return A[:e, e:]

    def embedding(self, sub, maps):
        """The embedding matrix from sub's level: the power matrix E of the least root here of
        sub's modulus with (E @ F) % p == G for every pair of fixed embeddings (F, G) in maps.
        """
        e, m_e = sub.d, sub.modulus
        W = np.zeros((e + 1, self.d), dtype=np.int64)
        W[:, 0] = m_e
        rng = Random(zlib.crc32(m_e.tobytes()) ^ (self.p << 12) ^ (self.d << 2) ^ e)
        roots = self.split_roots(W, 1, rng)
        roots.sort(key=lambda v: v.tolist())
        for r in roots:
            E = self.power_matrix(r, e)
            if all(np.array_equal((E @ F) % self.p, G) for F, G in maps):
                return E
        raise InternalInconsistency(
            f"no compatible embedding from level {e} into level {self.d}"
        )

    def rows_gcd(self, a, b):
        """Rows of the monic gcd h of the polynomials with rows a and b, and of a / h."""
        A, B = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        H = self.p_gcd(A, B)
        return H.tolist(), self.p_divmod(A, H)[0].tolist()

    def roots(self, rows, extension):
        """(level, coords, multiplicity) of each nonzero root of the polynomial with these rows.

        rows: coordinates here, lowest degree first, the last nonzero.  The
        roots of a degree-k distinct-degree part lie at level k * d;
        extension(k) gives its kernel and embedding matrix (None for k = 1).
        """
        rows = np.array(rows, dtype=np.int64)
        A = rows[rows.any(axis=1).argmax():]
        if len(A) < 2:
            return
        A = self.p_monic(A)
        rng = Random(zlib.crc32(rows.tobytes()) ^ (self.p << 8) ^ self.d)
        for part, k, mult in self.distinct_degree_parts(A):
            kern, E = extension(k)
            W = part if E is None else (part @ E.T) % self.p
            for r in kern.split_roots(W, self.d, rng):
                yield kern.d, r, mult

    def distinct_degree_parts(self, A):
        """Monic A over this level -> [(part, k, multiplicity)].

        part is the product of A's distinct degree-k irreducible factors of that
        multiplicity.  g = gcd(x^(q^k) - x, h) is squarefree whatever h is, and
        once every factor of degree below k is gone it holds each degree-k factor
        once; dividing g out of h again and again peels the multiplicities.  What
        is left of degree below 2(k+1) is one irreducible factor, counted once.
        """
        q = self.p**self.d
        out = []
        h = A
        x = r = self.x_poly()
        k = 0
        while self.deg(h) > 2 * (k + 1) - 1:
            k += 1
            r = self.p_powmod(r, q, h)
            g = self.p_gcd(self.p_sub(r, x), h)
            mult = 0
            while self.deg(g) > 0:
                mult += 1
                h = self.p_divmod(h, g)[0]
                more = self.p_gcd(g, h)
                part = self.p_divmod(g, more)[0]
                if self.deg(part) > 0:
                    out.append((part, k, mult))
                g = more
            r = self.p_mod(r, h)
        if self.deg(h) > 0:
            out.append((h, self.deg(h), 1))
        return out

    def split_roots(self, W, frob_step, rng):
        """All roots of monic squarefree W that splits completely at this level.

        W's coefficient values must be fixed by Frobenius^frob_step, so its root
        set is closed under that power of Frobenius; whole orbits are divided out
        as soon as one member is found.
        """
        roots = []
        C = self.p_monic(self.trim(W))
        while self.deg(C) > 0:
            if self.deg(C) == 1:
                roots.append((-C[0]) % self.p)
                break
            r = self.find_root(C, rng)
            orbit = [r]
            cur = self.e_frob(r, frob_step)
            while not np.array_equal(cur, r):
                orbit.append(cur)
                cur = self.e_frob(cur, frob_step)
            for rho in orbit:
                C, rem = self.p_divmod(C, np.stack([(-rho) % self.p, self.e_one]))
                if rem.any():
                    raise InternalInconsistency("orbit member is not a root")
            roots.extend(orbit)
        return roots

    def find_root(self, C, rng):
        """One root of monic C (which splits into distinct linear factors)."""
        p, d = self.p, self.d
        exp = (p**d - 1) // 2
        while self.deg(C) > 1:
            U = np.array(
                [[rng.randrange(p) for _ in range(d)] for _ in range(self.deg(C))],
                dtype=np.int64,
            )
            U = self.trim(U)
            if not len(U):
                continue
            # a root where U vanishes lands in neither half of this split
            V = self.p_powmod(U, exp, C)
            V = self.p_sub(V, self.one_poly)
            D = self.p_gcd(V, C)
            if 0 < self.deg(D) < self.deg(C):
                other = self.p_divmod(C, D)[0]
                C = D if self.deg(D) <= self.deg(other) else other
        return (-C[0]) % p
