"""Dense polynomial arithmetic over F_{p^d}, numpy-backed.  Internal.

An element of F_{p^d} = F_p[y]/(m) is a length-d int64 vector of residues
mod p (coefficients of the class mod the level's defining polynomial m).  A
polynomial over F_{p^d} is an (n+1, d) array whose row i is the coefficient
of x^i; trailing zero rows are trimmed and the zero polynomial has 0 rows.

Products pack both operands into one 1-D array with y-stride 2d-1 so a single
np.convolve does the whole bivariate multiply, then the y-axis is folded mod m.
For p < 2^20 the convolution sums stay below 2**63, but folding them unreduced
multiplies by another residue: that is exact only for p < 2^10, so for larger
p the sums are reduced mod p before every fold.  Everything here is exact.
"""

import numpy as np


def fp_inv(a, p):
    return pow(int(a), p - 2, p)


class Kernel:
    """Arithmetic for one tower level: F_{p^d} elements and polys over them."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = np.asarray(modulus, dtype=np.int64) % p
        self.modulus[-1] = 1  # monic by construction
        self.d = len(modulus) - 1
        self.width = 2 * self.d - 1
        d = self.d
        self.e_zero = np.zeros(d, dtype=np.int64)
        self.e_one = np.zeros(d, dtype=np.int64)
        self.e_one[0] = 1
        self.zero_poly = np.zeros((0, d), dtype=np.int64)
        self.one_poly = self.e_one.reshape(1, d).copy()
        # red[i] = coords of y^(d+i) mod m, used to fold convolution overflow
        self.red = np.zeros((max(d - 1, 0), d), dtype=np.int64)
        if d > 1:
            y_d = (-self.modulus[:-1]) % p
            cur = y_d.copy()
            for i in range(d - 1):
                self.red[i] = cur
                top = cur[-1]
                shifted = np.zeros(d, dtype=np.int64)
                shifted[1:] = cur[:-1]
                cur = (shifted + top * y_d) % p
        self._frob = None
        self._frob_pows = [np.eye(d, dtype=np.int64)]
        self._ypow = None

    # ---- element ops: vectors of shape (d,) ----

    def e_reduce_wide(self, c):
        # c has length <= 2d-1
        d = self.d
        if len(c) <= d:
            out = np.zeros(d, dtype=np.int64)
            out[: len(c)] = c
            return out % self.p
        if self.p >= (1 << 10):
            # pre-reduce so the fold below cannot overflow int64
            c = c % self.p
        return (c[:d] + c[d:] @ self.red[: len(c) - d]) % self.p

    def e_mul(self, a, b):
        if self.d == 1:
            return (a * b) % self.p
        return self.e_reduce_wide(np.convolve(a, b))

    def e_pow(self, a, n):
        if n < 0:
            return self.e_pow(self.e_inv(a), -n)
        acc = self.e_one.copy()
        base = a % self.p
        while n:
            if n & 1:
                acc = self.e_mul(acc, base)
            base = self.e_mul(base, base)
            n >>= 1
        return acc

    def e_inv(self, a):
        p = self.p
        if self.d == 1:
            v = int(a[0]) % p
            if v == 0:
                raise ZeroDivisionError("inverse of zero")
            return np.array([fp_inv(v, p)], dtype=np.int64)
        # Itoh-Tsujii: with r = 1 + p + ... + p^(d-1), the norm a^r lies in
        # F_p and a^-1 = a^(r-1) / a^r.  beta = a^(p + p^2 + ... + p^k) is
        # built along the binary digits of d-1: doubling k multiplies beta
        # by its own k-th Frobenius image, and k -> k+1 takes frob(a * beta).
        beta, k = None, 0
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

    def frob_matrix(self):
        # column j holds (y^j)^p mod m; Frobenius is F_p-linear on coords
        if self._frob is None:
            d = self.d
            cols = [self.e_one.copy()]
            yp = self.e_pow(self.gen_vec(), self.p)
            for _ in range(1, d):
                cols.append(self.e_mul(cols[-1], yp))
            self._frob = np.stack(cols, axis=1)
        return self._frob

    def e_frob(self, a, times=1):
        # powers of the Frobenius matrix are cached as they are first needed
        k = times % self.d
        pows = self._frob_pows
        while len(pows) <= k:
            pows.append((self.frob_matrix() @ pows[-1]) % self.p)
        return (pows[k] @ a) % self.p

    def e_pth_root(self, a):
        # Frobenius has order d, so its inverse is d-1 more applications
        return self.e_frob(a, self.d - 1)

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

    def p_add(self, A, B):
        n = max(len(A), len(B))
        out = np.zeros((n, self.d), dtype=np.int64)
        out[: len(A)] += A
        out[: len(B)] += B
        return self.trim(out % self.p)

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
        if d == 1:
            return self.trim(c2 % self.p)
        if self.p >= (1 << 10):
            # pre-reduce so the fold below cannot overflow int64
            c2 %= self.p
        return self.trim((c2[:, :d] + c2[:, d:] @ self.red) % self.p)

    def p_scale(self, A, c):
        if len(A) == 0 or not c.any():
            return self.zero_poly
        return self.p_mul(A, c.reshape(1, self.d))

    def ypow(self):
        # ypow()[j] is the matrix of multiplication by y^j
        if self._ypow is None:
            d = self.d
            Y = np.eye(d, k=-1, dtype=np.int64)
            if d > 1:
                Y[:, -1] = self.red[0]
            mats = [np.eye(d, dtype=np.int64)]
            for _ in range(1, d):
                mats.append((Y @ mats[-1]) % self.p)
            self._ypow = np.stack(mats)
        return self._ypow

    def mul_rows(self, q):
        # row j is coords(q * y^j), so (v @ mul_rows(q)) % p == coords(q * v)
        return (self.ypow() @ q) % self.p

    def p_divmod(self, A, B):
        if len(B) == 0:
            raise ZeroDivisionError("polynomial division by zero")
        A = self.trim(A)
        nb = len(B)
        if len(A) < nb:
            return self.zero_poly, A.copy()
        p = self.p
        nq = len(A) - nb + 1
        lead = B[-1]
        if self.d == 1:
            # schoolbook division on Python ints: at these sizes it beats a
            # numpy call per quotient digit; a monic divisor needs no inverse
            r, b = A[:, 0].tolist(), B[:, 0].tolist()
            lead_inv = 1 if b[-1] == 1 else int(self.e_inv(lead)[0])
            q = [0] * nq
            for i in range(nq - 1, -1, -1):
                c = r[i + nb - 1] * lead_inv % p
                if c:
                    q[i] = c
                    for j in range(nb - 1):
                        r[i + j] = (r[i + j] - c * b[j]) % p
            Q = np.array(q, dtype=np.int64).reshape(nq, 1)
            R = np.array(r[: nb - 1], dtype=np.int64).reshape(nb - 1, 1)
            return self.trim(Q), self.trim(R)
        R = A.copy()
        Q = np.zeros((nq, self.d), dtype=np.int64)
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
        if self.d == 1:
            if lead[0] == 1:
                return A
        elif lead[0] == 1 and not lead[1:].any():
            return A
        return self.p_scale(A, self.e_inv(lead))

    def p_gcd(self, A, B):
        A, B = self.trim(A), self.trim(B)
        while len(B):
            A, B = B, self.p_mod(A, B)
        return self.p_monic(A)

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
        big = np.stack(rows)[:, None] @ self.ypow().transpose(0, 2, 1)
        big %= self.p
        return big.reshape((n - 1) * d, n * d)

    def p_powmod(self, A, e, M):
        """A^e mod M by left-to-right binary powering.

        Residues stay n = deg M rows long and packed at y-stride 2d-1 for the
        whole loop, and every product is reduced mod M by one precomputed
        matrix, so the loop neither trims nor goes through p_mul.
        """
        if e == 0:
            return self.one_poly.copy()
        M = self.p_monic(self.trim(M))
        n = len(M) - 1
        if n <= 0:
            return self.zero_poly
        p, d, W = self.p, self.d, self.width
        big = self.reduction_matrix(M)
        red = self.red
        base = np.zeros((n, W), dtype=np.int64)
        low = self.p_mod(A, M)
        base[: len(low), :d] = low
        base = base.ravel()

        def mulmod(a, b):
            c = np.convolve(a, b)[: (2 * n - 1) * W].reshape(2 * n - 1, W)
            if p >= (1 << 10):
                c %= p  # keeps the folds below inside int64
            if d == 1:
                return (c[:n, 0] + c[n:, 0] @ big) % p
            c = (c[:, :d] + c[:, d:] @ red) % p
            out = np.zeros((n, W), dtype=np.int64)
            out[:, :d] = (c[:n].ravel() + c[n:].ravel() @ big).reshape(n, d) % p
            return out.ravel()

        acc = base
        for bit in bin(e)[3:]:
            acc = mulmod(acc, acc)
            if bit == "1":
                acc = mulmod(acc, base)
        return self.trim(np.ascontiguousarray(acc.reshape(n, W)[:, :d]))

    def p_deriv(self, A):
        if len(A) <= 1:
            return self.zero_poly
        ks = (np.arange(1, len(A)) % self.p).reshape(-1, 1)
        return self.trim((A[1:] * ks) % self.p)

    def p_div_linear(self, A, r):
        # exact division by (x - r); returns (quotient, remainder element)
        n = len(A) - 1
        Q = np.zeros((max(n, 0), self.d), dtype=np.int64)
        acc = A[n].copy()
        for i in range(n - 1, -1, -1):
            Q[i] = acc
            acc = (self.e_mul(acc, r) + A[i]) % self.p
        return self.trim(Q), acc

    def x_poly(self):
        out = np.zeros((2, self.d), dtype=np.int64)
        out[1] = self.e_one
        return out
