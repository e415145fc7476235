"""Exact linear algebra over a prime field.

Everything the approximation engine asks is a rank question over F_p.
Matrices are dense int64 numpy arrays with entries in [0, p).  The
modulus is bounded, p < 2^16, and ``check_modulus`` enforces the bound
before anything is computed.  A product of two entries then stays
below 2^32, so the int64 fallback of ``matmul_mod`` is exact for inner
dimensions below 2^31, and its float64 path is exact for inner
dimensions up to 2^53 / (p-1)^2, which is at least 2^21.

A ``RowSpace`` grows by whole blocks: each offered block is reduced
against the current span in one product, then eliminated on its own,
in the style of FFLAS-FFPACK (Dumas, Giorgi and Pernet, "Dense linear
algebra over word-size prime fields", ACM TOMS 2008).
"""

import functools

import numpy as np

DEFAULT_PRIME = 32003
SECOND_PRIME = 65521


def matmul_mod(a, b, p):
    """(a @ b) mod p, exact.

    Routed through float64 BLAS when every partial sum provably fits in
    the 53-bit mantissa, which is the case for all basis sizes this
    library produces; otherwise falls back to int64.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    k = a.shape[-1]
    if 0 < k <= (1 << 53) // ((p - 1) * (p - 1)):
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return prod.astype(np.int64) % p
    return (a @ b) % p


@functools.lru_cache(maxsize=None)
def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_modulus(p):
    """Raise ValueError unless p is a prime below 2^16.

    The bound is tested first, so an oversized modulus is refused
    before any trial division runs.
    """
    if p >= 1 << 16:
        raise ValueError("modulus %d is not below 2^16" % p)
    if not is_prime(p):
        raise ValueError("modulus %d is not prime" % p)


class RowSpace:
    """A subspace of F_p^width, kept in reduced row echelon form.

    rows[i] has a 1 in column pivots[i] and zeros in every other pivot
    column, so reducing a block of vectors is one coefficient gather and
    one matrix product.  ``add_matrix`` takes a whole block at a time:
    one product reduces it against the span, Gauss-Jordan elimination
    runs on the nonzero residues alone, and one more product clears the
    new pivot columns from the old rows.  Pivots are taken in the order
    the rows are offered, so the echelon form does not depend on how the
    rows are split into blocks.
    """

    def __init__(self, p, width):
        self.p = p
        self.width = width
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots = []

    @property
    def dim(self):
        return len(self.pivots)

    def reduce_matrix(self, mat):
        """Residues of the rows of mat modulo the span."""
        mat = np.asarray(mat, dtype=np.int64) % self.p
        if self.pivots:
            hit = matmul_mod(mat[:, self.pivots], self.rows, self.p)
            mat = (mat - hit) % self.p
        return mat

    def contains(self, vec):
        return not self.reduce_matrix(np.asarray(vec).reshape(1, -1)).any()

    def add_matrix(self, mat):
        """Grow the span by the rows of mat; returns how many made it in."""
        p = self.p
        block = self.reduce_matrix(mat)
        block = block[block.any(axis=1)]
        kept, new_pivots = [], []
        for i in range(block.shape[0]):
            nz = block[i].nonzero()[0]
            if nz.size == 0:
                continue
            piv = int(nz[0])
            row = (block[i] * pow(int(block[i, piv]), -1, p)) % p
            block[i] = row
            # only rows with an entry in the pivot column change
            hit = block[:, piv].nonzero()[0]
            hit = hit[hit != i]
            if hit.size:
                block[hit] = (block[hit] - np.outer(block[hit, piv], row)) % p
            kept.append(i)
            new_pivots.append(piv)
        if not kept:
            return 0
        new = block[kept]
        if self.pivots:
            cleared = (self.rows - matmul_mod(self.rows[:, new_pivots], new, p)) % p
            new = np.vstack([cleared, new])
        self.rows = new
        self.pivots.extend(new_pivots)
        return len(kept)


def rank_of(mat, p):
    space = RowSpace(p, np.asarray(mat).shape[1])
    space.add_matrix(mat)
    return space.dim

