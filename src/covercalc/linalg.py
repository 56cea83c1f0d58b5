"""Dense linear algebra over prime fields GF(p).

Everything here works on numpy int64 arrays with entries reduced mod p.
Vectors are rows; a "basis" is a 2-D array whose rows span the subspace.
This is the single linear-algebra core used by the module, cohomology and
fundament layers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "inv_mod",
    "row_echelon_mod_p",
    "rank_mod_p",
    "nullspace_mod_p",
    "solve_mod_p",
    "row_space_contains",
    "same_row_space",
    "row_space_le",
    "intersect_row_spaces",
    "IncrementalRowReduce",
]


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of ``a`` modulo the prime ``p``."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod %d" % p)
    return pow(a, p - 2, p)


def row_echelon_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Args:
        mat: 2-D integer array (rows are vectors).
        p: prime modulus.

    Returns:
        ``(R, pivot_cols)`` where ``R`` holds only the nonzero rows (so
        ``len(pivot_cols) == R.shape[0] == rank``) and pivots are 1 with
        zeros above and below.
    """
    M = np.asarray(mat, dtype=np.int64) % p
    if M.ndim != 2:
        M = M.reshape(1, -1)
    rows, cols = M.shape
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(M[r:, c])[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        M[r] = (M[r] * inv_mod(int(M[r, c]), p)) % p
        # clear column c from every other row with one rank-1 update; row r
        # is zero left of c, so only columns c.. change
        coef = M[:, c].copy()
        coef[r] = 0
        other = np.flatnonzero(coef)
        if other.size:
            M[other, c:] = (M[other, c:] - np.outer(coef[other], M[r, c:])) % p
        pivot_cols.append(c)
        r += 1
    return M[: len(pivot_cols)], pivot_cols


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank of ``mat`` over GF(p)."""
    return len(row_echelon_mod_p(mat, p)[1])


def nullspace_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (rows) of the right nullspace ``{x : mat @ x = 0}`` over GF(p).

    Returns a ``(dim, n)`` array; ``dim`` may be 0.
    """
    M = np.asarray(mat, dtype=np.int64)
    if M.ndim != 2:
        M = M.reshape(1, -1)
    n = M.shape[1]
    R, pivots = row_echelon_mod_p(M, p)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(R[i, fc])) % p
    return basis


def solve_mod_p(mat: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """One solution ``x`` of ``mat @ x = rhs`` over GF(p), or None.

    ``rhs`` is a 1-D vector. The returned solution sets all free variables
    to zero, so it is deterministic.
    """
    M = np.asarray(mat, dtype=np.int64) % p
    if M.ndim != 2:
        M = M.reshape(1, -1)
    b = (np.asarray(rhs, dtype=np.int64) % p).reshape(-1, 1)
    if M.shape[0] != b.shape[0]:
        raise ValueError("shape mismatch in solve_mod_p")
    n = M.shape[1]
    R, pivots = row_echelon_mod_p(np.concatenate([M, b], axis=1), p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = R[i, n]
    return x


def row_space_contains(basis: np.ndarray, vec: np.ndarray, p: int) -> bool:
    """True iff ``vec`` lies in the row space of ``basis`` over GF(p)."""
    basis = np.asarray(basis, dtype=np.int64)
    vec = np.asarray(vec, dtype=np.int64) % p
    if basis.size == 0:
        return not vec.any()
    if not vec.any():
        return True
    stacked = np.vstack([basis, vec])
    return rank_mod_p(stacked, p) == rank_mod_p(basis, p)


def row_space_le(sub: np.ndarray, sup: np.ndarray, p: int) -> bool:
    """True iff row space of ``sub`` is contained in row space of ``sup``."""
    sub = np.asarray(sub, dtype=np.int64)
    sup = np.asarray(sup, dtype=np.int64)
    if sub.size == 0 or rank_mod_p(sub, p) == 0:
        return True
    if sup.size == 0:
        return rank_mod_p(sub, p) == 0
    stacked = np.vstack([sup, sub])
    return rank_mod_p(stacked, p) == rank_mod_p(sup, p)


def same_row_space(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    """True iff the two row spaces coincide over GF(p)."""
    return row_space_le(a, b, p) and row_space_le(b, a, p)


def intersect_row_spaces(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Basis (rows) of the intersection of two row spaces over GF(p).

    Uses the kernel of the stacked matrix: coefficients (u, v) with
    u @ a = v @ b give intersection vectors u @ a.
    """
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    if a.size == 0 or b.size == 0:
        n = a.shape[1] if a.size else (b.shape[1] if b.size else 0)
        return np.zeros((0, n), dtype=np.int64)
    stacked = np.vstack([a, -b % p])
    ker = nullspace_mod_p(stacked.T, p)
    if ker.size == 0:
        return np.zeros((0, a.shape[1]), dtype=np.int64)
    vecs = (ker[:, : a.shape[0]] @ a) % p
    R, _ = row_echelon_mod_p(vecs, p)
    return R


class IncrementalRowReduce:
    """Maintains a reduced row-echelon basis, one appended row at a time.

    Useful when assembling very large linear systems (cocycle conditions)
    where keeping every raw row would be wasteful: at most ``n`` independent
    rows are stored for ambient dimension ``n``.
    """

    def __init__(self, n: int, p: int) -> None:
        self.n = n
        self.p = p
        self._rows: list[np.ndarray] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self) -> np.ndarray:
        if not self._rows:
            return np.zeros((0, self.n), dtype=np.int64)
        return np.array(self._rows, dtype=np.int64)

    def _reduce(self, vec: np.ndarray) -> np.ndarray:
        v = np.asarray(vec, dtype=np.int64) % self.p
        for row, pc in zip(self._rows, self._pivots):
            coef = v[pc]
            if coef:
                v = (v - coef * row) % self.p
        return v

    def contains(self, vec: np.ndarray) -> bool:
        return not self._reduce(vec).any()

    def add(self, vec: np.ndarray) -> bool:
        """Reduce ``vec`` against the basis; extend if independent.

        Returns True iff the row enlarged the span.
        """
        v = self._reduce(vec)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        pc = int(nz[0])
        v = (v * inv_mod(int(v[pc]), self.p)) % self.p
        for i, row in enumerate(self._rows):
            coef = row[pc]
            if coef:
                self._rows[i] = (row - coef * v) % self.p
        # keep rows sorted by pivot column so basis() is an actual RREF
        pos = 0
        while pos < len(self._pivots) and self._pivots[pos] < pc:
            pos += 1
        self._rows.insert(pos, v)
        self._pivots.insert(pos, pc)
        return True
