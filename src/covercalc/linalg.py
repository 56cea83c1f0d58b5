"""Dense linear algebra over prime fields GF(p).

Everything here works on numpy int64 arrays with entries reduced mod p.
Vectors are rows; a "basis" is a 2-D array whose rows span the subspace.
This is the single linear-algebra core of the module, cohomology and
fundament layers, with one elimination routine: ``row_echelon_mod_p``.
Rank, nullspace and span containment are all read off its reduced row
echelon form.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

import numpy as np

__all__ = [
    "inv_mod",
    "row_echelon_mod_p",
    "rank_mod_p",
    "nullspace_mod_p",
    "row_space_le",
    "projective_points",
    "spin",
    "minimal_stable_subspaces",
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
        hits = M[r:, c].nonzero()[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        lead = int(M[r, c])
        if lead != 1:
            M[r] = (M[r] * inv_mod(lead, p)) % p
        # clear column c from every other row with one rank-1 update; row r
        # is zero left of c, so only columns c.. change
        coef = M[:, c].copy()
        coef[r] = 0
        other = coef.nonzero()[0]
        if other.size:
            M[other, c:] = (M[other, c:] - coef[other, None] * M[r, c:]) % p
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
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    free = free.nonzero()[0]
    # row k sets free column k to 1 and solves the pivot columns for it
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[:, pivots] = -R[:, free].T % p
    basis[np.arange(len(free)), free] = 1
    return basis


def row_space_le(sub: np.ndarray, sup: np.ndarray, p: int) -> bool:
    """True iff row space of ``sub`` is contained in row space of ``sup``
    (both 2-D)."""
    sub = np.asarray(sub, dtype=np.int64)
    sup = np.asarray(sup, dtype=np.int64)
    if sub.size == 0:
        return True
    if sup.size == 0:
        return not (sub % p).any()
    stacked = np.concatenate([sup, sub])
    return rank_mod_p(stacked, p) == rank_mod_p(sup, p)


def projective_points(d: int, p: int) -> Iterator[np.ndarray]:
    """One vector per line of F_p^d, the one whose first nonzero entry
    is 1: the (p^d - 1)/(p - 1) vectors, by the position of that entry
    and then by the entries after it in lexicographic order. A
    generator, so that a caller may stop at the first point it needs."""
    for lead in range(d):
        for tail in product(range(p), repeat=d - 1 - lead):
            point = np.zeros(d, dtype=np.int64)
            point[lead] = 1
            point[lead + 1:] = tail
            yield point


def spin(vec: np.ndarray, mats: np.ndarray, p: int) -> np.ndarray:
    """RREF basis of the least subspace containing ``vec`` and stable
    under right multiplication by every matrix of the stack ``mats``
    (Holt–Eick–O'Brien, *Handbook of Computational Group Theory*, ch. 7,
    the spinning algorithm of the MeatAxe)."""
    reduced, pivots = row_echelon_mod_p(vec, p)
    todo = reduced
    while len(todo):
        images = (todo @ mats).reshape(-1, reduced.shape[1]) % p
        # what the span misses: an RREF row basis has its pivots at 1 and
        # zeros in the other pivot columns
        residue = (images - images[:, pivots] @ reduced) % p
        todo = residue[residue.any(axis=1)]
        if len(todo):
            reduced, pivots = row_echelon_mod_p(np.concatenate([reduced, todo]), p)
            todo, _ = row_echelon_mod_p(todo, p)
    return reduced


def minimal_stable_subspaces(mats: np.ndarray, p: int) -> list[np.ndarray]:
    """RREF bases of the minimal nonzero subspaces of the row space
    F_p^d that are stable under right multiplication by every matrix of
    the stack ``mats`` (shape (k, d, d)): the simple submodules.

    Each one is the spin of any of its nonzero vectors, so they are the
    minimal spins of the ``projective_points``. A stable-line pass comes
    first: a point v spans a stable line iff v·A_h is, for every h, the
    multiple of v by its entry at v's leading 1, so one product of all
    points with ``mats`` finds those points, and the spin of each is v
    itself as one row. Only the other points are spun. Spans are kept
    by rising dimension, unless one contains a smaller kept one; they
    are ordered by dimension, then by first projective point.
    """
    mats = np.asarray(mats, dtype=np.int64) % p
    d = mats.shape[-1]
    if not d:
        return []
    points = np.array(list(projective_points(d, p)), dtype=np.int64)
    images = points @ mats % p  # (k, points, d)
    lead = (points != 0).argmax(axis=1)
    scale = images[:, np.arange(len(points)), lead]
    on_line = ~((images - scale[..., None] * points) % p).any(axis=(0, 2))
    spins: dict[bytes, np.ndarray] = {}
    for point, line in zip(points, on_line):
        span = point[None, :] if line else spin(point, mats, p)
        spins.setdefault(span.tobytes(), span)  # d is fixed: bytes fix the rows
    kept: list[np.ndarray] = []
    smaller = 0  # kept[:smaller] are the kept spans of smaller dimension
    for span in sorted(spins.values(), key=len):
        while smaller < len(kept) and len(kept[smaller]) < len(span):
            smaller += 1
        if not any(row_space_le(w, span, p) for w in kept[:smaller]):
            kept.append(span)
    return kept
