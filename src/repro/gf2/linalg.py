"""Dense GF(2) linear algebra on uint8 NumPy arrays.

All routines treat matrices as arrays of 0/1 entries with arithmetic mod 2.
Inputs are normalized with ``np.asarray(..) & 1`` so callers may pass bools,
ints, or anything array-like.  Row reduction is the single workhorse; rank,
kernels, solving, and membership tests are thin wrappers over it.

The matrices in this project are small (tens to a few thousand columns), so
a dense uint8 representation with vectorized row XOR is both the simplest
and, per the profiling guidance in the HPC notes, comfortably fast: the
inner loop XORs whole rows at once rather than iterating entries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gf2_row_reduce",
    "gf2_rank",
    "gf2_kernel",
    "gf2_solve",
    "gf2_matmul",
    "gf2_row_space",
    "in_row_space",
]


def _as_gf2(a: np.ndarray) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    return (arr.astype(np.uint8)) & 1


def gf2_row_reduce(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2).

    Returns ``(rref, pivot_columns)`` where ``rref`` is a fresh array and
    ``pivot_columns`` lists, in order, the column index of each pivot.
    """
    m = _as_gf2(a).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # Find a pivot row at or below r in column c.
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        # Eliminate column c from every other row that has a 1 there.
        elim = np.nonzero(m[:, c])[0]
        elim = elim[elim != r]
        if elim.size:
            m[elim] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def gf2_rank(a: np.ndarray) -> int:
    """Rank of ``a`` over GF(2)."""
    _, pivots = gf2_row_reduce(a)
    return len(pivots)


def gf2_row_space(a: np.ndarray) -> np.ndarray:
    """A basis (as rows, in RREF) for the row space of ``a``."""
    rref, pivots = gf2_row_reduce(a)
    return rref[: len(pivots)]


def gf2_kernel(a: np.ndarray) -> np.ndarray:
    """Basis for the right null space: rows ``v`` with ``a @ v = 0 (mod 2)``.

    Returns an array of shape ``(nullity, cols)``; empty (0, cols) when the
    map is injective.
    """
    m = _as_gf2(a)
    rows, cols = m.shape
    rref, pivots = gf2_row_reduce(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        # Back-substitute: pivot row r has its pivot at pivots[r].
        for r, pc in enumerate(pivots):
            if rref[r, fc]:
                basis[i, pc] = 1
    return basis


def gf2_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve ``a @ x = b (mod 2)`` for one particular solution.

    Returns a length-``cols`` uint8 vector, or ``None`` when inconsistent.
    """
    m = _as_gf2(a)
    rhs = np.asarray(b).astype(np.uint8).ravel() & 1
    rows, cols = m.shape
    if rhs.shape[0] != rows:
        raise ValueError(f"dimension mismatch: {rows} rows vs b of length {rhs.shape[0]}")
    aug = np.concatenate([m, rhs[:, np.newaxis]], axis=1)
    rref, pivots = gf2_row_reduce(aug)
    # Inconsistent iff some pivot lands in the augmented column.
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, pc in enumerate(pivots):
        x[pc] = rref[r, cols]
    return x


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product mod 2.  Accepts vectors for either argument.

    Runs through the float64 BLAS matmul: 0/1 dot products are exact in
    float64 up to 2^53 summands (far beyond any shot count here) and BLAS
    is an order of magnitude faster than NumPy's integer matmul loop at
    Monte-Carlo batch sizes.  It serves the unpacked ``(shots, n)``
    syndrome decodes (``CSSCode.correct_frame``, used by
    ``code_capacity_memory`` and the reference decoders in the tests).
    The circuit-level shot path of ``memory_experiment`` does not call it:
    it decodes packed planes with word-wise XOR/AND
    (:mod:`repro.codes.packed_decode`).
    """
    aa = np.asarray(a).astype(np.uint8) & 1
    bb = np.asarray(b).astype(np.uint8) & 1
    prod = aa.astype(np.float64) @ bb.astype(np.float64)
    return (np.rint(prod).astype(np.int64) & 1).astype(np.uint8)


def gf2_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a square GF(2) matrix (raises if singular)."""
    m = _as_gf2(a)
    k = m.shape[0]
    if m.shape[1] != k:
        raise ValueError("matrix must be square")
    aug = np.concatenate([m, np.eye(k, dtype=np.uint8)], axis=1)
    rref, pivots = gf2_row_reduce(aug)
    if pivots[:k] != list(range(k)):
        raise ValueError("matrix is singular over GF(2)")
    return rref[:k, k:]


def in_row_space(a: np.ndarray, v: np.ndarray) -> bool:
    """Whether vector ``v`` is a GF(2) combination of the rows of ``a``."""
    m = _as_gf2(a)
    vv = np.asarray(v).astype(np.uint8).ravel() & 1
    base = gf2_rank(m)
    return gf2_rank(np.vstack([m, vv])) == base
