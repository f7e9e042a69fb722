"""Exact Gaussian elimination over prime fields.

Matrices are kept in int64 numpy arrays.  With p bounded by sqrt(2^63) the
rank-1 update ``row_i - f * row_r`` cannot overflow, so every intermediate
stays exact.
"""

from __future__ import annotations

import math

import numpy as np

# (p-1)^2 plus one subtraction must fit in a signed 64-bit integer.
MAX_PRIME = math.isqrt(2**63 - 1) - 1


def _as_array(rows, p: int) -> np.ndarray:
    if p < 2 or p > MAX_PRIME:
        raise ValueError(f"prime must be in [2, {MAX_PRIME}]")
    a = np.array(rows, dtype=np.int64)
    if a.ndim != 2:
        a = a.reshape(len(rows), -1)
    return a % p


def _eliminate(a: np.ndarray, p: int) -> tuple[int, list[int]]:
    # In-place forward elimination; returns (rank, pivot column indices).
    n_rows, n_cols = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        col = a[r + 1:, c]
        if col.any():
            a[r + 1:] = (a[r + 1:] - col[:, None] * a[r][None, :]) % p
        pivots.append(c)
        r += 1
    return r, pivots


def rank_mod_p(rows, p: int) -> int:
    """Exact rank over F_p."""
    a = _as_array(rows, p)
    if a.size == 0:
        return 0
    r, _ = _eliminate(a, p)
    return r


def independent_columns(rows, p: int) -> tuple[int, list[bool]]:
    """Rank over F_p, and for each column whether it is independent of the others.

    One forward elimination, then back-substitution over the r pivot rows,
    gives the reduced row echelon form.  Column j is independent of the
    others exactly when e_j lies in the row space, that is when j is a pivot
    column whose pivot row is the unit vector e_j; equivalently, deleting
    column j drops the rank by one.
    """
    a = _as_array(rows, p)
    n_cols = a.shape[1]
    if a.size == 0:
        return 0, [False] * n_cols
    r, pivots = _eliminate(a, p)
    basis = a[:r]
    for i in range(r - 1, 0, -1):
        col = basis[:i, pivots[i]]
        if col.any():
            basis[:i] = (basis[:i] - col[:, None] * basis[i][None, :]) % p
    independent = [False] * n_cols
    for i, c in enumerate(pivots):
        independent[c] = np.count_nonzero(basis[i]) == 1
    return r, independent
