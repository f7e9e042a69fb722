"""Exact Gaussian elimination over prime fields.

Matrices are kept in int64 numpy arrays.  With p bounded by sqrt(2^63) the
rank-1 update ``row_i - f * row_r`` cannot overflow, and a block update
reduces each product mod p before summing, so every intermediate stays
exact.
"""

from __future__ import annotations

import math

import numpy as np

# (p-1)^2 plus one subtraction must fit in a signed 64-bit integer.
MAX_PRIME = math.isqrt(2**63 - 1) - 1


def _check_modulus(p: int) -> None:
    if p < 2 or p > MAX_PRIME:
        raise ValueError(f"prime must be in [2, {MAX_PRIME}]")


def _as_array(rows, p: int) -> np.ndarray:
    _check_modulus(p)
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


def _reduce_mod(a: np.ndarray, coeffs: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray:
    # a - coeffs @ basis mod p, each product reduced before the sum.
    return (a - (coeffs[:, :, None] * basis[None] % p).sum(1)) % p


class Echelon:
    """Reduced row echelon form over F_p, extended one block of rows at a time.

    ``extend`` reduces a new block against the pivot rows so far (each pivot
    row is zero at every other pivot column, so one vectorized step clears
    them all), eliminates what is left, and clears the new pivot columns from
    the older rows.  The form is therefore the reduced row echelon form of
    all rows so far, ``rank`` is their rank after each block, and
    ``independent_columns`` reads the flags from it.
    """

    def __init__(self, n_cols: int, p: int):
        _check_modulus(p)
        self.p = p
        self.basis = np.zeros((0, n_cols), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def extend(self, rows) -> int:
        """Add a block of rows; returns the rank of all rows so far."""
        p = self.p
        a = _as_array(rows, p)
        if self.pivots:
            a = _reduce_mod(a, a[:, self.pivots], self.basis, p)
        r, pivots = _eliminate(a, p)
        new = a[:r]
        for i in range(r - 1, 0, -1):
            col = new[:i, pivots[i]]
            if col.any():
                new[:i] = (new[:i] - col[:, None] * new[i][None, :]) % p
        if r:
            basis = self.basis
            if self.pivots:
                basis = _reduce_mod(basis, basis[:, pivots], new, p)
            self.basis = np.concatenate([basis, new])
            self.pivots += pivots
        return self.rank

    def independent_columns(self) -> list[bool]:
        """For each column, whether it is independent of the others.

        Column j is independent of the others exactly when e_j lies in the
        row space, that is when j is a pivot column whose pivot row is the
        unit vector e_j; equivalently, deleting column j drops the rank by one.
        """
        independent = [False] * self.basis.shape[1]
        for i, c in enumerate(self.pivots):
            independent[c] = np.count_nonzero(self.basis[i]) == 1
        return independent

