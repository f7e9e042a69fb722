"""Exact Gaussian elimination over prime fields, and the primality test
for their moduli.

``Echelons`` holds the echelon forms of one analysis, one per trial or
run, stacked in one int64 numpy array and extended in place.  With p
bounded by sqrt(2^63) the product of two residues, which the elimination
of a block reduces before it subtracts it, cannot overflow.  A block update is an int64 matrix
product with its left factor split into 16-bit limbs: p is below 2^32, so
each product of a limb and an entry is below 2^48, and a sum of fewer than
2^15 of them, one per column of a form of at most ``MAX_COLS`` columns,
stays below 2^63.  Every intermediate stays exact.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# (p-1)^2 plus one subtraction must fit in a signed 64-bit integer.
MAX_PRIME = math.isqrt(2**63 - 1) - 1
# The widest echelon form whose block products stay exact (module docstring).
MAX_COLS = 2**15 - 1


# The least odd composite that passes Miller-Rabin to bases 2, 3, 5 and 7.
_MR_BOUND = 3_215_031_751


@functools.lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Whether n is prime, for n below 3,215,031,751 (above MAX_PRIME).

    Deterministic Miller-Rabin with bases 2, 3, 5 and 7, which no composite
    below that bound passes.  The engines test their primes on every
    analysis, so the last 64 answers are kept.
    """
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is exact only below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_modulus(p: int) -> None:
    if p < 2 or p > MAX_PRIME:
        raise ValueError(f"prime must be in [2, {MAX_PRIME}]")


def _matmul(x: np.ndarray, y: np.ndarray, P: np.ndarray) -> np.ndarray:
    """An int64 array congruent to x @ y mod P, for stacks of matrices with
    entries in [0, p) and at most MAX_COLS columns in x.  x is split into
    16-bit limbs: the high limb's product is reduced and shifted below 2^48,
    and the low limb's sums at most MAX_COLS products below 2^48 onto it."""
    out = (x >> 16) @ y % P
    out <<= 16
    out += (x & 0xFFFF) @ y
    return out


class Echelons:
    """Reduced row echelon forms over prime fields, one per prime given,
    all of ``n_cols`` columns and extended together one block of rows at a
    time.

    The forms are stacked in one array: ``B[f, c]`` is form f's pivot row of
    column c, or zero when c is not one of its pivot columns.
    ``pivots[f]`` lists form f's pivot columns in the order they became
    pivots, and ``P[f]`` is its prime.  ``extend`` reduces each new block
    against its form's pivot rows so far (each pivot row is zero at every
    other pivot column, so one vectorized step clears them all), eliminates
    what is left, and clears the new pivot columns from the older rows, in
    place.  Each form is therefore the reduced row echelon form of all its
    rows so far.  A block of zeros leaves its form as it was.
    """

    def __init__(self, n_cols: int, primes):
        for p in primes:
            _check_modulus(p)
        if n_cols > MAX_COLS:
            raise ValueError(f"an echelon form has at most {MAX_COLS} columns")
        self.primes = list(primes)
        self.P = np.array(self.primes, dtype=np.int64)[:, None, None]
        self.B = np.zeros((len(self.primes), n_cols, n_cols), dtype=np.int64)
        self.pivots: list[list[int]] = [[] for _ in self.primes]

    @property
    def ranks(self) -> list[int]:
        return [len(pivots) for pivots in self.pivots]

    def independent_columns(self) -> np.ndarray:
        """(forms, n_cols) bool: whether each column of each form is
        independent of the others.

        Column j is independent of the others exactly when e_j lies in the
        row space, that is when j is a pivot column whose pivot row is the
        unit vector e_j; equivalently, deleting column j drops the rank by one.
        The row of a column that is not a pivot is zero, so these are the
        rows with one nonzero entry.
        """
        return (self.B != 0).sum(2) == 1

    def extend(self, blocks) -> list[int]:
        """Extend each form by its block of rows, the blocks all of one
        shape; returns the ranks of all rows so far.

        Each step runs over all the forms at once; the reduction against the
        old pivot rows and the clearing of the new pivot columns are one
        exact matrix product each.  A column that is a pivot of no form has
        a zero row, so the pivot columns of all the forms serve each of them.
        """
        B, P, primes = self.B, self.P, self.primes
        a = np.asarray(blocks, dtype=np.int64).reshape(len(primes), -1, B.shape[1]) % P
        old = sorted(set().union(*self.pivots))
        if old:
            a = (a - _matmul(a[:, :, old], B[:, old], P)) % P
        # Gauss-Jordan elimination of the blocks, one row position at a time,
        # over all the forms; a row that is zero scales by 0 and clears nothing.
        forms = np.arange(len(primes))
        found = []
        for i in range(a.shape[1]):
            lead = (a[:, i] != 0).argmax(1)
            col = a[forms, :, lead]
            v = col[:, i]
            s = v.nonzero()[0]
            if not s.size:
                continue
            inv = [pow(x, -1, p) if x else 0 for x, p in zip(v.tolist(), primes)]
            row = a[:, i] * np.array(inv, dtype=np.int64)[:, None] % P[:, 0]
            # Row i itself clears to 0 here and then takes the scaled row.  A
            # product is below p^2 < 2^63, so the difference needs no reduction
            # before the last.
            a = (a - col[:, :, None] * row[:, None]) % P
            a[:, i] = row
            found.append((s, lead, i))
        if not found:
            return self.ranks
        if old:
            # Clear the new pivot columns from the old pivot rows, the only
            # nonzero ones.  Row i of a form with no pivot in it is zero, so
            # its lead column, whatever it is, clears nothing.
            Bo = B[:, old]
            leads = np.array([lead for _, lead, _ in found]).T
            cols = Bo[forms[:, None], :, leads].swapaxes(1, 2)
            B[:, old] = (Bo - _matmul(cols, a[:, [i for _, _, i in found]], P)) % P
        # A form's row of a new pivot column is zero until it takes the pivot row.
        for s, lead, i in found:
            B[s, lead[s]] = a[s, i]
            for f, c in zip(s.tolist(), lead[s].tolist()):
                self.pivots[f].append(c)
        return self.ranks
