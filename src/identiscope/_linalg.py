"""Exact Gaussian elimination over prime fields, the primality test for
their moduli, the run settings ``Options`` that the CLI, ``bench`` and both
engines share, and ``check_settings``, their one check.

``Echelons`` holds the echelon forms of one analysis, one per trial or
run, stacked in one int64 numpy array and extended in place.  With p
bounded by sqrt(2^63) the product of two residues, which the elimination
reduces before it subtracts the next, cannot overflow.  The reduction of a
new block against the old pivot rows is an int64 matrix product with its
left factor split into 16-bit limbs: p is below 2^32, so each product of a
limb and an entry is below 2^48, and a sum of fewer than 2^15 of them, one
per column of a form of at most ``MAX_COLS`` columns, stays below 2^63.
Every intermediate stays exact.

A column is settled once it is a pivot column of every form.  Every row an
extension adds or changes is 0 at each settled column, before and after
(see ``Echelons.extend``), so the work of an extension is done on the
unsettled columns alone.  As the forms fill up, that is fewer and fewer
columns, as in the blocked elimination mod p of FFLAS-FFPACK (Dumas,
Giorgi & Pernet, ACM TOMS 2008).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# (p-1)^2 plus one subtraction must fit in a signed 64-bit integer.
MAX_PRIME = math.isqrt(2**63 - 1) - 1
# The primes a user gives exceed this, so that a random point rarely hits a root.
MIN_PRIME = 2**20
# Both engines' primes when none are given; the symbolic engine runs at the first.
DEFAULT_PRIMES = (2147483647, 2147483629, 2147483587)
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


@dataclass(frozen=True)
class Options:
    """The settings of one analysis, taken by both engines.

    ``primes=None`` keeps the three primes of ``DEFAULT_PRIMES``, and the
    symbolic engine runs at the first; ``trials=None`` keeps the engine's
    default.
    ``max_level`` caps both engines at one block, level k of the symbolic
    matrix being block k of ffprob's (default n_z - 1), and ``deadline`` is
    an absolute ``time.monotonic()`` bound.
    """

    primes: tuple[int, ...] | None = None
    trials: int | None = None
    seed: int = 0
    max_level: int | None = None
    deadline: float | None = None

    def __post_init__(self):
        """Raise TypeError naming the first field of the wrong type, a bool
        counting as one; ``check_settings`` checks the ranges."""
        if not isinstance(self.primes, tuple | list | None):
            raise TypeError(f"Options.primes must be a tuple of ints, not {self.primes!r}")
        checks = [("trials", self.trials, int | None, "an int or None"),
                  ("seed", self.seed, int, "an int"),
                  ("max_level", self.max_level, int | None, "an int or None"),
                  ("deadline", self.deadline, int | float | None, "a number or None")]
        checks += [("primes", q, int, "a tuple of ints") for q in self.primes or ()]
        for name, value, kind, text in checks:
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"Options.{name} must be {text}, not {value!r}")


def check_settings(primes: tuple[int, ...] | None, trials: int | None = None,
                   max_level: int | None = None, timeout_s: float | None = None,
                   floor: int = MIN_PRIME) -> None:
    """Raise ValueError naming the first setting that the engines do not
    take: no prime, a prime outside (floor, MAX_PRIME] or given twice,
    trials < 1, max_level < 0 or timeout_s <= 0; None keeps a setting's
    default.  Only the symbolic engine lowers ``floor``, to 1, for the small
    primes of the small-prime sweeps."""
    if primes is not None and not primes:
        raise ValueError("at least one prime is required")
    lo = "2^20" if floor == MIN_PRIME else floor
    for i, p in enumerate(primes or ()):
        if not (floor < p <= MAX_PRIME and is_prime(p)):
            raise ValueError(f"{p} is not a prime in ({lo}, {MAX_PRIME}]")
        if p in primes[:i]:
            raise ValueError(f"prime {p} is repeated")
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1")
    if max_level is not None and max_level < 0:
        raise ValueError("max_level must be >= 0")
    if timeout_s is not None and not timeout_s > 0:
        raise ValueError("timeout_s must be a positive number of seconds")


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
    other pivot column, so one vectorized step clears them all), then
    eliminates what is left, clearing each new pivot column from the new and
    the old rows alike, in place.  Each form is therefore the reduced row
    echelon form of all its rows so far.  A block of zeros leaves its form
    as it was.

    The object also keeps how many forms pivot on each column, and from
    that the union of the pivot columns, the unsettled columns and where
    the old pivot rows' entries at those columns lie in ``B``.
    """

    def __init__(self, n_cols: int, primes):
        if not all(2 <= p <= MAX_PRIME for p in primes):
            raise ValueError(f"prime must be in [2, {MAX_PRIME}]")
        if n_cols > MAX_COLS:
            raise ValueError(f"an echelon form has at most {MAX_COLS} columns")
        self.primes = list(primes)
        self.P = np.array(self.primes, dtype=np.int64)[:, None, None]
        self.B = np.zeros((len(self.primes), n_cols, n_cols), dtype=np.int64)
        self.pivots: list[list[int]] = [[] for _ in self.primes]
        self._forms = np.arange(len(self.primes))
        # Row c of form f starts at entry (f * n_cols + c) * n_cols of _flat.
        self._flat = self.B.reshape(-1)
        self._starts = (self._forms[:, None] * n_cols + np.arange(n_cols)) * n_cols
        # How many forms pivot on each column.
        self._count = np.zeros(n_cols, dtype=np.int64)
        self._settle()

    def _settle(self):
        """Derive from ``_count`` the union of the pivot columns, the
        unsettled columns and the indices into ``_flat`` of the old pivot
        rows' entries at those columns."""
        self._old = self._count.nonzero()[0]
        self._cols = (self._count < len(self.primes)).nonzero()[0]
        self._region = self._entries(self._starts.take(self._old, 1))

    def _entries(self, starts) -> np.ndarray:
        """The indices into ``_flat`` of the unsettled entries of the rows
        that start at ``starts``."""
        return starts[..., None] + self._cols

    @property
    def ranks(self) -> list[int]:
        return list(map(len, self.pivots))

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

        Each step runs over all the forms at once, on the unsettled columns
        only, which is exact.  An old pivot row is 1 at its own column and 0
        at its form's other pivot columns, so a new row reduced against them
        is 0 at every pivot column of its form, and so at every settled
        column.  The elimination then only subtracts multiples of such rows
        from each other and from the old pivot rows, so no row changes at a
        settled column.  The reduction is one exact matrix product; a column
        that is a pivot of no form has a zero row, so the pivot columns of
        all the forms serve each of them.
        """
        B, P, primes, forms = self.B, self.P, self.primes, self._forms
        old, cols = self._old, self._cols
        a = np.asarray(blocks, dtype=np.int64).reshape(len(primes), -1, B.shape[1]) % P
        r = a.shape[1]
        if not (r and cols.size):
            return self.ranks  # no rows, or every form has full rank
        # The new rows, reduced, at the unsettled columns, over the old pivot
        # rows there; with no old pivot rows the product is empty and zero.
        Bo = self._flat.take(self._region)
        a = (a.take(cols, 2) - _matmul(a.take(old, 2), Bo, P)) % P
        a = np.concatenate((a, Bo), 1)
        # Gauss-Jordan elimination of the new rows, one row position at a
        # time, over all the forms; a row that is zero scales by 0 and clears
        # nothing.  V[i][f] is the pivot that row i of form f found at its
        # lead column L[i][f], or 0 when the row is zero and stays so.
        V, L = [], []
        tmp = np.empty_like(a)
        for i in range(r):
            lead = (a[:, i] != 0).argmax(1)
            col = a[forms, :, lead]
            v = col[:, i]
            V.append(v)
            L.append(lead)
            if not np.count_nonzero(v):
                continue
            inv = [pow(x, -1, p) if x else 0 for x, p in zip(v.tolist(), primes)]
            row = a[:, i] * np.array(inv, dtype=np.int64)[:, None] % P[:, 0]
            # Every other row, old or new, loses its multiple of the scaled
            # row; row i itself clears to 0 here and then takes it.  A product
            # is below p^2 < 2^63, so the difference needs no reduction before
            # the last.
            np.multiply(col[:, :, None], row[:, None], out=tmp)
            a -= tmp
            a %= P
            a[:, i] = row
        i, f = np.array(V).nonzero()
        self._flat[self._region] = a[:, r:]
        # A form's row of a new pivot column is zero until it takes the pivot
        # row, which is zero at every settled column.
        c = cols[np.array(L)[i, f]]
        self._flat[self._entries(self._starts[f, c])] = a[f, i]
        for form, column in zip(f.tolist(), c.tolist()):
            self.pivots[form].append(column)
        self._count += np.bincount(c, minlength=self._count.size)
        self._settle()
        return self.ranks
