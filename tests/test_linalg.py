import pytest
from hypothesis import given, settings, strategies as st

from identiscope._linalg import Echelon, rank_mod_p

from oracles import deleted_column_ranks

PRIMES = (2, 3, 7, 101, 2**31 - 1)


@st.composite
def low_rank_matrices(draw):
    """(rows, p): a product of an n_rows x k and a k x n_cols matrix mod p,
    so rank <= k, with k = 0 giving the zero matrix."""
    p = draw(st.sampled_from(PRIMES))
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 8))
    k = draw(st.integers(0, min(n_rows, n_cols)))
    entry = st.integers(0, p - 1)

    def matrix(h, w):
        return draw(st.lists(st.lists(entry, min_size=w, max_size=w),
                             min_size=h, max_size=h))

    B, C = matrix(n_rows, k), matrix(k, n_cols)
    rows = [[sum(B[i][t] * C[t][j] for t in range(k)) % p for j in range(n_cols)]
            for i in range(n_rows)]
    return rows, p


def _one_block(rows, p):
    """(rank, independent columns) of an Echelon extended once with all rows."""
    ech = Echelon(len(rows[0]), p)
    ech.extend(rows)
    return ech.rank, ech.independent_columns()


def _check_against_oracle(rows, p):
    r = rank_mod_p(rows, p)
    rank, independent = _one_block(rows, p)
    assert rank == r
    assert independent == [d == r - 1 for d in deleted_column_ranks(rows, p)]


@settings(max_examples=300, deadline=None)
@given(low_rank_matrices())
def test_independent_columns_matches_deleted_rank_oracle(case):
    _check_against_oracle(*case)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("rows", [
    [[0, 0, 0], [0, 0, 0]],        # zero matrix
    [[0, 5, 0, 3]],                # one row
    [[1], [0], [4]],               # one column
    [[0], [0]],                    # zero column
    [[2, 4], [1, 2]],              # proportional columns
    [[1, 0, 1], [0, 1, 1]],        # every column in the span of the others
    [[1, 2, 0], [0, 0, 1], [3, 6, 2]],
])
def test_independent_columns_edge_cases(rows, p):
    _check_against_oracle(rows, p)


@settings(max_examples=300, deadline=None)
@given(low_rank_matrices(), st.data())
def test_echelon_extended_by_blocks(case, data):
    """Split into random blocks, the rank after each block equals the rank
    of the rows so far, and the final flags equal those of one block."""
    rows, p = case
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    ech = Echelon(len(rows[0]), p)
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        if hi > lo:
            assert ech.extend(rows[lo:hi]) == rank_mod_p(rows[:hi], p)
        assert ech.rank == (rank_mod_p(rows[:hi], p) if hi else 0)
    flags = ech.independent_columns()
    assert (ech.rank, flags) == _one_block(rows, p)
    r = ech.rank
    assert flags == [d == r - 1 for d in deleted_column_ranks(rows, p)]


def test_echelon_block_update_at_largest_prime():
    # Near sqrt(2^63) two unreduced products already overflow int64.
    p = 3037000493
    q = p - 1
    # Block 1 is q * (row 0 + row 1) mod p, so it must reduce to zero.
    blocks = [[[1, 0, q, q, 5], [0, 1, q, q, q]],
              [[q, q, 2, 2, p - 4]],
              [[q, q, q, q - 1, 7], [q, 1, 3, q, q]]]
    ech = Echelon(5, p)
    rows = []
    for block, want in zip(blocks, (2, 2, 4)):
        rows += block
        assert ech.extend(block) == rank_mod_p(rows, p) == want
    r = ech.rank
    assert ech.independent_columns() == [d == r - 1 for d in deleted_column_ranks(rows, p)]
