import pytest
from hypothesis import given, settings, strategies as st

from identiscope._linalg import independent_columns, rank_mod_p

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


def _check_against_oracle(rows, p):
    r = rank_mod_p(rows, p)
    rank, independent = independent_columns(rows, p)
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
