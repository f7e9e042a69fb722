import math

import pytest
from hypothesis import given, settings, strategies as st

from identiscope import lie_orc
import numpy as np

from identiscope import _linalg
from identiscope._linalg import MAX_COLS, MAX_PRIME, Echelons, is_prime
from identiscope.bench import corpus_dir
from identiscope.ffprob import DEFAULT_PRIMES, analyze_ffprob
from identiscope.model import load_model

from oracles import deleted_column_ranks, rank_mod_p, record_rows, rows_of

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
    """(rank, independent columns) of one echelon form extended once with
    all rows."""
    ech = Echelons(len(rows[0]), [p])
    ech.extend([rows])
    return ech.ranks[0], ech.independent_columns()[0].tolist()


def _basis(forms, f):
    """Form f's pivot rows, in the order their columns became pivots."""
    return forms.B[f][forms.pivots[f]]


def _check_against_oracle(rows, p):
    r = rank_mod_p(rows, p)
    rank, independent = _one_block(rows, p)
    assert rank == r
    assert independent == [d == r - 1 for d in deleted_column_ranks(rows, p)]


@settings(max_examples=300, deadline=None)
@given(low_rank_matrices())
def test_independent_columns_matches_deleted_rank_oracle(case):
    _check_against_oracle(*case)


def _reference_rank(rows, p):
    """Rank over F_p by Gauss-Jordan elimination on Python ints."""
    m = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i, row in enumerate(m):
            if i != rank and row[c]:
                m[i] = [(a - row[c] * b) % p for a, b in zip(row, m[rank])]
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(low_rank_matrices(), st.data())
def test_rank_with_zero_columns_matches_reference(case, data):
    # Zero columns spliced in anywhere change no rank, whether the rows come
    # all at once or one at a time.
    rows, p = case
    at = data.draw(st.lists(st.integers(0, len(rows[0])), max_size=4))
    for j in sorted(at, reverse=True):
        rows = [row[:j] + [0] + row[j:] for row in rows]
    r = _reference_rank(rows, p)
    assert rank_mod_p(rows, p) == r
    ech = Echelons(len(rows[0]), [p])
    for row in rows:
        ech.extend([[row]])
    assert ech.ranks == [r]


def _trimmed(cases):
    """The cases cut to the fewest rows and columns among them, and those
    counts."""
    n_cols = min(len(rows[0]) for rows, _ in cases)
    n_rows = min(len(rows) for rows, _ in cases)
    return [([row[:n_cols] for row in rows[:n_rows]], p) for rows, p in cases], n_cols, n_rows


@settings(max_examples=100, deadline=None)
@given(st.lists(low_rank_matrices(), min_size=1, max_size=4), st.data())
def test_extend_matches_each_form_alone(cases, data):
    # Forms over different primes, each extended by blocks of one shape, end
    # where each form extended alone does.
    cases, n_cols, n_rows = _trimmed(cases)
    cut = data.draw(st.integers(0, n_rows))
    together = Echelons(n_cols, [p for _, p in cases])
    for lo, hi in ((0, cut), (cut, n_rows)):
        ranks = together.extend([rows[lo:hi] for rows, _ in cases])
        assert ranks == [rank_mod_p(rows[:hi], p) if hi else 0 for rows, p in cases]
    flags = together.independent_columns().tolist()
    for f, (rows, p) in enumerate(cases):
        alone = Echelons(n_cols, [p])
        alone.extend([rows])
        assert together.pivots[f] == alone.pivots[0]
        assert (_basis(together, f) == _basis(alone, 0)).all()
        r = together.ranks[f]
        assert flags[f] == [d == r - 1 for d in deleted_column_ranks(rows, p)]


@settings(max_examples=200, deadline=None)
@given(st.lists(low_rank_matrices(), min_size=2, max_size=4), st.data())
def test_zero_blocks_leave_their_form_unchanged(cases, data):
    # One form takes its first rows and then blocks of zeros, as a stopped
    # ffprob run does, while the others extend.  From then on its B and
    # pivots stay byte for byte what they were, and every form's rank is
    # that of its nonzero rows.
    cases, n_cols, n_rows = _trimmed(cases)
    idle = data.draw(st.integers(0, len(cases) - 1))
    stop = data.draw(st.integers(0, n_rows))
    cuts = sorted({stop, *data.draw(st.lists(st.integers(0, n_rows), max_size=2))})
    forms = Echelons(n_cols, [p for _, p in cases])
    received = [[] for _ in cases]
    for lo, hi in zip([0] + cuts, cuts + [n_rows]):
        blocks = [rows[lo:hi] for rows, _ in cases]
        if lo >= stop:
            blocks[idle] = [[0] * n_cols for _ in range(hi - lo)]
        B, pivots = forms.B[idle].tobytes(), list(forms.pivots[idle])
        ranks = forms.extend(blocks)
        if lo >= stop:
            assert forms.B[idle].tobytes() == B and forms.pivots[idle] == pivots
        for got, block in zip(received, blocks):
            got += [row for row in block if any(row)]
        assert ranks == [rank_mod_p(got, p) for got, (_, p) in zip(received, cases)]


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
    ech = Echelons(len(rows[0]), [p])
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        if hi > lo:
            assert ech.extend([rows[lo:hi]]) == [rank_mod_p(rows[:hi], p)]
        assert ech.ranks == [rank_mod_p(rows[:hi], p) if hi else 0]
    flags = ech.independent_columns()[0].tolist()
    assert (ech.ranks[0], flags) == _one_block(rows, p)
    r = ech.ranks[0]
    assert flags == [d == r - 1 for d in deleted_column_ranks(rows, p)]


def test_echelon_block_update_at_largest_prime():
    # Near sqrt(2^63) two unreduced products already overflow int64.
    p = 3037000493
    q = p - 1
    # Block 1 is q * (row 0 + row 1) mod p, so it must reduce to zero.
    blocks = [[[1, 0, q, q, 5], [0, 1, q, q, q]],
              [[q, q, 2, 2, p - 4]],
              [[q, q, q, q - 1, 7], [q, 1, 3, q, q]]]
    ech = Echelons(5, [p])
    rows = []
    for block, want in zip(blocks, (2, 2, 4)):
        rows += block
        assert ech.extend([block]) == [rank_mod_p(rows, p)] == [want]
    r = ech.ranks[0]
    assert ech.independent_columns()[0].tolist() == \
        [d == r - 1 for d in deleted_column_ranks(rows, p)]


BIG_PRIMES = (3037000493, 2**31 - 1)  # the largest prime <= MAX_PRIME, and 2^31 - 1


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_extend_exact_at_the_largest_primes(data):
    # Forms up to 64 columns wide, of rank at most k, whose entries are
    # small sums of +-1 and so mostly near p: the block products sum many
    # terms with high limbs near 2^16.  Ranks equal rank_mod_p's, which uses
    # no block product, and the two forms end where each alone does.
    n = data.draw(st.integers(1, 64))
    n_rows = data.draw(st.integers(1, 80))
    k = data.draw(st.integers(0, min(n, n_rows)))
    sign = st.sampled_from((-1, 0, 1))
    cases = []
    for p in BIG_PRIMES:
        B = data.draw(st.lists(st.lists(sign, min_size=k, max_size=k), min_size=n_rows,
                               max_size=n_rows))
        C = data.draw(st.lists(st.lists(st.sampled_from((-1, 1, p - 1)), min_size=n,
                                        max_size=n), min_size=k, max_size=k))
        cases.append(([[sum(B[i][t] * C[t][j] for t in range(k)) % p for j in range(n)]
                       for i in range(n_rows)], p))
    cuts = sorted(data.draw(st.lists(st.integers(0, n_rows), max_size=3)))
    together = Echelons(n, [p for _, p in cases])
    for lo, hi in zip([0] + cuts, cuts + [n_rows]):
        ranks = together.extend([rows[lo:hi] for rows, _ in cases])
        assert ranks == [rank_mod_p(rows[:hi], p) if hi else 0 for rows, p in cases]
    for f, (rows, p) in enumerate(cases):
        assert together.ranks[f] == _reference_rank(rows, p) <= k
        alone = Echelons(n, [p])
        alone.extend([rows])
        assert together.pivots[f] == alone.pivots[0] and (together.B[f] == alone.B[0]).all()


@st.composite
def settling_forms(draw):
    """(n_cols, primes, rows, cuts, stops) for forms that share some pivot
    columns but not all.  Every form's first block holds a row led by each
    shared column (zero before it, nonzero at it), so the shared columns
    settle at once.  Form 0
    then takes a row led by each other column in its second block and
    reaches full rank; form 1's later rows lie in the shared span, so the
    settled columns stay a nonempty strict subset of the union.  Any other
    form takes rows led by a drawn set of further columns, mixed with sums
    of its rows so far, some of them zero.  From block ``stops[f]`` on (when not
    None), form f takes zero blocks."""
    n = draw(st.integers(3, 9))
    n_forms = draw(st.integers(2, 4))
    primes = [BIG_PRIMES[0]] + [draw(st.sampled_from(PRIMES + BIG_PRIMES))
                                for _ in range(n_forms - 1)]
    shared = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    rest = [c for c in range(n) if c not in shared]
    leads = [rest, []] + [sorted(draw(st.sets(st.sampled_from(rest)))) for _ in primes[2:]]
    tail = len(rest) + draw(st.integers(2, 6))  # rows after the first block
    rows = []
    for f, (p, extra) in enumerate(zip(primes, leads)):
        unit = st.integers(1, p - 1)

        def led(c):
            return [0] * c + [draw(unit)] + [draw(st.integers(0, p - 1)) for _ in range(n - c - 1)]

        basis = [led(c) for c in shared + extra]
        later = basis[len(shared):]
        for _ in range(tail - len(later)):
            coef = [draw(st.integers(0, p - 1)) for _ in basis]
            later.append([sum(k * b[j] for k, b in zip(coef, basis)) % p for j in range(n)])
        if f > 1:
            later = draw(st.permutations(later))
        rows.append(basis[:len(shared)] + later)
    # Form 0's second block holds all its led rows; at least two blocks
    # follow.
    second = len(shared) + len(rest)
    cuts = sorted({len(shared), second, *draw(
        st.lists(st.integers(second + 1, len(shared) + tail - 1), min_size=1, max_size=3))})
    stops = [None, None] + [draw(st.none() | st.integers(1, len(cuts))) for _ in primes[2:]]
    return n, primes, rows, cuts, stops


@settings(max_examples=150, deadline=None)
@given(settling_forms())
def test_extend_with_settled_columns_matches_each_form_alone(case):
    # Forms over mixed primes, the largest prime allowed among them, extended
    # by at least three blocks while some columns are settled (a pivot of
    # every form) and others are not; one form reaches full rank and some
    # take zero blocks while the others keep growing.  Every rank equals
    # rank_mod_p of the rows so far; at the end every form is, byte for byte,
    # the form extended alone with its nonzero rows, and its flags are those
    # of column deletion.
    n, primes, rows, cuts, stops = case
    forms = Echelons(n, primes)
    received = [[] for _ in primes]
    bounds = list(zip([0] + cuts, cuts + [len(rows[0])]))
    assert len(bounds) >= 4
    for b, (lo, hi) in enumerate(bounds):
        blocks = [r[lo:hi] if stop is None or b < stop else [[0] * n] * (hi - lo)
                  for r, stop in zip(rows, stops)]
        for got, block in zip(received, blocks):
            got += [row for row in block if any(row)]
        ranks = forms.extend(blocks)
        assert ranks == [rank_mod_p(got, p) for got, p in zip(received, primes)]
    assert forms.ranks[0] == n
    settled = set.intersection(*map(set, forms.pivots))
    assert 0 < len(settled) < len(set.union(*map(set, forms.pivots)))
    flags = forms.independent_columns().tolist()
    for f, (got, p) in enumerate(zip(received, primes)):
        alone = Echelons(n, [p])
        alone.extend([got])
        assert forms.pivots[f] == alone.pivots[0]
        assert forms.B[f].tobytes() == alone.B[0].tobytes()
        r = forms.ranks[f]
        assert flags[f] == [d == r - 1 for d in deleted_column_ranks(got, p)]


@pytest.mark.parametrize("name", ["hiv2", "nfkb1", "gene_p53"])
def test_engine_rows_give_the_same_forms_under_any_blocks(name, monkeypatch):
    # The rows both engines feed their forms, extended again one row per
    # call and all as one block: the settled columns evolve differently
    # under each, and all three end byte for byte alike.
    record_rows(monkeypatch)
    made = []
    init = Echelons.__init__

    def keep(forms, *args):
        init(forms, *args)
        made.append(forms)

    monkeypatch.setattr(Echelons, "__init__", keep)
    md = load_model(str(corpus_dir() / f"{name}.idm"))
    analyze_ffprob(md)
    lie_orc.analyze_symbolic(md)
    monkeypatch.undo()
    made = [forms for forms in made if any(forms.ranks)]
    assert len(made) >= 2
    for forms in made:
        n, primes = forms.B.shape[1], forms.primes
        rows = [rows_of(forms, f) for f in range(len(primes))]
        whole, single = Echelons(n, primes), Echelons(n, primes)
        whole.extend(rows)
        for k in range(len(rows[0])):
            single.extend([[r[k]] for r in rows])
        for again in (whole, single):
            assert again.pivots == forms.pivots
            assert again.B.tobytes() == forms.B.tobytes()


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_block_product_exact_at_the_column_bound(p):
    # MAX_COLS products of (p - 1)^2, the largest sum a block product takes.
    x = np.full((1, 2, MAX_COLS), p - 1, dtype=np.int64)
    P = np.array([p], dtype=np.int64)[:, None, None]
    got = _linalg._matmul(x, x.transpose(0, 2, 1), P)
    assert (got >= 0).all() and (got % p == MAX_COLS * (p - 1) ** 2 % p).all()
    with pytest.raises(ValueError):
        Echelons(MAX_COLS + 1, [p])


@pytest.mark.parametrize("p", [1, MAX_PRIME + 2])
def test_echelons_reject_a_modulus_out_of_range(p):
    with pytest.raises(ValueError) as exc:
        Echelons(3, [p])
    assert str(exc.value) == "prime must be in [2, 3037000498]"


@pytest.mark.parametrize("p", PRIMES)
def test_rank_of_no_rows_is_zero(p):
    assert rank_mod_p([], p) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_echelon_extended_by_no_rows_is_unchanged(p):
    ech = Echelons(3, [p])
    assert ech.extend([[]]) == [0]
    assert _basis(ech, 0).shape == (0, 3) and ech.pivots == [[]]
    ech.extend([[[1, 1, 0], [0, 1, 1]]])
    basis, pivots = _basis(ech, 0), list(ech.pivots[0])
    assert ech.extend([[]]) == [2]
    assert (_basis(ech, 0) == basis).all() and ech.pivots == [pivots]
    assert ech.independent_columns()[0].tolist() == [d == 1 for d in deleted_column_ranks(
        [[1, 1, 0], [0, 1, 1]], p)]


def _trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == \
        [n for n in range(10**5) if _trial_division(n)]


@pytest.mark.parametrize("n", [561, 2047, 3277])
def test_is_prime_rejects_pseudoprimes(n):
    # 561 is a Carmichael number; 2047 and 3277 are strong pseudoprimes to base 2.
    assert not is_prime(n)


def test_is_prime_accepts_the_engines_primes():
    assert all(is_prime(p) for p in DEFAULT_PRIMES + (3037000493,))
    assert 3037000493 <= MAX_PRIME
    with pytest.raises(ValueError):
        is_prime(3_215_031_751)  # the first strong pseudoprime to bases 2, 3, 5, 7
