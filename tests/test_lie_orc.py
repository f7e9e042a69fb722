import pytest

from identiscope import symexpr as sx
from identiscope._linalg import rank_mod_p
from identiscope.bench import corpus_dir
from identiscope.errors import DivisionByZeroModP, RetriesExhausted
from identiscope.lie_orc import (
    LieCache,
    SymbolicOptions,
    _grad_row,
    _TrialPoint,
    analyze_symbolic,
    extended_lie_derivative,
)
from identiscope.model import augment, load_model, parse_model
from identiscope.report import verdict_for

from oracles import deleted_column_ranks

P = 2147483647

DECAY = "model decay\nstates x\nparams th\nddt x = -th*x\noutput y = x\n"
SUMRATES = "model sumrates\nstates x\nparams th1 th2\nddt x = -(th1+th2)*x\noutput y = x\n"
SCALING = "model scaling\nstates x\nparams th c\nddt x = th*x\noutput y = c*x\n"


def _aug(src):
    return augment(parse_model(src))


def _gradient_matrix(cache, k):
    """Symbolic gradient rows of Lie levels 0..k (level outer, output inner)."""
    return [row for j in range(k + 1) for row in cache.gradient_rows(j)]


# --------------------------------------------------------------------------
# extended Lie derivative
# --------------------------------------------------------------------------

def test_lie_of_state_along_decay_field():
    A = _aug(DECAY)
    x, th = (sx.sym(s) for s in A.z)
    assert extended_lie_derivative(x, A) == sx.mul(sx.NEG_ONE, th, x)


def test_lie_of_constant_is_zero():
    A = _aug(DECAY)
    assert extended_lie_derivative(sx.const(5), A) is sx.ZERO


def test_lie_c2m_a_output_by_hand_chain_rule():
    md = load_model(corpus_dir() / "c2m_a.idm")
    A = augment(md)
    y = A.outputs[0]  # x1/V
    got = extended_lie_derivative(y, A)
    # (dphi/dx1) * F_x1 with dphi/dx1 = 1/V
    by_hand = sx.div(A.F[0], sx.sym(md.params[3]))
    assert got == sx.simplify(by_hand)


def test_lie_constant_input_contributes_no_derivative_terms():
    src = "model m\nstates x\ninputs u constant\nddt x = -x + u\noutput y = u*x\n"
    A = _aug(src)
    u = sx.sym(A.model.known_inputs[0].symbol)
    x = sx.sym(A.z[0])
    # L(u*x) = u * (-x + u); no u' term because u is constant
    assert extended_lie_derivative(A.outputs[0], A) == sx.simplify(u * (-x + u))


def test_lie_generic_input_introduces_next_derivative():
    src = "model m\nstates x\ninputs u\nddt x = -x + u\noutput y = u*x\n"
    A = _aug(src)
    spec = A.model.known_inputs[0]
    u, u1 = sx.sym(spec.symbol), sx.sym(spec.symbol.derivative(1))
    x = sx.sym(A.z[0])
    assert extended_lie_derivative(A.outputs[0], A) == sx.simplify(u * (-x + u) + u1 * x)


# --------------------------------------------------------------------------
# matrix construction
# --------------------------------------------------------------------------

def test_gradient_rows_decay_level1():
    A = _aug(DECAY)
    rows = _gradient_matrix(LieCache(A), 1)
    x, th = (sx.sym(s) for s in A.z)
    assert (len(rows), len(rows[0])) == (2, 2)
    assert rows[0] == [sx.ONE, sx.ZERO]
    assert rows[1] == [sx.mul(sx.NEG_ONE, th), sx.mul(sx.NEG_ONE, x)]


def test_gradient_rows_level0_has_m_rows(corpus_entries):
    for entry in corpus_entries[:6]:
        A = augment(load_model(entry.path))
        rows = LieCache(A).gradient_rows(0)
        assert (len(rows), len(rows[0])) == (len(A.outputs), A.n_z)


def test_gradient_rows_sumrates_identical_param_columns():
    A = _aug(SUMRATES)
    rows = _gradient_matrix(LieCache(A), 1)
    x = sx.sym(A.z[0])
    th1, th2 = sx.sym(A.z[1]), sx.sym(A.z[2])
    assert rows[0] == [sx.ONE, sx.ZERO, sx.ZERO]
    minus_x = sx.mul(sx.NEG_ONE, x)
    assert rows[1] == [sx.simplify(-(th1 + th2)), minus_x, minus_x]


def test_lie_cache_extends_incrementally():
    A = _aug(DECAY)
    cache = LieCache(A)
    rows1 = _gradient_matrix(cache, 1)
    rows2 = _gradient_matrix(cache, 2)
    assert rows2[: len(rows1)] == rows1
    assert len(cache.lies) == 3


# --------------------------------------------------------------------------
# randomized rank
# --------------------------------------------------------------------------

def test_rank_decay_full():
    rep = analyze_symbolic(parse_model(DECAY), SymbolicOptions(max_level=1))
    assert rep.rank == 2


def test_rank_sumrates_capped_by_identical_columns():
    md = parse_model(SUMRATES)
    for level in (1, 2):
        assert analyze_symbolic(md, SymbolicOptions(max_level=level)).rank == 2


def test_rank_zero_matrix():
    src = "model m\nstates x\nddt x = -x\noutput y = 7\n"
    rep = analyze_symbolic(parse_model(src), SymbolicOptions(trials=2, max_level=1))
    assert rep.rank == 0


def test_rank_retries_exhausted_on_denominator_divisible_by_p():
    # The output carries a literal constant 1/p, which vanishes mod p at
    # every evaluation point.
    src = f"model m\nstates x\nparams k\nddt x = -k*x\noutput y = x/{P}\n"
    with pytest.raises(RetriesExhausted):
        analyze_symbolic(parse_model(src), SymbolicOptions(trials=1, max_level=1))


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

def test_classify_full_rank_skips_column_tests():
    rep = analyze_symbolic(parse_model(DECAY), SymbolicOptions(max_level=1))
    assert rep.verdicts["x"] == "observable"
    assert rep.verdicts["th"] == "SLI"


def test_classify_sumrates_by_column_deletion():
    rep = analyze_symbolic(parse_model(SUMRATES), SymbolicOptions(max_level=2))
    assert rep.rank == 2
    assert rep.verdicts["x"] == "observable"  # deleting x drops rank to 1
    assert rep.verdicts["th1"] == "SU"        # th1 column redundant
    assert rep.verdicts["th2"] == "SU"


def test_classify_scaling_toy_hand_derived():
    rep = analyze_symbolic(parse_model(SCALING))
    assert rep.verdicts == {"x": "unobservable", "th": "SLI", "c": "SU"}


# --------------------------------------------------------------------------
# full analysis
# --------------------------------------------------------------------------

def test_analyze_decay():
    rep = analyze_symbolic(parse_model(DECAY))
    assert rep.rank == 2 and rep.n_z == 2
    assert rep.stop_reason == "full_rank"
    assert rep.ranks_by_level == [1, 2]
    assert rep.verdicts == {"x": "observable", "th": "SLI"}


def test_analyze_sumrates_saturates():
    rep = analyze_symbolic(parse_model(SUMRATES))
    assert rep.rank == 2 and rep.n_z == 3
    assert rep.stop_reason == "saturation"
    assert rep.verdicts == {"x": "observable", "th1": "SU", "th2": "SU"}


def test_analyze_single_measured_state_stops_at_level0():
    rep = analyze_symbolic(parse_model("model m\nstates x\nddt x = -x\noutput y = x\n"))
    assert rep.rank == 1 == rep.n_z
    assert rep.ranks_by_level == [1]
    assert rep.verdicts == {"x": "observable"}


def test_full_rank_implies_all_identifiable(reports_by_key):
    for (model, engine), rep in reports_by_key.items():
        if engine != "symbolic" or rep.status != "ok":
            continue
        if rep.rank == rep.n_z:
            assert all(v in ("observable", "SLI", "reconstructible")
                       for v in rep.verdicts.values()), model


def test_rank_monotone_in_level(reports_by_key):
    for (model, engine), rep in reports_by_key.items():
        if engine != "symbolic" or rep.status != "ok":
            continue
        ranks = rep.ranks_by_level
        assert all(a <= b for a, b in zip(ranks, ranks[1:])), model
        assert ranks[-1] <= rep.n_z


def test_saturation_rank_stable_two_extra_levels():
    # Once the rank stalls, computing extra levels never increases it.
    for src in (SUMRATES, SCALING):
        md = parse_model(src)
        A = augment(md)
        rep = analyze_symbolic(md)
        if rep.stop_reason != "saturation":
            continue
        k_stop = len(rep.ranks_by_level) - 1
        cache = LieCache(A)
        for extra in (1, 2):
            n = (k_stop + extra + 1) * len(A.outputs)
            assert max(rank_mod_p(cache.numeric_rows(n, trial, 0, P, 25)[0], P)
                       for trial in range(3)) == rep.rank


def test_determinism_identical_reports():
    md = parse_model(SCALING)
    a = analyze_symbolic(md, SymbolicOptions(seed=3))
    b = analyze_symbolic(md, SymbolicOptions(seed=3))
    da, db = a.to_dict(include_timing=False), b.to_dict(include_timing=False)
    assert da == db


def test_max_level_stop_reason():
    md = parse_model(SUMRATES)
    rep = analyze_symbolic(md, SymbolicOptions(max_level=0))
    assert rep.stop_reason == "max_level"
    assert rep.ranks_by_level == [1]


def test_transcendental_warning_on_nonrational_model():
    md = load_model(corpus_dir() / "competition.idm")
    rep = analyze_symbolic(md)
    assert any("transcendental" in w for w in rep.warnings)
    assert rep.status == "ok"


# --------------------------------------------------------------------------
# numeric rows: reverse sweep against the symbolic gradient
# --------------------------------------------------------------------------

X, Y, TH = sx.state("x"), sx.state("y"), sx.param("th")
Z = (X, Y, TH)
INDEX = {s: j for j, s in enumerate(Z)}
x, y, th = (sx.sym(s) for s in Z)


def _eval_row(row, ref: _TrialPoint):
    return [sx.eval_mod_p(e, ref.point, ref.p, transcendental=ref.transc, _memo=ref.memo)
            for e in row]


def _symbolic_row(phi, ref: _TrialPoint):
    return _eval_row([sx.differentiate(phi, s) for s in Z], ref)


def _assert_sweep_matches(phi):
    pt, ref = _TrialPoint(0, 0, 0, P), _TrialPoint(0, 0, 0, P)
    assert _grad_row(phi, INDEX, pt, {}) == _symbolic_row(phi, ref)
    assert pt.table.keys() == ref.table.keys()


@pytest.mark.parametrize("phi", [
    sx.ln(x * y + th),
    sx.exp(x * th) * y,
    sx.sin(x * y) + sx.cos(th * x),
    sx.sin(x * th) * sx.cos(x * th) + sx.cos(x * th) ** 2,
    sx.exp(sx.ln(x) * th) / (y + sx.exp(sx.ln(x) * th)),
    x ** -2 * y + th / (x + y) + (x + th) ** -3,
    x + sx.exp(sx.sym(sx.TIME)) + sx.sin(sx.sym(sx.known_input("u"))) * y,
], ids=["ln", "exp", "sin-cos", "sin-cos-one-arg", "hill", "negative-powers",
        "transcendental-off-z"])
def test_grad_row_matches_symbolic_gradient(phi):
    _assert_sweep_matches(phi)


def test_grad_row_shared_subtree():
    s = x * y + th
    _assert_sweep_matches(s ** 2 + sx.ln(s) * x + sx.exp(s) / s)


def test_grad_row_product_with_a_zero_factor():
    vy = _TrialPoint(0, 0, 0, P).point[Y]
    zero = y - vy  # 0 mod P at the point
    phi = x * zero * th * (x + th) + zero * sx.sin(x * th)
    _assert_sweep_matches(phi)
    row = _grad_row(phi, INDEX, _TrialPoint(0, 0, 0, P), {})
    assert row[0] == 0 and row[2] == 0 and row[1] != 0


@pytest.mark.parametrize("vanishing", [
    lambda zero: x / zero + th,
    lambda zero: x * sx.ln(zero),
], ids=["negative-power", "ln"])
def test_grad_row_vanishing_denominator_raises(vanishing):
    phi = vanishing(y - _TrialPoint(0, 0, 0, P).point[Y])
    with pytest.raises(DivisionByZeroModP):
        _grad_row(phi, INDEX, _TrialPoint(0, 0, 0, P), {})
    with pytest.raises(DivisionByZeroModP):
        _symbolic_row(phi, _TrialPoint(0, 0, 0, P))


def test_sweep_rows_match_symbolic_rows_on_corpus(corpus_entries, reports_by_key):
    # Every non-heavy model, every level the engine reaches, trial 0 at the
    # default prime: the engine's rows equal the symbolic rows evaluated at
    # the same point with the same transcendental table.
    for entry in corpus_entries:
        if entry.heavy:
            continue
        A = augment(load_model(entry.path))
        cache = LieCache(A)
        ref, expected = None, []
        for k in range(len(reports_by_key[(entry.name, "symbolic")].ranks_by_level)):
            got, used = cache.numeric_rows((k + 1) * len(A.outputs), 0, 0, P, 25)
            pt = cache._points[(0, 0, P)]
            if ref is None or ref.attempt != pt.attempt:
                ref, expected = _TrialPoint(0, 0, pt.attempt, P), []
            expected += [_eval_row(row, ref)
                         for row in _gradient_matrix(cache, k)[len(expected):]]
            assert got == expected, (entry.name, k)
            assert used == bool(ref.table), (entry.name, k)
            assert pt.table.keys() == ref.table.keys(), (entry.name, k)


def test_restart_takes_smallest_attempt_that_evaluates_all_rows():
    # At p = 101 trial 0 of mapk (seed 1) hits a vanishing denominator at
    # level 1 and restarts, and at p = 107 trial 2 of pk2 (seed 0) does at
    # level 3.  At each level the rows are the symbolic rows at the smallest
    # attempt whose point evaluates rows 0..k, and the report's rank at each
    # level and its verdicts are those of these rows alone.  On pk2 a trial
    # that kept ranking its first attempt's rows would reach full rank 13.
    for name, p, seed in (("mapk", 101, 1), ("pk2", 107, 0)):
        _check_restarts(name, p, seed)


def _check_restarts(name, p, seed):
    trials = 3
    md = load_model(corpus_dir() / f"{name}.idm")
    A = augment(md)
    rep = analyze_symbolic(md, SymbolicOptions(prime=p, seed=seed, trials=trials))
    cache = LieCache(A)
    restarted = False
    for k in range(len(rep.ranks_by_level)):
        rows = _gradient_matrix(cache, k)
        numeric = []
        for trial in range(trials):
            got, used = cache.numeric_rows(len(rows), trial, seed, p, 25)
            for attempt in range(25):
                ref = _TrialPoint(seed, trial, attempt, p)
                try:
                    want = [_eval_row(row, ref) for row in rows]
                except DivisionByZeroModP:
                    continue
                break
            assert got == want, (name, k, trial)
            assert used == bool(ref.table), (name, k, trial)
            assert cache._points[(trial, seed, p)].attempt == attempt
            restarted = restarted or attempt > 0
            numeric.append(got)
        assert rep.ranks_by_level[k] == max(rank_mod_p(got, p) for got in numeric), (name, k)
    assert restarted, name

    r = rep.rank
    deleted = [deleted_column_ranks(got, p) for got in numeric if rank_mod_p(got, p) == r]
    identifiable = [all(d[j] == r - 1 for d in deleted) for j in range(A.n_z)]
    assert rep.verdicts == {s.name: verdict_for(s.kind.value, ok)
                            for s, ok in zip(A.z, identifiable)}, name
