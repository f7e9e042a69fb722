import ast
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from identiscope import _rng, bench, errors, ffprob, lie_orc
from identiscope import symexpr as sx
from identiscope._linalg import MAX_PRIME
from identiscope.bench import corpus_dir
from identiscope.errors import (DivisionByZeroModP, EngineTimeout, NonRationalExpr,
                                RetriesExhausted, RunContext)
from identiscope.ffprob import DEFAULT_PRIMES, FfprobOptions, _Run, _sweep_runs, analyze_ffprob
from identiscope.lie_orc import LieCache
from identiscope.model import augment, load_model, parse_model
from oracles import (TruncSeries, check_residuals, cross_check_lie, gradient_rows, jet_coeffs,
                     load_corpus, output_jacobian, rank_mod_p, record_rows, rows_of, series_solve)
from test_lie_orc import _chain_model

P = 2147483647
BIG_P = 3037000493  # the largest prime <= MAX_PRIME

DECAY = "model decay\nstates x\nparams th\nddt x = -th*x\noutput y = x\n"
# Every entry of the output is 0 mod P.
TRAP = f"model trap\nstates x\nparams th\nddt x = -th*x\noutput y = {P}*x\n"


def frac_mod(f: Fraction, p: int) -> int:
    return f.numerator * pow(f.denominator % p, -1, p) % p


# --------------------------------------------------------------------------
# TruncSeries arithmetic
# --------------------------------------------------------------------------

def test_series_add_mul():
    p = 101
    a = TruncSeries([1, 2, 3], p)
    b = TruncSeries([4, 5, 6], p)
    assert (a + b).coeffs == (5, 7, 9)
    # (1 + 2t + 3t^2)(4 + 5t + 6t^2) mod t^3 = 4 + 13t + 28t^2
    assert (a * b).coeffs == (4, 13, 28)


def test_series_inverse_is_multiplicative_inverse():
    p = 2147483629
    a = TruncSeries([3, 7, 1, 9, 4], p)
    one = TruncSeries.constant(1, a.order, p)
    assert a * a.inverse() == one
    assert (a / a) == one


def test_series_inverse_requires_unit():
    with pytest.raises(DivisionByZeroModP):
        TruncSeries([0, 1, 2], 101).inverse()


def test_series_diff_integrate_roundtrip():
    p = 101
    a = TruncSeries([5, 2, 3, 4], p)
    assert a.differentiate().integrate(5) == a


def test_series_pow_matches_repeated_mul():
    p = 103
    a = TruncSeries([2, 1, 7], p)
    assert a ** 3 == a * a * a
    assert (a ** -2) * a * a == TruncSeries.constant(1, 2, p)


def _forbid_augment(monkeypatch):
    def unreachable(md):
        raise AssertionError("augment reached")

    monkeypatch.setattr(ffprob, "augment", unreachable)


def test_trial_config_rejects_small_and_huge_primes(monkeypatch):
    # The primes are checked before the model is augmented.
    md = parse_model(DECAY)
    _forbid_augment(monkeypatch)
    with pytest.raises(ValueError, match=rf"^1048573 is not a prime in \(2\^20, {MAX_PRIME}\]$"):
        analyze_ffprob(md, FfprobOptions(primes=(1048573,), max_level=3))  # below 2^20
    with pytest.raises(ValueError, match=rf"^{2**62} is not a prime in \(2\^20, {MAX_PRIME}\]$"):
        analyze_ffprob(md, FfprobOptions(primes=(2**62,), max_level=3))
    with pytest.raises(ValueError, match=rf"^prime {P} is repeated$"):
        analyze_ffprob(md, FfprobOptions(primes=(P, BIG_P, P), max_level=3))
    with pytest.raises(AssertionError, match="augment reached"):
        analyze_ffprob(md, FfprobOptions(primes=(P,), max_level=3))


def test_composite_prime_rejected_before_augment(monkeypatch):
    _forbid_augment(monkeypatch)
    with pytest.raises(ValueError, match=rf"^{2**21} is not a prime in \(2\^20, {MAX_PRIME}\]$"):
        analyze_ffprob(parse_model(DECAY), FfprobOptions(primes=(2**21,), max_level=3))


def test_analyze_rejects_order_below_one_before_augment(monkeypatch):
    _forbid_augment(monkeypatch)
    with pytest.raises(ValueError, match=r"^max_level must be >= 0$"):
        analyze_ffprob(parse_model(DECAY), FfprobOptions(max_level=-1))


# --------------------------------------------------------------------------
# series_solve
# --------------------------------------------------------------------------

def test_series_solve_exponential_decay_closed_form():
    # x' = -th*x has x(t) = x0 * sum (-th0 t)^k / k!
    A = augment(parse_model(DECAY))
    x0, th0 = 3, 5
    sol = series_solve(A, [x0, th0], [], order=4, p=P)
    xs = sol.z_series[0]
    for k in range(5):
        want = frac_mod(Fraction(x0 * (-th0) ** k, math.factorial(k)), P)
        assert xs.coeffs[k] == want


def test_series_solve_parameter_entries_are_constant():
    A = augment(parse_model(DECAY))
    sol = series_solve(A, [3, 5], [], order=4, p=P)
    assert sol.z_series[1].coeffs == (5, 0, 0, 0, 0)


def test_series_solve_sensitivity_initial_identity():
    md = load_model(corpus_dir() / "c2m_b.idm")
    A = augment(md)
    sol = series_solve(A, list(range(2, 2 + A.n_z)), [], order=3, p=P)
    for i in range(A.n_z):
        for j in range(A.n_z):
            assert sol.S_series[i][j].coeffs[0] == (1 if i == j else 0)


def _residual_checks(name, order=6, p=P):
    A = augment(load_model(corpus_dir() / name))
    check_residuals(A, [5 + 3 * i for i in range(A.n_z)],
                    [[11 + 7 * j for j in range(order + 1)] for _ in A.model.known_inputs],
                    order, p)


@pytest.mark.parametrize("name", ["c2m_a.idm", "c2m_c.idm", "hiv2.idm", "beta_ig.idm"])
def test_ode_and_sensitivity_residuals(name):
    _residual_checks(name)


def test_residuals_at_largest_prime():
    # jak_stat1 has 10 states and 33 entries of z; at p near sqrt(2^63) a
    # product reduced one step late would overflow int64.
    assert BIG_P <= MAX_PRIME < BIG_P + 6
    _residual_checks("jak_stat1.idm", order=4, p=BIG_P)


# --------------------------------------------------------------------------
# output Jacobian
# --------------------------------------------------------------------------

def test_output_jacobian_decay_matches_hand_rows():
    A = augment(parse_model(DECAY))
    x0, th0 = 3, 5
    sol = series_solve(A, [x0, th0], [], order=1, p=P)
    rows = output_jacobian(sol, A)
    assert rows == [[1, 0], [(-th0) % P, (-x0) % P]]


def test_output_jacobian_matches_symbolic_matrix_at_point():
    # coefficient rows == (1/j!) * Lie gradient rows evaluated on the jet
    md = load_model(corpus_dir() / "c2m_b.idm")
    A = augment(md)
    z0 = [7, 11, 13, 17, 19, 23]
    sol = series_solve(A, z0, [], order=2, p=P)
    rows = output_jacobian(sol, A)
    cache = LieCache(A)
    point = {s: z0[i] for i, s in enumerate(A.z)}
    fact = 1
    for j in range(3):
        if j:
            fact = fact * j % P
        sym_row = [sx.eval_mod_p(e, point, P) for e in gradient_rows(cache, j)[0]]
        inv = pow(fact, -1, P)
        assert rows[j] == [v * inv % P for v in sym_row]


def test_output_jacobian_constant_output_is_zero():
    src = "model m\nstates x\nddt x = -x\noutput y = 5\n"
    A = augment(parse_model(src))
    sol = series_solve(A, [9], [], order=3, p=P)
    rows = output_jacobian(sol, A)
    assert all(v == 0 for row in rows for v in row)


def test_output_jacobian_shape_two_outputs_order_two():
    src = "model m\nstates x1 x2\nddt x1 = -x2\nddt x2 = x1\noutput y1 = x1\noutput y2 = x2\n"
    A = augment(parse_model(src))
    sol = series_solve(A, [3, 4], [], order=2, p=P)
    rows = output_jacobian(sol, A)
    assert len(rows) == 6 and all(len(r) == 2 for r in rows)


# --------------------------------------------------------------------------
# analyze_ffprob
# --------------------------------------------------------------------------

def test_analyze_decay():
    rep = analyze_ffprob(parse_model(DECAY))
    assert rep.rank == 2
    assert rep.verdicts == {"x": "observable", "th": "SLI"}
    assert set(rep.per_prime_ranks) == {str(p) for p in DEFAULT_PRIMES}


def test_analyze_sumrates_identical_columns():
    src = "model m\nstates x\nparams th1 th2\nddt x = -(th1+th2)*x\noutput y = x\n"
    rep = analyze_ffprob(parse_model(src))
    assert rep.rank == 2 and rep.n_z == 3
    assert rep.verdicts["th1"] == "SU" and rep.verdicts["th2"] == "SU"


def test_ic_lines_are_reported_as_ignored():
    # x(0) = 0 makes k unidentifiable from this experiment; the engine still
    # answers for generic initial states, and says so.
    rep = analyze_ffprob(parse_model(DECAY.replace("th", "k") + "ic x = 0\n"))
    assert rep.verdicts == {"x": "observable", "k": "SLI"}
    assert rep.warnings == [
        "initial conditions ignored (ic x): verdicts hold for generic initial states"]
    assert analyze_ffprob(parse_model(DECAY)).warnings == []


def test_analyze_rejects_non_rational_naming_the_node():
    md = load_model(corpus_dir() / "competition.idm")
    with pytest.raises(NonRationalExpr, match=r"ln\("):
        analyze_ffprob(md)


@pytest.mark.parametrize("text, node", [
    # ddt b comes first in the file, but a is the first state.
    ("model m\nstates a b\nparams k\nddt b = exp(b)\nddt a = -k*ln(a)\noutput y = a + b\n",
     "ln(a)"),
    ("model m\nstates x\nparams k\nddt x = -k*x\noutput y = exp(x)\n", "exp(x)"),
], ids=["state-order", "output-only"])
def test_analyze_names_the_first_non_rational_node_in_state_order(text, node):
    md = parse_model(text)
    assert not md.is_rational()
    with pytest.raises(NonRationalExpr) as err:
        analyze_ffprob(md)
    assert str(err.value) == (f"model 'm' is non-rational (contains {node}); "
                              "use the symbolic engine")


def test_analyze_deterministic():
    md = load_model(corpus_dir() / "c2m_b.idm")
    a = analyze_ffprob(md, FfprobOptions(seed=5))
    b = analyze_ffprob(md, FfprobOptions(seed=5))
    assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)


def test_single_trial_rank_never_exceeds_aggregate(reports_by_key):
    for (model, engine), rep in reports_by_key.items():
        if engine != "ffprob" or rep.status != "ok":
            continue
        singles = [r for ranks in rep.per_prime_ranks.values() for r in ranks]
        assert max(singles) == rep.rank
        assert all(r <= rep.rank <= rep.n_z for r in singles), model


def test_engine_rank_agreement(reports_by_key):
    for (model, engine), rep in reports_by_key.items():
        if engine != "ffprob" or rep.status != "ok":
            continue
        sym = reports_by_key[(model, "symbolic")]
        assert sym.rank == rep.rank, model


# --------------------------------------------------------------------------
# incremental output Jacobian
# --------------------------------------------------------------------------

def _batch(A, primes, trials, seed, order=None):
    """(run, rows, rank) for every (prime, trial) run of one sweep: the rows
    that the run's echelon form took through the run's own last order, and
    the form's rank.  The blocks a form takes after its run has stopped are
    checked to be zero and cut."""
    runs = [_Run(p, trial) for p in primes for trial in range(trials)]
    forms = _sweep_runs(A, runs, seed, A.n_z - 1 if order is None else order)
    m = len(A.outputs)
    out = []
    for f, (run, rank) in enumerate(zip(runs, forms.ranks)):
        rows, cut = rows_of(forms, f), (run.order + 1) * m
        assert len(rows) >= cut and not np.any(rows[cut:]), (run, cut)
        out.append((run, rows[:cut], rank))
    return out


@pytest.mark.parametrize("k", [1, 3])
def test_deadline_passing_at_an_order_stops_the_sweep(k, monkeypatch):
    # A fake clock passes the deadline at its (k+1)-th reading.  The sweep
    # reads it once before each order, so it stops after exactly k orders:
    # every run's form took blocks 0..k-1 and no more.
    A = augment(parse_model(_chain_model(5)))
    runs = [_Run(P, trial) for trial in range(2)]
    ctx = RunContext(k + 0.5)
    readings = []
    monkeypatch.setattr(errors, "time", SimpleNamespace(
        monotonic=lambda: readings.append(None) or float(len(readings))))
    with pytest.raises(EngineTimeout):
        _sweep_runs(A, runs, 0, A.n_z - 1, ctx)
    assert len(readings) == k + 1
    assert [(run.order, run.stop) for run in runs] == [(k - 1, None)] * 2


@pytest.fixture(autouse=True)
def _record_rows(monkeypatch):
    record_rows(monkeypatch)


def _eager_rows(A, run, seed, k):
    """output_jacobian of the run's point solved to order k, input jets
    truncated to order k."""
    p = run.prime
    z0, jet = ffprob._draw_trial(A, seed, p, run.trial, run.attempt)
    u_k = [TruncSeries(u, p) for u in jet_coeffs(jet, k)]
    return output_jacobian(series_solve(A, z0, u_k, k, p), A)


def test_incremental_blocks_match_eager_route(corpus_entries):
    """For every (prime, trial) run of the batch, the rows the engine
    collects through block k equal the eager output_jacobian of a series
    solved to order k at that run's point.  Both routes read z and S from
    the sweep, so at seed 0 each run's series is also checked against the
    ODE and its sensitivities, through the run's last order, by eager
    evaluation of the right sides."""
    for e in corpus_entries:
        if not e.rational:
            continue
        A = augment(load_model(e.path))
        m = len(A.outputs)
        for seed in (0, 1):
            for run, rows, _ in _batch(A, DEFAULT_PRIMES, 2, seed):
                assert run.attempt == 0 and len(rows) % m == 0, e.name
                for k in range(len(rows) // m):
                    assert rows[:(k + 1) * m] == _eager_rows(A, run, seed, k), \
                        (e.name, seed, run.prime, run.trial, k)
                if seed == 0:
                    last = max(len(rows) // m - 1, 1)
                    z0, jet = ffprob._draw_trial(A, seed, run.prime, run.trial, run.attempt)
                    check_residuals(A, z0, jet_coeffs(jet, last), last, run.prime)


def test_blocks_match_eager_route_at_largest_prime():
    A = augment(load_model(corpus_dir() / "jak_stat1.idm"))
    m = len(A.outputs)
    ((run, rows, _),) = _batch(A, (BIG_P,), 1, 0)
    assert len(rows) > 3 * m
    for k in range(len(rows) // m):
        assert rows[:(k + 1) * m] == _eager_rows(A, run, 0, k), k


RECIP = """model recip
states x1 x2
params k1 k2
ddt x1 = -k1*x1/(x1 + k2)
ddt x2 = k1*x1 - k2*x2
output y = x2
"""


def _vanishing_draw(monkeypatch, target, attempts):
    """Replace _draw_trial so that run ``target`` = (prime, trial) draws
    x1 = -k2, a zero of the denominator x1 + k2, at the given attempts."""
    real = ffprob._draw_trial

    def draw(A, seed, p, trial, attempt):
        z0, u = real(A, seed, p, trial, attempt)
        if (p, trial) == target and attempt in attempts:
            z0[0] = -z0[3] % p
        return z0, u

    monkeypatch.setattr(ffprob, "_draw_trial", draw)
    return real


def test_restart_moves_only_the_failing_run(monkeypatch):
    A = augment(parse_model(RECIP))
    m = len(A.outputs)
    plain = _batch(A, DEFAULT_PRIMES, 2, 0)
    target = (DEFAULT_PRIMES[1], 1)
    real = _vanishing_draw(monkeypatch, target, {0})
    forced = _batch(A, DEFAULT_PRIMES, 2, 0)
    for (before, before_rows, _), (run, rows, _) in zip(plain, forced):
        assert before.attempt == 0
        if (run.prime, run.trial) != target:
            assert (run.attempt, rows, run.stop) == (0, before_rows, before.stop)
            continue
        assert run.attempt == 1
        assert real(A, 0, run.prime, run.trial, 1)[0] != real(A, 0, run.prime, run.trial, 0)[0]
        for k in range(len(rows) // m):
            assert rows[:(k + 1) * m] == _eager_rows(A, run, 0, k), k


def test_restarts_exhausted(monkeypatch):
    A = augment(parse_model(RECIP))
    target = (DEFAULT_PRIMES[2], 0)
    _vanishing_draw(monkeypatch, target, set(range(ffprob.RETRIES)))
    with pytest.raises(RetriesExhausted, match=rf"mod {target[0]}: denominator"):
        _batch(A, DEFAULT_PRIMES, 2, 0)


def test_constant_with_prime_denominator_exhausts_that_prime():
    # 1/P has no residue mod P: every point of every run on P fails.
    src = f"model m\nstates x\nparams k\nddt x = -k*x/{P}\noutput y = x\n"
    with pytest.raises(RetriesExhausted, match=rf"mod {P}: constant -1/{P} has"):
        analyze_ffprob(parse_model(src), FfprobOptions(primes=(DEFAULT_PRIMES[1], P)))


def test_series_solve_raises_on_vanishing_denominator():
    A = augment(parse_model(RECIP))
    with pytest.raises(DivisionByZeroModP):
        series_solve(A, [P - 5, 1, 2, 5], [], order=2, p=P)


@pytest.mark.parametrize("opts, match", [
    (FfprobOptions(trials=0), r"trials must be >= 1"),
    (FfprobOptions(primes=()), r"at least one prime"),
])
def test_analyze_rejects_empty_batch(opts, match):
    with pytest.raises(ValueError, match=match):
        analyze_ffprob(parse_model(DECAY), opts)


def test_stop_reason_full_rank():
    rep = analyze_ffprob(parse_model(DECAY))
    assert (rep.rank, rep.stop_reason) == (2, "full_rank")


def test_stop_reason_saturation():
    rep = analyze_ffprob(load_model(corpus_dir() / "c2m_b.idm"))
    assert (rep.rank, rep.n_z, rep.stop_reason) == (4, 6, "saturation")


def test_zero_first_block_does_not_saturate():
    # Every entry of the trap's output is 0 mod P, so block 0 leaves the rank
    # at 0; saturation is a block k > 0 that does not raise it.
    ((run, rows, rank),) = _batch(augment(parse_model(TRAP)), (P,), 1, 0)
    assert (run.stop, len(rows), rank) == ("saturation", 2, 0)


def test_stop_reason_max_level():
    md = load_model(corpus_dir() / "c2m_a.idm")
    rep = analyze_ffprob(md, FfprobOptions(max_level=1))
    assert rep.rank < rep.n_z
    assert rep.stop_reason == "max_level"


def _stop_rule(rows, m, n_z, p, cap):
    """(order, stop) of the first block at which the stop rule fires on a
    run's rows, from rank_mod_p of the rows through each block."""
    before = None
    for k in range(cap + 1):
        r = rank_mod_p(rows[:(k + 1) * m], p)
        if r == n_z:
            return k, "full_rank"
        if k > 0 and r == before:
            return k, "saturation"
        before = r
    return cap, "max_level"


# At P the output is x1, so that run saturates at rank 2 after block 2,
# while the runs at the other primes reach full rank 4 after block 3.
TRAP_ONE_TERM = f"""model trap2
states x1 x2
params a b
ddt x1 = -a*x1
ddt x2 = -b*x2
output y = x1 + {P}*x2
"""


@pytest.mark.parametrize("md, order, stops", [
    (parse_model(DECAY), None, {(1, "full_rank")}),
    (load_model(corpus_dir() / "c2m_b.idm"), None, {(4, "saturation")}),
    (parse_model(TRAP), None, {(1, "saturation"), (1, "full_rank")}),
    (parse_model(TRAP_ONE_TERM), None, {(2, "saturation"), (3, "full_rank")}),
    (load_model(corpus_dir() / "c2m_a.idm"), 1, {(1, "max_level")}),
    (load_model(corpus_dir() / "c2m_a.idm"), 0, {(0, "max_level")}),
], ids=["decay", "c2m_b", "trap", "trap-one-term", "c2m_a-order-1", "c2m_a-order-0"])
def test_each_run_stops_at_the_block_where_its_rule_fires(md, order, stops):
    # Each run's order is the block at which its own rule fires on its own
    # rows, and its form's rank is the rank of those rows; the runs of one
    # sweep may stop at different blocks.
    A = augment(md)
    m, cap = len(A.outputs), A.n_z - 1 if order is None else order
    got = set()
    for run, rows, rank in _batch(A, DEFAULT_PRIMES, 2, 0, order):
        assert (run.order, run.stop) == _stop_rule(rows, m, A.n_z, run.prime, cap), run
        assert rank == rank_mod_p(rows, run.prime), run
        got.add((run.order, run.stop))
    assert got == stops


# --------------------------------------------------------------------------
# time-constant nodes and orders drawn when reached
# --------------------------------------------------------------------------

MIXED_INPUTS = """model tc
states x1 x2
params k1 k2
inputs u constant v
unknown_inputs w order 1
ddt x1 = -k1*x1 + u*v + k1*k2*w
ddt x2 = k2*u*x1 - x2*v
output y = x1 + x2
"""


def test_time_constant_leaves_and_nodes():
    A = augment(parse_model(MIXED_INPUTS))
    tape = ffprob._Tape(A)
    leaves = {s.name: tape.still[1 + l] for l, s in enumerate(A.z)}
    leaves.update({spec.symbol.name: tape.still[1 + A.n_z + i]
                   for i, spec in enumerate(A.model.known_inputs)})
    assert leaves == {"x1": False, "x2": False, "k1": True, "k2": True, "w": False,
                      "w'": True, "u": True, "v": False}
    # k1*k2 and k2*u are time-constant products.
    assert any(tape.still[tape.n_z + tape.q + 1:])
    for kind, lo, hi, ops, consts, _ in tape.waves:
        if kind == ffprob._MUL:
            a, b = ([tape.still[o] for o in x] for x in ops)
            assert a == [True] * consts + [False] * (hi - lo - consts)
            assert not any(b[consts:])
    # Every time-constant node's series is zero past order 0.
    sw = ffprob._Sweep(tape, [P], 4)
    sw.set_point(0, *ffprob._draw_trial(A, 0, P, 0, 0))
    still_rows, varying = [], False
    for k in range(5):
        assert not sw.advance(k)
        if k:
            still_rows.append(sw.at(k)[tape.still].any())
            varying |= sw.at(k)[np.logical_not(tape.still)].any()
    assert still_rows == [False] * 4
    assert varying


def test_chain_products_take_one_term():
    tape = ffprob._Tape(augment(parse_model(_chain_model(10))))
    muls = [(lo, hi, consts) for kind, lo, hi, _, consts, _ in tape.waves if kind == ffprob._MUL]
    assert muls and all(consts == hi - lo for lo, hi, consts in muls)


def test_shared_products_and_nodes_only_f_reads_cost_no_wave():
    # On every rational model: no two products have the same operands, and
    # the time-varying nodes of one kind that neither a node nor an output
    # reads all lie in the wave of the deepest time-varying node of that
    # kind, depth counted from the operands.  hiv2's x4' is an add one
    # level above those of x1', x2' and x3', and joins their wave, and its
    # b*x1*x4, q1*b*x1*x4 and q2*b*x1*x4 share the one convolution x1*x4.
    for md in _sweep_models():
        tape = ffprob._Tape(augment(md))
        kind_of, ops_of, wave_of = {}, {}, {}
        for w, (kind, lo, hi, ops, _, _) in enumerate(tape.waves):
            rows = np.asarray(ops).T if kind == ffprob._MUL else np.asarray(ops).reshape(hi - lo, -1)
            for node, operands in zip(range(lo, hi), rows.tolist()):
                kind_of[node], ops_of[node], wave_of[node] = kind, operands, w
        pairs = [tuple(ops_of[o]) for o in ops_of if kind_of[o] == ffprob._MUL]
        assert len(pairs) == len({tuple(sorted(p)) for p in pairs}), md.name
        depth = [0] * tape.size
        for node in sorted(ops_of):
            depth[node] = 1 + max(depth[x] for x in ops_of[node])
        read = set(tape.h.tolist()) | {x for o in ops_of.values() for x in o}
        for kind in set(kind_of.values()):
            varying = [o for o in kind_of if kind_of[o] == kind and not tape.still[o]]
            unread = {wave_of[o] for o in varying if o not in read}
            deepest = {wave_of[o] for o in varying
                       if depth[o] == max(depth[v] for v in varying)}
            assert unread <= deepest and len(unread) <= 1, (md.name, kind)
    hiv2 = ffprob._Tape(augment(load_model(corpus_dir() / "hiv2.idm")))
    assert len(hiv2.waves) == 3
    assert sum(hi - lo - consts for kind, lo, hi, _, consts, _ in hiv2.waves
               if kind == ffprob._MUL) == 1


def _history_nodes(tape):
    """The operands of every product of two time-varying series and of every
    time-varying reciprocal, and those reciprocals, read from the tape's
    nodes one by one."""
    nodes = set()
    for kind, lo, hi, ops, _, _ in tape.waves:
        if kind == ffprob._MUL:
            nodes.update(x for a, b in zip(*ops.tolist())
                         if not (tape.still[a] or tape.still[b]) for x in (a, b))
        elif kind == ffprob._RECIP:
            nodes.update(x for node, a in zip(range(lo, hi), ops.tolist())
                         if not tape.still[node] for x in (node, a))
    return sorted(nodes)


@pytest.mark.parametrize("text, kept", [
    (_chain_model(10), 0),
    (MIXED_INPUTS, 2),  # x2 and v, the operands of x2*v
    # 4 convolutions (those of k3*x1*x10 and of k11*x6*x7 are shared by
    # the terms that read them) and a reciprocal
    ((corpus_dir() / "nfkb1.idm").read_text(), 9),
], ids=["chain10", "mixed_inputs", "nfkb1"])
def test_history_nodes_are_what_convolutions_and_reciprocals_read(text, kept):
    A = augment(parse_model(text))
    tape = ffprob._Tape(A)
    assert tape.history.tolist() == _history_nodes(tape)
    assert tape.history.size == kept
    # H keeps every order of the history nodes, the ring the last two of
    # every node.
    sw = ffprob._Sweep(tape, [P, BIG_P], 6)
    for run, p in enumerate((P, BIG_P)):
        sw.set_point(run, *ffprob._draw_trial(A, 0, p, 0, 0))
    orders = []
    for k in range(7):
        assert not sw.advance(k)
        orders.append(sw.at(k)[tape.history])
        assert (sw.H[:k + 1] == np.array(orders)).all()


def _sweep_models():
    models = [load_model(e.path) for e in load_corpus() if e.rational]
    return models + [parse_model(_chain_model(20))]


def test_last_order_evaluates_only_the_waves_the_outputs_read(monkeypatch):
    """At the order where every run stops, the sweep evaluates only the
    first ``tape.out_waves`` waves, which hold every node that h reads; the
    reports equal those of a sweep that evaluates every wave at every
    order."""
    models = _sweep_models()
    assert len(models) == 21
    calls = []  # (order, waves evaluated)
    waves = ffprob._Sweep._waves

    def spy(self, k, ws, failed):
        calls.append((k, ws))
        return waves(self, k, ws, failed)

    monkeypatch.setattr(ffprob._Sweep, "_waves", spy)
    split = {}
    for md in models:
        tape = ffprob._Tape(augment(md))
        out, n = split[md.name] = tape.out_waves, len(tape.waves)
        # Every operand precedes its wave, and the h nodes and every
        # operand of the first out_waves waves lie before their end.
        bound = tape.waves[out - 1][2] if out else tape.waves[0][1]
        assert (tape.h < bound).all(), md.name
        for w, (kind, lo, hi, ops, _, _) in enumerate(tape.waves):
            assert (np.asarray(ops) < lo).all(), (md.name, w)
            if w < out:
                assert (np.asarray(ops) < bound).all(), (md.name, w)
        for seed in (0, 1):
            calls.clear()
            opts = FfprobOptions(seed=seed)
            split_rep = analyze_ffprob(md, opts).to_dict(include_timing=False)
            last = max(k for k, _ in calls)
            assert [ws for k, ws in calls if k == last] == [range(out)], (md.name, seed)
            for j in range(last):
                assert sorted(w for k, ws in calls if k == j for w in ws) == list(range(n))
            with monkeypatch.context() as m:
                init = ffprob._Tape.__init__

                def whole(self, A):
                    init(self, A)
                    self.out_waves = len(self.waves)

                m.setattr(ffprob._Tape, "__init__", whole)
                whole_rep = analyze_ffprob(md, opts).to_dict(include_timing=False)
            assert split_rep == whole_rep, (md.name, seed)
    # gene_p53's and jak_stat1's outputs read waves that F reads too, so the
    # first phase is some of their waves, not none or all of them.
    for name in ("gene_p53", "jak_stat1"):
        assert 0 < split[name][0] < split[name][1], (name, split[name])
    for name in ("hiv2", "nfkb1", "chain20"):  # their outputs are z leaves
        assert split[name][0] == 0 < split[name][1], (name, split[name])


def test_chain30_ffprob_peak_memory():
    """The chain keeps no history node, so its sweep holds three orders of
    every node: the analysis peaks at 5.7 MB at n = 30, against 151 MB when
    every node kept all 89 orders."""
    md = parse_model(_chain_model(30))
    tracemalloc.start()
    try:
        analyze_ffprob(md)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_chain30_matches_symbolic():
    """The 89-entry chain needs order 88, which took seconds while every
    product convolved all of its terms."""
    md = parse_model(_chain_model(30))
    rep = analyze_ffprob(md)
    assert (rep.rank, rep.stop_reason) == (89, "full_rank")
    assert rep.verdicts == lie_orc.analyze_symbolic(md).verdicts


def test_order_cap_no_run_reaches_draws_nothing_more(monkeypatch):
    md = load_model(corpus_dir() / "nfkb2.idm")
    assert md.known_inputs
    draws = []
    drawer = _rng.drawer

    def counted(prefix, p):
        draw = drawer(prefix, p)

        def counted_draw(tail):
            draws.append((prefix, tail))
            return draw(tail)

        return counted_draw

    monkeypatch.setattr(_rng, "drawer", counted)
    default = analyze_ffprob(md).to_dict(include_timing=False)
    n = len(draws)
    huge = analyze_ffprob(md, FfprobOptions(max_level=10**6)).to_dict(include_timing=False)
    assert default["stop_reason"] != "max_level"
    assert n > 0 and huge == default and len(draws) == 2 * n


# --------------------------------------------------------------------------
# coefficient-Lie correspondence
# --------------------------------------------------------------------------

def test_cross_check_lie_decay():
    assert cross_check_lie(parse_model(DECAY), 3, P, seed=0)


def test_cross_check_lie_order_zero_trivial():
    assert cross_check_lie(parse_model(DECAY), 0, P, seed=1)


def test_cross_check_lie_c2m_a():
    md = load_model(corpus_dir() / "c2m_a.idm")
    assert cross_check_lie(md, 3, P, seed=0)


def test_cross_check_lie_with_constant_input():
    src = "model m\nstates x\nparams k\ninputs u constant\nddt x = -k*x + u\noutput y = x\n"
    assert cross_check_lie(parse_model(src), 4, P, seed=2)


# --------------------------------------------------------------------------
# prime sensitivity
# --------------------------------------------------------------------------

def test_prime_trap_single_prime_underreports_rank():
    # Scaling the full-rank decay output by one of the field primes makes
    # every Jacobian entry vanish mod that prime; the default multi-prime
    # aggregation still finds the true rank through the other primes.
    md = parse_model(TRAP)
    forced = analyze_ffprob(md, FfprobOptions(primes=(P,), trials=1))
    assert forced.rank == 0
    default = analyze_ffprob(md, FfprobOptions())
    assert default.rank == 2
    assert default.per_prime_ranks[str(P)] == [0, 0]
    assert default.verdicts == {"x": "observable", "th": "SLI"}


# --------------------------------------------------------------------------
# engine independence
# --------------------------------------------------------------------------

def _imported_modules(module, source=None) -> set[str]:
    """Last dotted component of every module the source of ``module``
    imports, or imports names from; with ``source``, only the names it
    imports from modules whose last dotted component is ``source``."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            if source is None:
                names.add(node.module or "")
            elif (node.module or "").rsplit(".", 1)[-1] != source:
                continue
            names.update(a.name for a in node.names)  # from . import lie_orc
        elif isinstance(node, ast.Import) and source is None:
            names.update(a.name for a in node.names)
    return {n.rsplit(".", 1)[-1] for n in names}


def test_engines_import_nothing_from_each_other():
    assert "lie_orc" not in _imported_modules(ffprob)
    assert "ffprob" not in _imported_modules(lie_orc)


def test_bench_imports_only_public_engine_names():
    for engine in ("ffprob", "lie_orc"):
        names = _imported_modules(bench, engine)
        assert names and not [n for n in names if n.startswith("_")], (engine, names)
