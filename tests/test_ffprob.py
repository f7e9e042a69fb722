import math
from fractions import Fraction

import pytest

from identiscope import ffprob
from identiscope import symexpr as sx
from identiscope._linalg import MAX_PRIME
from identiscope.bench import corpus_dir
from identiscope.errors import DivisionByZeroModP, NonRationalExpr, RetriesExhausted
from identiscope.ffprob import (
    DEFAULT_PRIMES,
    FfprobOptions,
    TrialConfig,
    TruncSeries,
    _Run,
    _sweep_runs,
    analyze_ffprob,
    cross_check_lie,
    eval_expr_series,
    output_jacobian,
    series_solve,
)
from identiscope.lie_orc import LieCache
from identiscope.model import augment, load_model, parse_model

P = 2147483647
BIG_P = 3037000493  # the largest prime <= MAX_PRIME

DECAY = "model decay\nstates x\nparams th\nddt x = -th*x\noutput y = x\n"


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


def test_trial_config_rejects_small_and_huge_primes():
    with pytest.raises(ValueError):
        TrialConfig(prime=1048573, seed=0, order=3)  # below 2^20
    with pytest.raises(ValueError):
        TrialConfig(prime=2**62, seed=0, order=3)
    TrialConfig(prime=P, seed=0, order=3)


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
    """ODE and sensitivity residuals via the eager evaluator (independent
    of the sweep)."""
    md = load_model(corpus_dir() / name)
    A = augment(md)
    u_series = [TruncSeries([11 + 7 * j for j in range(order + 1)], p)
                for _ in A.model.known_inputs]
    sol = series_solve(A, [5 + 3 * i for i in range(A.n_z)], u_series, order, p)
    env = {s: sol.z_series[i] for i, s in enumerate(A.z)}
    for spec, series in zip(md.known_inputs, sol.u_series):
        env[spec.symbol] = series
    memo = {}
    # z residual: d/dt z_i == F_i(z, u) through order-1
    for i, Fi in enumerate(A.F):
        lhs = sol.z_series[i].differentiate()
        rhs = (TruncSeries.constant(0, order, p) if Fi is sx.ZERO
               else eval_expr_series(Fi, env, order, p, _memo=memo))
        assert lhs.coeffs == rhs.coeffs[:order], (name, i)
    # S residual: d/dt S_ij == sum_l dF_i/dz_l * S_lj through order-1
    jrows = []
    for Fi in A.F:
        row = []
        for zl in A.z:
            d = sx.differentiate(Fi, zl)
            row.append(None if d is sx.ZERO else eval_expr_series(d, env, order, p, _memo=memo))
        jrows.append(row)
    zero = TruncSeries.constant(0, order, p)
    for i in range(A.n_z):
        for j in range(A.n_z):
            lhs = sol.S_series[i][j].differentiate()
            acc = zero
            for l in range(A.n_z):
                if jrows[i][l] is not None:
                    acc = acc + jrows[i][l] * sol.S_series[l][j]
            assert lhs.coeffs == acc.coeffs[:order], (name, i, j)


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
        sym_row = [sx.eval_mod_p(e, point, P) for e in cache.gradient_rows(j)[0]]
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


def test_analyze_rejects_non_rational_naming_the_node():
    md = load_model(corpus_dir() / "competition.idm")
    with pytest.raises(NonRationalExpr, match=r"ln\("):
        analyze_ffprob(md)


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

def _batch(A, primes, trials, seed):
    order = max(A.n_z - 1, 1)
    runs = [_Run(TrialConfig(prime=p, seed=seed, order=order), trial)
            for p in primes for trial in range(trials)]
    _sweep_runs(A, runs, order)
    return runs


def _eager_rows(A, run, k):
    """output_jacobian of the run's point solved to order k, input jets
    truncated to order k."""
    p = run.cfg.prime
    u_k = [TruncSeries(u.coeffs[:k + 1], p) for u in run.u_series]
    return output_jacobian(series_solve(A, run.z0, u_k, k, p), A)


def test_incremental_blocks_match_eager_route(corpus_entries):
    """For every (prime, trial) run of the batch, the rows the engine
    collects through block k equal the eager output_jacobian of a series
    solved to order k at that run's point."""
    for e in corpus_entries:
        if e.heavy or not e.rational:
            continue
        A = augment(load_model(e.path))
        m = len(A.outputs)
        for seed in (0, 1):
            for run in _batch(A, DEFAULT_PRIMES, 2, seed):
                assert run.attempt == 0 and len(run.rows) % m == 0, e.name
                for k in range(len(run.rows) // m):
                    assert run.rows[:(k + 1) * m] == _eager_rows(A, run, k), \
                        (e.name, seed, run.cfg.prime, run.trial, k)


def test_blocks_match_eager_route_at_largest_prime():
    A = augment(load_model(corpus_dir() / "jak_stat1.idm"))
    m = len(A.outputs)
    (run,) = _batch(A, (BIG_P,), 1, 0)
    assert len(run.rows) > 3 * m
    for k in range(len(run.rows) // m):
        assert run.rows[:(k + 1) * m] == _eager_rows(A, run, k), k


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

    def draw(A, cfg, trial, attempt):
        z0, u = real(A, cfg, trial, attempt)
        if (cfg.prime, trial) == target and attempt in attempts:
            z0[0] = -z0[3] % cfg.prime
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
    for before, run in zip(plain, forced):
        assert before.attempt == 0
        if (run.cfg.prime, run.trial) != target:
            assert (run.attempt, run.z0, run.rows, run.stop) == \
                (0, before.z0, before.rows, before.stop)
            continue
        assert run.attempt == 1
        assert (run.z0, run.u_series) == real(A, run.cfg, run.trial, 1)
        assert run.z0 != before.z0
        for k in range(len(run.rows) // m):
            assert run.rows[:(k + 1) * m] == _eager_rows(A, run, k), k


def test_restarts_exhausted(monkeypatch):
    A = augment(parse_model(RECIP))
    target = (DEFAULT_PRIMES[2], 0)
    _vanishing_draw(monkeypatch, target, set(range(ffprob.DEFAULT_RETRIES)))
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
    trap = f"model trap\nstates x\nparams th\nddt x = -th*x\noutput y = {P}*x\n"
    (run,) = _batch(augment(parse_model(trap)), (P,), 1, 0)
    assert (run.stop, len(run.rows), run.echelon.rank) == ("saturation", 2, 0)


def test_stop_reason_order_exhausted():
    md = load_model(corpus_dir() / "c2m_a.idm")
    rep = analyze_ffprob(md, FfprobOptions(order=1))
    assert rep.rank < rep.n_z
    assert rep.stop_reason == "order_exhausted"


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
    trap = f"model trap\nstates x\nparams th\nddt x = -th*x\noutput y = {P}*x\n"
    md = parse_model(trap)
    forced = analyze_ffprob(md, FfprobOptions(primes=(P,), trials=1))
    assert forced.rank == 0
    default = analyze_ffprob(md, FfprobOptions())
    assert default.rank == 2
    assert default.per_prime_ranks[str(P)] == [0, 0]
    assert default.verdicts == {"x": "observable", "th": "SLI"}
