import math
from fractions import Fraction

import pytest

from identiscope import symexpr as sx
from identiscope.bench import corpus_dir
from identiscope.errors import DivisionByZeroModP, NonRationalExpr
from identiscope.ffprob import (
    DEFAULT_PRIMES,
    FfprobOptions,
    TrialConfig,
    TruncSeries,
    _grow,
    _wire_trial,
    analyze_ffprob,
    cross_check_lie,
    eval_expr_series,
    output_jacobian,
    series_solve,
)
from identiscope.lie_orc import build_matrix
from identiscope.model import augment, load_model, parse_model

P = 2147483647

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


def _residual_checks(name, order=6):
    """ODE and sensitivity residuals via the eager evaluator (independent
    of the lazy solver)."""
    md = load_model(corpus_dir() / name)
    A = augment(md)
    p = P
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
    M = build_matrix(A, 2)
    point = {s: z0[i] for i, s in enumerate(A.z)}
    fact = 1
    for j in range(3):
        if j:
            fact = fact * j % P
        sym_row = [sx.eval_mod_p(e, point, P) for e in M.rows[j]]
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

def test_incremental_blocks_match_eager_route(corpus_entries):
    """The rows the engine collects through block k equal the eager
    output_jacobian of a series solved to order k at the same point."""
    for e in corpus_entries:
        if e.heavy or not e.rational:
            continue
        A = augment(load_model(e.path))
        m = len(A.outputs)
        cfg = TrialConfig(prime=DEFAULT_PRIMES[0], seed=0, order=max(A.n_z - 1, 1))
        g = _wire_trial(A, cfg, 0)
        rows, _ = _grow(g, A.n_z, cfg.order, cfg.prime)
        assert len(rows) % m == 0, e.name
        for k in range(len(rows) // m):
            u_k = [TruncSeries(u.coeffs[:k + 1], cfg.prime) for u in g.u_series]
            eager = output_jacobian(series_solve(A, g.z0, u_k, k, cfg.prime), A)
            assert rows[:(k + 1) * m] == eager, (e.name, k)


def test_stop_reason_full_rank():
    rep = analyze_ffprob(parse_model(DECAY))
    assert (rep.rank, rep.stop_reason) == (2, "full_rank")


def test_stop_reason_saturation():
    rep = analyze_ffprob(load_model(corpus_dir() / "c2m_b.idm"))
    assert (rep.rank, rep.n_z, rep.stop_reason) == (4, 6, "saturation")


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
