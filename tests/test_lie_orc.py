import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import identiscope
from identiscope import _rng, errors, lie_orc
from identiscope import symexpr as sx
from identiscope._linalg import MAX_PRIME
from identiscope.bench import corpus_dir
from identiscope.errors import DivisionByZeroModP, EngineTimeout, RetriesExhausted
from identiscope.lie_orc import (
    LieCache,
    SymbolicOptions,
    _TrialPoint,
    _Trials,
    analyze_symbolic,
    extended_lie_derivative,
)
from identiscope.model import augment, load_model, parse_model
from identiscope.report import verdict_for

from oracles import (deleted_column_ranks, eager_derivative, free_symbols, gradient_rows,
                     rank_mod_p, record_builds, record_rows, rows_of)

P = 2147483647

DECAY = "model decay\nstates x\nparams th\nddt x = -th*x\noutput y = x\n"
SUMRATES = "model sumrates\nstates x\nparams th1 th2\nddt x = -(th1+th2)*x\noutput y = x\n"
SCALING = "model scaling\nstates x\nparams th c\nddt x = th*x\noutput y = c*x\n"


def _aug(src):
    return augment(parse_model(src))


@pytest.fixture(autouse=True)
def _record_rows(monkeypatch):
    record_rows(monkeypatch)


def _gradient_matrix(cache, k):
    """Symbolic gradient rows of Lie levels 0..k (level outer, output inner)."""
    return [row for j in range(k + 1) for row in gradient_rows(cache, j)]


# --------------------------------------------------------------------------
# extended Lie derivative
# --------------------------------------------------------------------------

def test_lie_of_state_along_decay_field():
    A = _aug(DECAY)
    x, th = A.z
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
    by_hand = sx.div(A.F[0], md.params[3])
    assert got is by_hand


def test_lie_constant_input_contributes_no_derivative_terms():
    src = "model m\nstates x\ninputs u constant\nddt x = -x + u\noutput y = u*x\n"
    A = _aug(src)
    u = A.model.known_inputs[0].symbol
    x = A.z[0]
    # L(u*x) = u * (-x + u); no u' term because u is constant
    assert extended_lie_derivative(A.outputs[0], A) is u * (-x + u)


def test_lie_generic_input_introduces_next_derivative():
    src = "model m\nstates x\ninputs u\nddt x = -x + u\noutput y = u*x\n"
    A = _aug(src)
    spec = A.model.known_inputs[0]
    u, u1 = spec.symbol, spec.symbol.derivative(1)
    x = A.z[0]
    assert extended_lie_derivative(A.outputs[0], A) is u * (-x + u) + u1 * x


def test_lie_time_moves_at_rate_one():
    src = "model m\nstates x\nparams th\nddt x = -th*x + sin(t)\noutput y = x\n"
    A = _aug(src)
    x, th = A.z
    t = sx.TIME
    # L(-th*x + sin(t)) = -th*(-th*x + sin(t)) + cos(t)
    got = extended_lie_derivative(A.F[0], A)
    assert got is -th * A.F[0] + sx.cos(t)


def test_shared_memo_levels_match_fresh_walks():
    # LieCache derives every level with one derivative memo kept for the
    # whole analysis; each level must equal a walk with a fresh memo over the
    # level below.  c2m_a and sirs_forced move a generic input, FORCED moves
    # t and holds a constant input still, and DECAY and its variant share
    # every symbol under different fields, so a memo that outlived its field
    # would leak from one cache into the other.
    forced = "model forced\nstates x\nparams th\ninputs v constant\n" \
             "ddt x = -th*x + sin(t)*v\noutput y = x^2\n"
    systems = [augment(load_model(corpus_dir() / f"{name}.idm"))
               for name in ("sirs_forced", "c2m_a", "a_thaliana")]
    systems += [_aug(forced), _aug(DECAY), _aug(DECAY.replace("-th*x", "th*x^2"))]
    caches = [LieCache(A) for A in systems]
    for cache in caches:
        cache.ensure_level(6)
    for cache in caches:
        for k in range(1, 7):
            fresh = [extended_lie_derivative(phi, cache.A, {}) for phi in cache.lies[k - 1]]
            assert cache.lies[k] == fresh, (cache.A.model.name, k)


def _levels_reached(entry):
    """The number of Lie levels that a default analysis of a corpus entry
    derives."""
    return len(analyze_symbolic(load_model(entry.path)).ranks_by_level)


def test_lie_levels_are_the_eager_walks_nodes(corpus_entries):
    # The derivation builds a product-rule term only if it survives the
    # merge of like terms, and a product's derivative only when it is read
    # as a node; every level it reaches must still be the very node that a
    # walk building every term gives.
    checked = 0
    for e in corpus_entries:
        if e.name == "a_thaliana":
            continue
        levels = _levels_reached(e)
        cache = LieCache(augment(load_model(e.path)))
        cache.ensure_level(levels - 1)
        rate, memo = lie_orc._field_rate(cache.A), {}
        for k in range(1, levels):
            for phi, got in zip(cache.lies[k - 1], cache.lies[k]):
                assert eager_derivative(phi, rate, memo) is got, (e.name, k)
                checked += 1
    assert checked == 394


def _reachable_ids(roots):
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(sx.children(node))
    return seen


def test_derivation_builds_only_what_its_rows_reach(corpus_entries, monkeypatch):
    # A walk that built every product-rule term and every product's sum
    # built 7,052 nodes that no row reaches over the 24 models other than
    # a_thaliana, among them 163 on hiv2, 177 on hiv3, 230 on cholera and 68
    # on tumor.  Every node the derivation builds is counted, also one that
    # nothing holds afterwards.
    built = record_builds(monkeypatch)
    unreached = {}
    for e in corpus_entries:
        if e.name == "a_thaliana":
            continue
        levels = _levels_reached(e)
        cache = LieCache(augment(load_model(e.path)))
        built.clear()
        cache.ensure_level(levels - 1)
        reached = _reachable_ids(phi for level in cache.lies for phi in level)
        unreached[e.name] = sum(id(n) not in reached for n in built)
    assert [unreached[n] for n in ("hiv2", "hiv3", "cholera", "tumor")] == [0] * 4, unreached
    assert sum(unreached.values()) <= 7052 // 10, unreached


# --------------------------------------------------------------------------
# matrix construction
# --------------------------------------------------------------------------

def test_gradient_rows_decay_level1():
    A = _aug(DECAY)
    rows = _gradient_matrix(LieCache(A), 1)
    x, th = A.z
    assert (len(rows), len(rows[0])) == (2, 2)
    assert rows[0] == [sx.ONE, sx.ZERO]
    assert rows[1] == [sx.mul(sx.NEG_ONE, th), sx.mul(sx.NEG_ONE, x)]


def test_gradient_rows_level0_has_m_rows(corpus_entries):
    for entry in corpus_entries[:6]:
        A = augment(load_model(entry.path))
        rows = gradient_rows(LieCache(A), 0)
        assert (len(rows), len(rows[0])) == (len(A.outputs), A.n_z)


def test_gradient_rows_sumrates_identical_param_columns():
    A = _aug(SUMRATES)
    rows = _gradient_matrix(LieCache(A), 1)
    x = A.z[0]
    th1, th2 = A.z[1], A.z[2]
    assert rows[0] == [sx.ONE, sx.ZERO, sx.ZERO]
    minus_x = sx.mul(sx.NEG_ONE, x)
    assert rows[1] == [-(th1 + th2), minus_x, minus_x]


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


@pytest.mark.parametrize("prime", [0, 1, MAX_PRIME + 1, 2**64])
def test_prime_out_of_range_rejected_before_any_work(prime, monkeypatch):
    def no_work(md):
        raise AssertionError("augment ran before the prime was checked")

    monkeypatch.setattr(lie_orc, "augment", no_work)
    with pytest.raises(ValueError, match=rf"^{prime} is not a prime in \(1, {MAX_PRIME}\]$"):
        analyze_symbolic(parse_model(DECAY), SymbolicOptions(primes=(prime,)))


def test_composite_prime_rejected_before_any_work(monkeypatch):
    def no_work(md):
        raise AssertionError("augment ran before the prime was checked")

    monkeypatch.setattr(lie_orc, "augment", no_work)
    with pytest.raises(ValueError, match=rf"^{3 * 1000003} is not a prime in \(1, {MAX_PRIME}\]$"):
        analyze_symbolic(parse_model(DECAY), SymbolicOptions(primes=(3 * 1000003,)))


def test_negative_max_level_rejected_before_any_work(monkeypatch):
    def no_work(md):
        raise AssertionError("augment ran before max_level was checked")

    monkeypatch.setattr(lie_orc, "augment", no_work)
    with pytest.raises(ValueError, match=r"^max_level must be >= 0$"):
        analyze_symbolic(parse_model(DECAY), SymbolicOptions(max_level=-1))


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


@pytest.mark.parametrize("name, p, seed, trials, denominator", [
    ("mapk", 3, 0, 3, "base of 1/(kk2 + x1) is 0 mod 3"),
    ("mapk", 3, 4, 1, "base of 1/(1 + kk3 - x2) is 0 mod 3"),
    ("jak_stat1", 2, 0, 3, "constant 1/2 has denominator divisible by 2"),
])
def test_retries_exhausted_names_the_first_vanishing_denominator(name, p, seed, trials,
                                                                  denominator):
    # The denominator is the first one that the trial's last point reads:
    # rows in order, each row's nodes parents first, each value's subtree
    # depth first.
    md = load_model(corpus_dir() / f"{name}.idm")
    with pytest.raises(RetriesExhausted) as info:
        analyze_symbolic(md, SymbolicOptions(primes=(p,), seed=seed, trials=trials))
    assert str(info.value) == (
        f"all {lie_orc.RETRIES} evaluation points hit a vanishing denominator mod {p} "
        f"(model degenerate at this prime, or prime too small): {denominator}")
    assert isinstance(info.value.__cause__, DivisionByZeroModP)


def test_retries_exhausted_names_a_vanishing_base_as_eval_mod_p_does():
    # At p = 2 every drawn residue is 1, so the base x - k is 0 at every
    # point; the engine names the power node as eval_mod_p does.
    md = parse_model("model v\nstates x\nparams k\nddt x = 1/(x - k)\noutput y = x\n")
    with pytest.raises(RetriesExhausted) as info:
        analyze_symbolic(md, SymbolicOptions(primes=(2,)))
    x, k = sx.state("x"), sx.param("k")
    with pytest.raises(DivisionByZeroModP) as direct:
        sx.eval_mod_p(1 / (x - k), {x: 1, k: 1}, 2)
    assert str(direct.value) == "base of 1/(x - k) is 0 mod 2"
    assert str(info.value).endswith(f": {direct.value}")


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
        batch = _Trials(LieCache(A), range(3), 0, P)
        for extra in (1, 2):
            n = (k_stop + extra + 1) * len(A.outputs)
            assert max(rank_mod_p(rows_of(batch.forms, f), P)
                       for f, _ in enumerate(batch.grow(n))) == rep.rank


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


def test_ic_lines_are_reported_as_ignored():
    # x(0) = 0 makes th unidentifiable from this experiment; the engine still
    # answers for generic initial states, and says so.
    rep = analyze_symbolic(parse_model(DECAY + "ic x = 0\n"))
    assert rep.verdicts == {"x": "observable", "th": "SLI"}
    assert rep.warnings == [
        "initial conditions ignored (ic x): verdicts hold for generic initial states"]
    assert analyze_symbolic(parse_model(DECAY)).warnings == []


def test_transcendental_warning_on_nonrational_model():
    md = load_model(corpus_dir() / "competition.idm")
    rep = analyze_symbolic(md)
    assert any("transcendental" in w for w in rep.warnings)
    assert rep.status == "ok"


@pytest.mark.parametrize("output, warns", [("x + sin(t)", False), ("x*sin(t)", True)])
def test_transcendental_warning_only_when_a_row_reads_one(output, warns):
    # Both models are non-rational.  An Add reads none of its terms, so the
    # rows of x + sin(t) read no transcendental value; x*sin(t) reads sin(t).
    md = parse_model(f"model m\nstates x\nparams k\nddt x = -k*x\noutput y = {output}\n")
    assert not md.is_rational()
    rep = analyze_symbolic(md)
    assert any("transcendental" in w for w in rep.warnings) == warns, rep.warnings


# --------------------------------------------------------------------------
# numeric rows: forward tangents against the symbolic gradient
# --------------------------------------------------------------------------

X, Y, TH = sx.state("x"), sx.state("y"), sx.param("th")
Z = (X, Y, TH)
INDEX = {s: j for j, s in enumerate(Z)}
x, y, th = Z


XYTH = _aug("model xyth\nstates x y\nparams th\nddt x = -th*x\nddt y = x\noutput o = x\n")


class _Reference(_TrialPoint):
    """A point for the symbolic reference rows; ``read`` collects the
    transcendental nodes that their evaluation reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __missing__(self, node):
        if isinstance(node, sx.Func):
            self.read.add(node)
        return super().__missing__(node)


def _eval_row(row, ref: _Reference):
    return [sx.eval_mod_p(e, ref, ref.p, _memo=ref) for e in row]


def _symbolic_row(phi, ref: _Reference):
    return _eval_row([sx.differentiate(phi, s) for s in Z], ref)


def _tangent_row(phi, pt: _TrialPoint):
    # dphi/dz at pt's point by the engine's wave evaluation, and whether it
    # reads a transcendental value; a point that fails raises the first
    # vanishing denominator it reads.
    batch = _Trials(LieCache(XYTH), (pt.trial,), pt.seed, pt.p)
    assert batch.index == INDEX
    batch.points = [pt]
    if batch._evaluate([phi]):
        raise lie_orc._first_failure([phi], batch.zset, pt)
    return rows_of(batch.forms)[-1], batch.transcendental


def test_point_draws_each_node_from_its_tag():
    # A symbol's residue is drawn by its name, a transcendental node's by
    # its hash, under the point's (seed, trial, attempt).
    pt = _TrialPoint(0, 0, 0, P)
    assert pt[x] == _rng.drawer(("sym", 0, 0, 0), P)("x")
    assert pt[sx.exp(x)] == _rng.drawer(("transc", 0, 0, 0), P)(sx.exp(x).shash.hex())


def _assert_sweep_matches(phi):
    pt, ref = _TrialPoint(0, 0, 0, P), _Reference(0, 0, 0, P)
    assert _tangent_row(phi, pt) == (_symbolic_row(phi, ref), bool(ref.read))


@pytest.mark.parametrize("phi", [
    sx.ln(x * y + th),
    sx.exp(x * th) * y,
    sx.sin(x * y) + sx.cos(th * x),
    sx.sin(x * th) * sx.cos(x * th) + sx.cos(x * th) ** 2,
    sx.exp(sx.ln(x) * th) / (y + sx.exp(sx.ln(x) * th)),
    x ** -2 * y + th / (x + y) + (x + th) ** -3,
    x + sx.exp(sx.TIME) + sx.sin(sx.known_input("u")) * y,
], ids=["ln", "exp", "sin-cos", "sin-cos-one-arg", "hill", "negative-powers",
        "transcendental-off-z"])
def test_grad_row_matches_symbolic_gradient(phi):
    _assert_sweep_matches(phi)


def test_grad_row_shared_subtree():
    s = x * y + th
    _assert_sweep_matches(s ** 2 + sx.ln(s) * x + sx.exp(s) / s)


def test_grad_row_product_with_a_zero_factor():
    vy = _TrialPoint(0, 0, 0, P)[Y]
    zero = y - vy  # 0 mod P at the point
    phi = x * zero * th * (x + th) + zero * sx.sin(x * th)
    _assert_sweep_matches(phi)
    row, _ = _tangent_row(phi, _TrialPoint(0, 0, 0, P))
    assert row[0] == 0 and row[2] == 0 and row[1] != 0


@pytest.mark.parametrize("vanishing", [
    lambda zero: x / zero + th,
    lambda zero: x * sx.ln(zero),
], ids=["negative-power", "ln"])
def test_grad_row_vanishing_denominator_raises(vanishing):
    phi = vanishing(y - _TrialPoint(0, 0, 0, P)[Y])
    with pytest.raises(DivisionByZeroModP):
        _tangent_row(phi, _TrialPoint(0, 0, 0, P))
    with pytest.raises(DivisionByZeroModP):
        _symbolic_row(phi, _Reference(0, 0, 0, P))


def _input_zero_model(output: str):
    # One trial at seed 0: u - c is 0 mod P at attempt 0 and not at attempt 1.
    src = "model m\nstates x\nparams th\ninputs u constant\nddt x = -th*x\noutput y = {}\n"
    u = augment(parse_model(src.format("x"))).model.known_inputs[0].symbol
    c = _TrialPoint(0, 0, 0, P)[u]
    assert _TrialPoint(0, 0, 1, P)[u] != c
    return augment(parse_model(src.format(output.replace("c", str(c)))))


def _symbolic_rows(A, cache, n, ref):
    rows = [row for j in range(n // len(A.outputs)) for row in gradient_rows(cache, j)]
    return [_eval_row(row, ref) for row in rows]


def test_vanishing_denominator_in_an_unread_add_term_keeps_the_point():
    # An Add reads none of its terms' values, so 1/(u - c) with u = c at
    # the point is never read by the row's derivative.
    A = _input_zero_model("x*th + 1/(u - c)")
    cache = LieCache(A)
    batch = _Trials(cache, (0,), 0, P)
    pt, = batch.grow(2)
    assert pt.attempt == 0
    assert rows_of(batch.forms) == _symbolic_rows(A, cache, 2, _Reference(0, 0, 0, P))


def test_undefined_value_is_read_at_a_later_level():
    # s = x + 1/(u - c) is undefined at attempt 0, but its row reads no
    # value, so the point survives it.  The next rows' new nodes take the
    # rows where s's undefined child was kept, and read only defined values;
    # a row after them whose product reads s fails the point, as its
    # symbolic row does.
    A = _input_zero_model("x")
    x, th = A.z
    u = A.model.known_inputs[0].symbol
    c = _TrialPoint(0, 0, 0, P)[u]
    s = x + 1 / (u - c)
    defined = th ** 2 * th ** 3 * x ** 3 * x ** 5 * (th + 1) ** 2
    ref = _Reference(0, 0, 0, P)
    batch = _Trials(LieCache(A), (0,), 0, P)
    for phi, fails in ((s, False), (defined, False), (s * x * th, True)):
        assert batch._evaluate([phi]) == ([0] if fails else []), phi
        if fails:
            with pytest.raises(DivisionByZeroModP):
                _eval_row([sx.differentiate(phi, z) for z in A.z], ref)
        else:
            assert rows_of(batch.forms)[-1] == \
                _eval_row([sx.differentiate(phi, z) for z in A.z], ref)


def test_vanishing_denominator_in_a_sibling_factor_restarts_the_trial():
    # A Mul with two z-dependent factors reads every factor, 1/(u - c) too.
    A = _input_zero_model("x*th/(u - c)")
    cache = LieCache(A)
    batch = _Trials(cache, (0,), 0, P)
    pt, = batch.grow(2)
    assert pt.attempt == 1
    with pytest.raises(DivisionByZeroModP):
        _symbolic_rows(A, cache, 2, _Reference(0, 0, 0, P))
    assert rows_of(batch.forms) == _symbolic_rows(A, cache, 2, _Reference(0, 0, 1, P))


def test_lone_sin_reads_only_its_cosine():
    _assert_sweep_matches(sx.sin(x * th))
    ref = _Reference(0, 0, 0, P)
    _symbolic_row(sx.sin(x * th), ref)
    assert ref.read == {sx.cos(x * th)}


def test_trials_batched_get_the_rows_they_get_alone():
    A = augment(load_model(corpus_dir() / "gene_p53.idm"))
    m = len(A.outputs)
    batch = _Trials(LieCache(A), range(3), 0, P)
    alone = [_Trials(LieCache(A), (trial,), 0, P) for trial in range(3)]
    for k in range(5):
        points = batch.grow((k + 1) * m)
        for trial, pt in enumerate(points):
            single, = alone[trial].grow((k + 1) * m)
            assert (pt.trial, pt.attempt, rows_of(batch.forms, trial)) == \
                (trial, single.attempt, rows_of(alone[trial].forms)), k
            assert batch.transcendental == alone[trial].transcendental, k


def test_sweep_rows_match_symbolic_rows_on_corpus(corpus_entries, reports_by_key):
    # Every model, every level the engine reaches, trial 0 at the default
    # prime: the engine's rows equal the symbolic rows evaluated at the same
    # point with the same transcendental table.  a_thaliana is checked
    # through level 8 only: the test-side gradient_rows (n_z differentiate
    # calls per row) roughly doubles in cost per level, so levels 0-8 take
    # about 8 s and its 18 levels would take minutes.
    for entry in corpus_entries:
        A = augment(load_model(entry.path))
        cache = LieCache(A)
        batch = _Trials(cache, (0,), 0, P)
        ref, expected = None, []
        levels = len(reports_by_key[(entry.name, "symbolic")].ranks_by_level)
        if entry.name == "a_thaliana":
            levels = min(levels, 9)
        for k in range(levels):
            pt, = batch.grow((k + 1) * len(A.outputs))
            if ref is None or ref.attempt != pt.attempt:
                ref, expected = _Reference(0, 0, pt.attempt, P), []
            expected += [_eval_row(row, ref)
                         for row in _gradient_matrix(cache, k)[len(expected):]]
            assert rows_of(batch.forms) == expected, (entry.name, k)
            assert batch.transcendental == bool(ref.read), (entry.name, k)


def test_restart_takes_smallest_attempt_that_evaluates_all_rows():
    # At p = 101 trial 0 of mapk (seed 30) hits a vanishing denominator at
    # level 1 and restarts, and at p = 107 trial 0 of pk2 (seed 4) does at
    # level 3.  At each level the rows are the symbolic rows at the smallest
    # attempt whose point evaluates rows 0..k, and the report's rank at each
    # level and its verdicts are those of these rows alone.  On pk2 a trial
    # that kept ranking its first attempt's rows would reach full rank 13.
    for name, p, seed in (("mapk", 101, 30), ("pk2", 107, 4)):
        _check_restarts(name, p, seed)


def _check_restarts(name, p, seed):
    trials = 3
    md = load_model(corpus_dir() / f"{name}.idm")
    A = augment(md)
    rep = analyze_symbolic(md, SymbolicOptions(primes=(p,), seed=seed, trials=trials))
    cache = LieCache(A)
    alone = [_Trials(cache, (trial,), seed, p) for trial in range(trials)]
    restarted = False
    for k in range(len(rep.ranks_by_level)):
        rows = _gradient_matrix(cache, k)
        numeric = []
        for trial in range(trials):
            pt, = alone[trial].grow(len(rows))
            got = rows_of(alone[trial].forms)
            for attempt in range(lie_orc.RETRIES):
                ref = _Reference(seed, trial, attempt, p)
                try:
                    want = [_eval_row(row, ref) for row in rows]
                except DivisionByZeroModP:
                    continue
                break
            assert got == want, (name, k, trial)
            assert alone[trial].transcendental == bool(ref.read), (name, k, trial)
            assert pt.attempt == attempt
            assert alone[trial].forms.ranks == [rank_mod_p(got, p)], (name, k, trial)
            restarted = restarted or attempt > 0
            numeric.append(got)
        assert rep.ranks_by_level[k] == max(rank_mod_p(got, p) for got in numeric), (name, k)
    assert restarted, name

    r = rep.rank
    deleted = [deleted_column_ranks(got, p) for got in numeric if rank_mod_p(got, p) == r]
    identifiable = [all(d[j] == r - 1 for d in deleted) for j in range(A.n_z)]
    assert rep.verdicts == {s.name: verdict_for(s.kind, ok)
                            for s, ok in zip(A.z, identifiable)}, name


def test_restart_of_one_trial_leaves_the_others_alone():
    # mapk at p = 101, seed 30: trial 0 meets a vanishing denominator at
    # level 1 and restarts.  Evaluated together, trials 1 and 2 keep the rows
    # each gets alone, and every trial sits at the smallest attempt whose
    # point evaluates all of its rows.
    p, seed, trials = 101, 30, 3
    md = load_model(corpus_dir() / "mapk.idm")
    A = augment(md)
    m = len(A.outputs)
    levels = len(analyze_symbolic(md, SymbolicOptions(primes=(p,), seed=seed)).ranks_by_level)
    batch = _Trials(LieCache(A), range(trials), seed, p)
    alone = [_Trials(LieCache(A), (trial,), seed, p) for trial in range(trials)]
    for k in range(levels):
        n = (k + 1) * m
        points = batch.grow(n)
        rows = _gradient_matrix(batch.cache, k)
        for trial, pt in enumerate(points):
            single, = alone[trial].grow(n)
            got = rows_of(alone[trial].forms)
            assert (rows_of(batch.forms, trial), batch.transcendental) == \
                (got, alone[trial].transcendental), (k, trial)
            for attempt in range(pt.attempt + 1):
                try:
                    want = [_eval_row(row, _Reference(seed, trial, attempt, p))
                            for row in rows]
                except DivisionByZeroModP:
                    assert attempt < pt.attempt, (k, trial)
                    continue
                assert attempt == pt.attempt and got == want, (k, trial)
        attempts = [pt.attempt for pt in points]
        assert attempts == ([0, 0, 0] if k == 0 else [attempts[0], 0, 0]), k
    assert points[0].attempt > 0


def test_tangents_are_reused_across_levels():
    # After level K the slots hold exactly the distinct z-dependent nodes of
    # levels 0..K, and no node gets two slots.
    md = load_model(corpus_dir() / "sirs_forced.idm")
    A = augment(md)
    zset = frozenset(A.z)
    cache = LieCache(A)
    batch = _Trials(cache, range(3), 0, P)
    m = len(A.outputs)
    dependent, symbols = set(), {}
    for k in range(6):
        points = batch.grow((k + 1) * m)
        assert [pt.attempt for pt in points] == [0, 0, 0]
        stack = list(cache.lies[k])
        while stack:
            node = stack.pop()
            if node in dependent or free_symbols(node, symbols).isdisjoint(zset):
                continue
            dependent.add(node)
            stack.extend(getattr(node, "terms", ()) or getattr(node, "factors", ()))
            stack.extend(c for c in (getattr(node, "base", None), getattr(node, "arg", None))
                         if c is not None)
        assert set(batch.slot) == dependent, k
        assert _slots(batch) == len(dependent), k
    # A batch already holding n rows evaluates nothing and leaves the ranks.
    ranks = batch.forms.ranks
    assert batch.grow(m) == points and batch.forms.ranks == ranks
    assert _slots(batch) == len(dependent)


@pytest.mark.parametrize("name, p, seed", [
    ("sirs_forced", P, 0),
    ("pk2", 107, 4),  # trial 0 restarts at level 3
    ("mapk", 101, 30),  # trial 0 restarts at level 1
])
def test_store_grown_from_one_row_gives_the_rows_of_an_ample_one(name, p, seed, monkeypatch):
    # A batch whose slot store starts at one row grows it at the levels that
    # need more rows, in the middle of an evaluation, and starts it again at
    # one row on a restart; its points, slots, rows and ranks are those of a
    # batch whose store never grows.
    md = load_model(corpus_dir() / f"{name}.idm")
    A = augment(md)
    m = len(A.outputs)
    levels = len(analyze_symbolic(md, SymbolicOptions(primes=(p,), seed=seed)).ranks_by_level)
    ample = 4096
    batches = {}
    for rows in (1, ample):
        monkeypatch.setattr(lie_orc, "_ROWS", rows)
        batches[rows] = _Trials(LieCache(A), range(3), seed, p)
    resets, reset = [], _Trials._reset

    def spy(self):
        resets.append(self)
        reset(self)

    monkeypatch.setattr(_Trials, "_reset", spy)
    held = []
    for k in range(levels):
        got = {}
        for rows, batch in batches.items():
            monkeypatch.setattr(lie_orc, "_ROWS", rows)
            points = batch.grow((k + 1) * m)
            got[rows] = ([(pt.trial, pt.attempt) for pt in points], batch.slot,
                         [rows_of(batch.forms, f) for f in range(len(points))],
                         batch.forms.ranks, batch.transcendental)
        assert got[1] == got[ample], (name, k)
        assert len(batches[ample].TAN) == ample
        held.append(len(batches[1].TAN))
    assert held == sorted(held) and held[-1] >= len(batches[1].slot) > held[0] > 1, held
    restarted = name != "sirs_forced"
    assert resets.count(batches[1]) == resets.count(batches[ample]) == restarted
    assert max(attempt for _, attempt in got[1][0]) == restarted


def _slots(batch):
    # The store's filled rows: the distinct rows that the slots address.
    rows = set(batch.slot.values())
    assert rows <= set(range(len(batch.TAN)))
    return len(rows)


def _walk_oracle(rows, slot, zset, symbols):
    """``lie_orc._walk`` with z-dependence read from ``free_symbols``, its
    memo ``symbols``."""
    def depends(node):
        return not free_symbols(node, symbols).isdisjoint(zset)

    posts = []
    for phi in rows:
        post = []
        stack = [] if phi in slot or not depends(phi) else [(phi, iter(sx.children(phi)), [], [])]
        while stack:
            node, it, dep, ind = stack[-1]
            for c in it:
                if c in slot:
                    dep.append(slot[c])
                elif depends(c):
                    stack.append((c, iter(sx.children(c)), [], []))
                    break
                else:
                    ind.append(c)
            else:
                stack.pop()
                g = slot[node] = len(slot)
                post.append((node, dep, ind))
                if stack:
                    stack[-1][2].append(g)
        posts.append(post)
    return posts


def test_walk_matches_free_symbols_oracle(corpus_entries):
    # Level by level, as _Trials walks them: the same new nodes in the same
    # order, with the same children, on every corpus model through level 3.
    for entry in corpus_entries:
        A = augment(load_model(entry.path))
        zset = frozenset(A.z)
        cache = LieCache(A)
        cache.ensure_level(3)
        slot, want, indep, symbols = {}, {}, set(), {}
        for k, rows in enumerate(cache.lies[:4]):
            assert lie_orc._walk(rows, slot, indep, zset) == \
                _walk_oracle(rows, want, zset, symbols), (entry.name, k)
        assert slot == want
        assert all(free_symbols(node, symbols).isdisjoint(zset) for node in indep)


def test_deadline_passing_mid_walk_stops_the_derivation(monkeypatch):
    # A fake clock passes the deadline at its second reading.  Only the
    # derivative walk reads it, every 256 new memo entries, so the
    # derivation must stop inside the first output's walk.
    A = augment(load_model(corpus_dir() / "a_thaliana.idm"))
    cache = LieCache(A)
    cache.ensure_level(10)
    start = len(cache._derivs)
    memo = dict(cache._derivs)
    extended_lie_derivative(cache.lies[10][0], A, memo)
    whole = len(memo) - start
    assert whole > 2 * sx._CHECK_EVERY
    readings = []
    monkeypatch.setattr(errors, "time", SimpleNamespace(
        monotonic=lambda: readings.append(None) or float(len(readings))))
    cache.ctx = errors.RunContext(1.5)
    with pytest.raises(EngineTimeout):
        cache.ensure_level(11)
    assert len(readings) == 2
    assert len(cache.lies) == 11 and len(cache._derivs) - start < whole


def _chain_model(n: int) -> str:
    """Catenary linear compartment model: n compartments in a row, input,
    output and leak in compartment 1 (n_z = 3n - 1)."""
    lines = [f"model chain{n}", "states " + " ".join(f"x{i}" for i in range(1, n + 1)),
             "params k0 " + " ".join(f"a{i} b{i}" for i in range(1, n)), "inputs u"]
    for i in range(1, n + 1):
        rhs = []
        if i > 1:
            rhs.append(f"a{i - 1}*x{i - 1} - b{i - 1}*x{i}")
        if i < n:
            rhs.append(f"b{i}*x{i + 1} - a{i}*x{i}")
        if i == 1:
            rhs.append("u - k0*x1")
        lines.append(f"ddt x{i} = " + " + ".join(rhs))
    lines.append("output y = x1")
    return "\n".join(lines) + "\n"


def test_default_recursion_limit_suffices(tmp_path):
    """Importing identiscope leaves the recursion limit alone, and the
    symbolic engine decides a 30-compartment chain (n_z = 89) at the
    interpreter's default limit."""
    path = tmp_path / "chain30.idm"
    path.write_text(_chain_model(30))
    script = (
        "import json, sys\n"
        "before = sys.getrecursionlimit()\n"
        "import identiscope\n"
        "rep = identiscope.analyze_symbolic(identiscope.load_model(sys.argv[1]))\n"
        "print(json.dumps([before, sys.getrecursionlimit(), rep.status, rep.rank, rep.n_z]))\n"
    )
    src = str(Path(identiscope.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert res.returncode == 0, res.stderr
    before, after, status, rank, n_z = json.loads(res.stdout)
    assert after == before
    assert (status, rank, n_z) == ("ok", 89, 89)
