"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -v to see them)."""

import time

import pytest

from identiscope import symexpr as sx
from identiscope.bench import BenchOptions, compare_engines, emit_report, run_corpus
from identiscope.ffprob import (
    FfprobOptions,
    TruncSeries,
    analyze_ffprob,
    cross_check_lie,
    eval_expr_series,
    output_jacobian,
    series_solve,
)
from identiscope.lie_orc import LieCache, analyze_symbolic
from identiscope._linalg import rank_mod_p
from identiscope.model import augment, load_model, parse_model, print_model
from oracles import deleted_column_ranks

P = 2147483647

# The 25 corpus rows: (states, params, known inputs, unknown inputs,
# outputs, rational).
TABLE_ROWS = {
    "c2m_a": (2, 4, 1, 0, 1, True),
    "c2m_b": (2, 4, 0, 0, 1, True),
    "c2m_c": (2, 4, 0, 1, 1, True),
    "competition": (2, 6, 0, 0, 1, False),
    "hiv1_a": (3, 5, 1, 0, 2, True),
    "hiv1_b": (3, 5, 0, 1, 2, True),
    "hiv2": (4, 10, 0, 0, 2, True),
    "hiv3": (5, 10, 0, 0, 2, True),
    "nfkb1": (15, 29, 0, 0, 6, True),
    "nfkb2": (15, 6, 1, 0, 6, True),
    "phosphorylation": (6, 6, 0, 0, 2, True),
    "pk1": (4, 9, 0, 0, 2, True),
    "pk2": (4, 9, 0, 0, 1, True),
    "ruminal": (5, 4, 0, 0, 3, True),
    "tumor": (5, 5, 0, 0, 1, True),
    "mapk": (3, 14, 0, 0, 3, False),
    "a_thaliana": (7, 29, 1, 0, 2, False),
    "toggle_a": (2, 10, 2, 0, 2, False),
    "toggle_b": (2, 10, 0, 2, 2, False),
    "jak_stat1": (10, 23, 1, 0, 8, True),
    "jak_stat2": (25, 24, 0, 0, 14, True),
    "beta_ig": (3, 5, 1, 0, 1, True),
    "sirs_forced": (5, 13, 1, 0, 2, True),
    "cholera": (4, 7, 0, 0, 2, True),
    "gene_p53": (4, 25, 1, 0, 4, True),
}

CROSS_CHECK_MODELS = ["c2m_a", "c2m_b", "c2m_c", "hiv1_a", "hiv1_b",
                      "ruminal", "cholera", "tumor", "beta_ig", "pk1"]


def crit(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}{(' — ' + detail) if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def test_criterion_1_corpus_dimension_fidelity(corpus_entries):
    t0 = time.perf_counter()
    entries = {e.name: e for e in corpus_entries}
    ok = len(entries) == 25
    for name, row in TABLE_ROWS.items():
        md = load_model(entries[name].path)
        got = (md.n, md.p, md.q, md.q_w, md.m, md.is_rational())
        if got != row:
            ok = False
            print(f"  mismatch {name}: got {got}, expected {row}")
    elapsed = time.perf_counter() - t0
    crit(1, "corpus dimension fidelity (25 entries)", ok and elapsed < 5,
         f"{elapsed:.2f} s")


def test_criterion_2_engine_equivalence(reports_by_key, corpus_entries):
    rational = [e.name for e in corpus_entries if e.rational and not e.heavy]
    ok = True
    for name in rational:
        sym = reports_by_key[(name, "symbolic")]
        ffp = reports_by_key[(name, "ffprob")]
        if sym.status != "ok" or ffp.status != "ok" or sym.verdicts != ffp.verdicts:
            ok = False
            print(f"  disagreement on {name}")
    spent = sum(reports_by_key[(n, e)].wall_time_ms
                for n in rational for e in ("symbolic", "ffprob")) / 1e3
    crit(2, f"engine equivalence on {len(rational)} rational models",
         ok and spent < 600, f"analysis time {spent:.1f} s")


def test_criterion_3_coefficient_lie_correspondence(corpus_entries):
    t0 = time.perf_counter()
    entries = {e.name: e for e in corpus_entries}
    ok = len(CROSS_CHECK_MODELS) >= 8
    for name in CROSS_CHECK_MODELS:
        md = load_model(entries[name].path)
        k = min(4, augment(md).n_z - 1)
        if not cross_check_lie(md, k, P, seed=0):
            ok = False
            print(f"  cross-check failed on {name}")
    elapsed = time.perf_counter() - t0
    crit(3, f"coefficient-Lie correspondence on {len(CROSS_CHECK_MODELS)} models",
         ok and elapsed < 120, f"{elapsed:.2f} s")


def test_criterion_4_hand_derived_toys():
    t0 = time.perf_counter()
    toys = [
        ("model decay\nstates x\nparams th\nddt x = -th*x\noutput y = x\n",
         {"x": "observable", "th": "SLI"}),
        ("model sumrates\nstates x\nparams th1 th2\nddt x = -(th1+th2)*x\noutput y = x\n",
         {"x": "observable", "th1": "SU", "th2": "SU"}),
        ("model scaling\nstates x\nparams th c\nddt x = th*x\noutput y = c*x\n",
         {"x": "unobservable", "th": "SLI", "c": "SU"}),
    ]
    ok = True
    for src, expected in toys:
        md = parse_model(src)
        for rep in (analyze_symbolic(md), analyze_ffprob(md)):
            if rep.verdicts != expected:
                ok = False
                print(f"  {md.name}/{rep.engine}: {rep.verdicts} != {expected}")
    elapsed = time.perf_counter() - t0
    crit(4, "hand-derived toy suite in both engines", ok and elapsed < 10,
         f"{elapsed:.2f} s")


def test_criterion_5_speed_ordering(reports_by_key):
    ok = True
    details = []
    for name in ("hiv2", "gene_p53"):
        sym = reports_by_key[(name, "symbolic")].wall_time_ms
        ffp = reports_by_key[(name, "ffprob")].wall_time_ms
        details.append(f"{name}: ffprob {ffp:.0f} ms vs symbolic {sym:.0f} ms")
        if not ffp <= 0.5 * sym:
            ok = False
    crit(5, "finite-field engine at most half the symbolic wall time",
         ok, "; ".join(details))


def test_criterion_6_prime_sensitivity_regression():
    t0 = time.perf_counter()
    trap = f"model trap\nstates x\nparams th\nddt x = -th*x\noutput y = {P}*x\n"
    md = parse_model(trap)
    forced = analyze_ffprob(md, FfprobOptions(primes=(P,), trials=1))
    default = analyze_ffprob(md, FfprobOptions())
    ok = (forced.rank == 0 and default.rank == 2
          and default.per_prime_ranks[str(P)] == [0, 0]
          and default.verdicts == {"x": "observable", "th": "SLI"})
    elapsed = time.perf_counter() - t0
    crit(6, "prime-sensitivity regression (single prime vs aggregation)",
         ok and elapsed < 5,
         f"forced rank {forced.rank}, aggregated rank {default.rank}, {elapsed:.2f} s")


def test_criterion_7_invariant_suites(corpus_entries, reports_by_key):
    t0 = time.perf_counter()
    ok = True
    nonheavy = [e for e in corpus_entries if not e.heavy]

    # Rank monotonicity by level (symbolic reports).
    for e in nonheavy:
        ranks = reports_by_key[(e.name, "symbolic")].ranks_by_level
        if not all(a <= b for a, b in zip(ranks, ranks[1:])):
            ok = False
            print(f"  rank not monotone for {e.name}: {ranks}")

    # Column-deletion rank is always r or r-1: check one random Jacobian
    # per rational model, one evaluated symbolic matrix per non-rational.
    from identiscope.ffprob import TrialConfig, _draw_trial

    for e in nonheavy:
        md = load_model(e.path)
        A = augment(md)
        if e.rational:
            cfg = TrialConfig(prime=P, seed=0, order=max(A.n_z - 1, 1))
            z0, u = _draw_trial(A, cfg, 0, 0)
            sol = series_solve(A, z0, u, cfg.order, P)
            numeric = output_jacobian(sol, A)
        else:
            rep = reports_by_key[(e.name, "symbolic")]
            n = len(rep.ranks_by_level) * len(A.outputs)
            numeric, _ = LieCache(A).numeric_rows(n, 0, 0, P, 25)
        r = rank_mod_p(numeric, P)
        for j, rj in enumerate(deleted_column_ranks(numeric, P)):
            if rj not in (r - 1, r):
                ok = False
                print(f"  column-deletion invariant broken on {e.name} col {j}")

    # ODE and sensitivity residuals vanish identically (eager re-evaluation).
    for e in nonheavy:
        if not e.rational:
            continue
        md = load_model(e.path)
        A = augment(md)
        order = 5
        u_series = [TruncSeries([3 + 2 * j for j in range(order + 1)], P)
                    for _ in md.known_inputs]
        sol = series_solve(A, [7 + i for i in range(A.n_z)], u_series, order, P)
        env = {s: sol.z_series[i] for i, s in enumerate(A.z)}
        for spec, series in zip(md.known_inputs, sol.u_series):
            env[spec.symbol] = series
        memo = {}
        for i, Fi in enumerate(A.F):
            rhs = (TruncSeries.constant(0, order, P) if Fi is sx.ZERO
                   else eval_expr_series(Fi, env, order, P, _memo=memo))
            if sol.z_series[i].differentiate().coeffs != rhs.coeffs[:order]:
                ok = False
                print(f"  ODE residual nonzero for {e.name} row {i}")
        jrows = []
        for Fi in A.F:
            row = []
            for zl in A.z:
                d = sx.differentiate(Fi, zl)
                row.append(None if d is sx.ZERO
                           else eval_expr_series(d, env, order, P, _memo=memo))
            jrows.append(row)
        zero = TruncSeries.constant(0, order, P)
        for i in range(A.n_z):
            if sol.S_series[i][i].coeffs[0] != 1:
                ok = False
            for j in range(A.n_z):
                acc = zero
                for l in range(A.n_z):
                    if jrows[i][l] is not None:
                        acc = acc + jrows[i][l] * sol.S_series[l][j]
                if sol.S_series[i][j].differentiate().coeffs != acc.coeffs[:order]:
                    ok = False
                    print(f"  sensitivity residual nonzero for {e.name} ({i},{j})")

    # Parser round-trips on the full corpus, heavy entries included.
    for e in corpus_entries:
        md = load_model(e.path)
        if parse_model(print_model(md)) != md:
            ok = False
            print(f"  round-trip failed for {e.name}")

    # Report determinism (modulo the wall-time field).
    for name in ("c2m_a", "tumor", "cholera"):
        path = next(e.path for e in corpus_entries if e.name == name)
        md = load_model(path)
        pairs = [
            (analyze_symbolic(md).to_dict(include_timing=False),
             analyze_symbolic(md).to_dict(include_timing=False)),
            (analyze_ffprob(md).to_dict(include_timing=False),
             analyze_ffprob(md).to_dict(include_timing=False)),
        ]
        if any(a != b for a, b in pairs):
            ok = False
            print(f"  nondeterministic report for {name}")

    elapsed = time.perf_counter() - t0
    crit(7, "invariant suites across the non-heavy corpus",
         ok and elapsed < 300, f"{elapsed:.1f} s")


def test_criterion_8_na_and_timeout_semantics(corpus_entries, tmp_path):
    import shutil
    d = tmp_path / "corpus"
    d.mkdir()
    for name in ("c2m_a", "competition"):
        src = next(e.path for e in corpus_entries if e.name == name)
        shutil.copy(src, d / f"{name}.idm")

    reports = run_corpus(d, BenchOptions())
    na = [r for r in reports if r.status == "na"]
    ok = ([(r.model, r.engine) for r in na] == [("competition", "ffprob")]
          and na[0].verdicts is None)

    tiny = run_corpus(d, BenchOptions(engines=("symbolic",), timeout_s=1e-9))
    ok = ok and all(r.status == "timeout" and r.verdicts is None and r.rank is None
                    for r in tiny)
    crit(8, "N/A and timeout record semantics", ok,
         f"{len(na)} na record(s), {len(tiny)} timeout record(s)")
