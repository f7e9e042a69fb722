"""Command-line front end.

Commands:
  analyze  — run one or both engines on a single model and print verdicts
  bench    — run the benchmark corpus with per-model timeouts
  check    — parse and validate a model file
  explain  — show the augmented system (z vector, dynamics, outputs)

Exit codes: 0 success, 1 analysis error (machine-readable JSON on stderr),
2 usage or model-parse error, 3 engine disagreement under
--require-consensus.  Stdout is byte-deterministic for a fixed seed; wall
times go to stderr.  The IDENTISCOPE_SEED environment variable overrides
the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import NoReturn

from . import bench as bench_mod
from . import symexpr as sx
from ._linalg import MAX_PRIME
from .errors import IdentiscopeError, ModelError, NonRationalExpr
from .ffprob import DEFAULT_PRIMES
from .model import augment, load_model
from .report import STATUS_OK, AnalysisReport

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2
EXIT_DISAGREE = 3


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _load(path: str):
    """The parsed model; an unreadable file or a model error exits 2."""
    try:
        return load_model(path)
    except (ModelError, OSError) as exc:
        _usage_error(str(exc))


def _run_settings(args) -> tuple[int, tuple[int, ...], tuple[str, ...]]:
    """(seed, primes, engines) for analyze and bench, after checking
    --prime, --trials, --max-level, --series-order, --timeout-s and
    IDENTISCOPE_SEED; a bad value exits 2."""
    for p in args.prime or ():
        try:
            bench_mod.check_prime(p)
        except ValueError as exc:
            _usage_error(f"--prime {exc}")
    if args.trials is not None and args.trials < 1:
        _usage_error(f"--trials {args.trials}: need at least 1")
    if args.max_level is not None and args.max_level < 0:
        _usage_error(f"--max-level {args.max_level}: need at least 0")
    if args.series_order is not None and args.series_order < 1:
        _usage_error(f"--series-order {args.series_order}: need at least 1")
    if args.timeout_s is not None and not args.timeout_s > 0:
        _usage_error(f"--timeout-s {args.timeout_s}: need a positive number of seconds")
    env = os.environ.get("IDENTISCOPE_SEED", "0")
    try:
        seed = args.seed if args.seed is not None else int(env)
    except ValueError:
        _usage_error(f"IDENTISCOPE_SEED={env!r}: need an integer")
    primes = tuple(args.prime) if args.prime else DEFAULT_PRIMES
    engines = bench_mod.ENGINES if args.engine == "both" else (args.engine,)
    return seed, primes, engines


def _machine_error(exc: Exception):
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="identiscope",
        description="Structural local identifiability and observability analysis "
                    "for ODE models.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--engine", choices=["symbolic", "ffprob", "both"],
                       default="both", help="analysis engine")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (default 0, or IDENTISCOPE_SEED)")
        p.add_argument("--prime", type=int, action="append", default=None,
                       metavar="P", help=f"prime field modulus in (2^20, {MAX_PRIME}], "
                       f"repeatable (default {list(DEFAULT_PRIMES)})")
        p.add_argument("--trials", type=int, default=None,
                       help="random trials per prime, at least 1 "
                            "(default: symbolic 3, ffprob 2)")
        p.add_argument("--max-level", type=int, default=None,
                       help="symbolic engine: max Lie-derivative level (default n_z-1)")
        p.add_argument("--series-order", type=int, default=None,
                       help="ffprob engine: max series order (default n_z-1); "
                            "stops earlier at full rank or saturation")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="also write the full JSON report to PATH")
        p.add_argument("--require-consensus", action="store_true",
                       help="exit 3 if the engines disagree")

    pa = sub.add_parser("analyze", help="analyze a single model file",
                        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    pa.add_argument("model", help="path to a .idm model file")
    common(pa)
    pa.add_argument("--timeout-s", type=float, default=None,
                    help="wall-clock bound for the analysis in seconds, > 0 "
                         "(default: none)")

    pb = sub.add_parser("bench", help="run the benchmark corpus",
                        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    pb.add_argument("corpus", nargs="?", default=None,
                    help="corpus directory (default: packaged corpus)")
    common(pb)
    pb.add_argument("--timeout-s", type=float, default=bench_mod.DEFAULT_TIMEOUT_S,
                    help="per-model wall-clock bound in seconds, > 0")
    pb.add_argument("--format", choices=["json", "csv"], default=None,
                    help="emit the machine-readable document to stdout")
    pb.add_argument("--heavy", action="store_true",
                    help="include heavy-tagged corpus models")

    pc = sub.add_parser("check", help="parse and validate a model file")
    pc.add_argument("model", help="path to a .idm model file")

    pe = sub.add_parser("explain", help="print the augmented system")
    pe.add_argument("model", help="path to a .idm model file")

    return ap


def _print_report(r: AnalysisReport):
    print(f"engine: {r.engine}")
    print(f"status: {r.status}")
    if r.status == STATUS_OK:
        print(f"rank: {r.rank} / {r.n_z}  (stop: {r.stop_reason})")
        if r.ranks_by_level is not None:
            print(f"ranks by level: {r.ranks_by_level}")
        if r.per_prime_ranks is not None:
            for p, ranks in r.per_prime_ranks.items():
                print(f"prime {p}: ranks {ranks}")
        print("verdicts:")
        width = max(len(n) for n in r.verdicts)
        for name, verdict in r.verdicts.items():
            print(f"  {name:<{width}}  {verdict}")
        for w in r.warnings:
            print(f"note: {w}")
    elif r.error:
        print(f"error: {r.error}")
    print(f"time: {r.wall_time_ms:.1f} ms", file=sys.stderr)


def cmd_analyze(args) -> int:
    seed, primes, engines = _run_settings(args)
    md = _load(args.model)
    deadline = None if args.timeout_s is None else time.monotonic() + args.timeout_s
    reports = []
    for engine in engines:
        try:
            reports.append(bench_mod.analyze(
                md, engine, seed=seed, primes=primes, trials=args.trials,
                deadline=deadline, max_level=args.max_level, order=args.series_order))
        except IdentiscopeError as exc:
            # Under "both" a non-rational model gives ffprob an na record.
            if not (args.engine == "both" and isinstance(exc, NonRationalExpr)):
                _machine_error(exc)
                return EXIT_ANALYSIS
            reports.append(bench_mod.failure_record(md, engine, seed, exc))

    print(f"model: {md.name}")
    for r in reports:
        print()
        _print_report(r)

    consensus = bench_mod.compare_engines(reports)
    verdict = consensus[0] if consensus else None
    if len(reports) > 1 and verdict is not None:
        print()
        if verdict.agreement == "agree":
            print("consensus: engines agree")
        elif verdict.agreement == "disagree":
            print("consensus: engines DISAGREE on "
                  + ", ".join(d["symbol"] for d in verdict.disagreements))
        else:
            print("consensus: unconfirmed (one usable engine result)")

    if args.json:
        doc = bench_mod.emit_report(reports, consensus)
        with open(args.json, "wb") as fh:
            fh.write(doc)

    if args.require_consensus and verdict is not None and verdict.agreement == "disagree":
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_bench(args) -> int:
    seed, primes, engines = _run_settings(args)
    opts = bench_mod.BenchOptions(
        engines=engines,
        timeout_s=args.timeout_s,
        seed=seed,
        include_heavy=args.heavy,
        trials=args.trials,
        primes=primes,
    )
    reports = bench_mod.run_corpus(args.corpus, opts)
    consensus = bench_mod.compare_engines(reports)

    if args.format:
        sys.stdout.write(bench_mod.emit_report(reports, consensus, fmt=args.format,
                                               include_timing=False).decode())
    else:
        for r in reports:
            rank = "-" if r.rank is None else f"{r.rank}/{r.n_z}"
            print(f"{r.model:<22} {r.engine:<9} {r.status:<8} rank {rank}")
        print()
        for c in consensus:
            line = f"{c.model:<22} {c.agreement}"
            if c.disagreements:
                line += "  (" + ", ".join(d["symbol"] for d in c.disagreements) + ")"
            print(line)
        total = sum(r.wall_time_ms for r in reports)
        print(f"total analysis time: {total:.0f} ms", file=sys.stderr)

    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(bench_mod.emit_report(reports, consensus))

    if args.require_consensus and any(c.agreement == "disagree" for c in consensus):
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_check(args) -> int:
    md = _load(args.model)
    kind = "rational" if md.is_rational() else "non-rational"
    print(f"OK {md.name}: states={md.n} params={md.p} known_inputs={md.q} "
          f"unknown_inputs={md.q_w} outputs={md.m} ({kind})")
    return EXIT_OK


def cmd_explain(args) -> int:
    md = _load(args.model)
    A = augment(md)
    print(f"model: {md.name}")
    print(f"n_z = {A.n_z} (states {md.n} + params {md.p} + input chains "
          f"{A.n_z - md.n - md.p})")
    print("augmented state z and dynamics F:")
    width = max(len(s.name) for s in A.z)
    for s, f in zip(A.z, A.F):
        print(f"  d/dt {s.name:<{width}} = {sx.to_string(f)}   [{s.kind.value}]")
    print("outputs:")
    for name, h in zip(A.output_names, A.outputs):
        print(f"  {name} = {sx.to_string(h)}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "bench": cmd_bench,
        "check": cmd_check,
        "explain": cmd_explain,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
