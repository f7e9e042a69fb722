"""Command-line front end.

Commands:
  analyze  — run one or both engines on a single model and print verdicts
  bench    — run the benchmark corpus
  check    — parse and validate a model file
  explain  — show the augmented system (z vector, dynamics, outputs)

--timeout-s bounds each (model, engine) run, in analyze as in bench.  Exit
codes: 0 success, 1 analysis error (every engine's record on stdout, then
machine-readable JSON on stderr), 2 usage or model-parse error, 3 engine
disagreement under --require-consensus.  Stdout is byte-deterministic for a
fixed seed; wall times go to stderr.  IDENTISCOPE_SEED sets the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

from . import bench as bench_mod
from . import symexpr as sx
from ._linalg import DEFAULT_PRIMES, MAX_PRIME, Options
from .errors import ModelError
from .ffprob import DEFAULT_TRIALS_PER_PRIME
from .lie_orc import DEFAULT_TRIALS
from .model import augment, load_model
from .report import (AGREE, DISAGREE, ENGINES, FFPROB, STATUS_NA, STATUS_OK, SYMBOLIC,
                     AnalysisReport)

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2
EXIT_DISAGREE = 3


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _load(path: str):
    """The parsed model; an unreadable file, one that is not UTF-8 or a
    model error exits 2."""
    try:
        return load_model(path)
    except (ModelError, OSError, UnicodeDecodeError) as exc:
        _usage_error(str(exc))


def _run_settings(args) -> tuple[Options, tuple[str, ...]]:
    """(settings, engines) for analyze and bench, with no deadline; a
    setting that ``bench.check_settings`` rejects, or a bad
    IDENTISCOPE_SEED, exits 2."""
    primes = tuple(args.prime) if args.prime else None
    max_level = getattr(args, "max_level", None)
    try:
        bench_mod.check_settings(primes, args.trials, max_level, args.timeout_s)
    except ValueError as exc:
        _usage_error(str(exc))
    env = os.environ.get("IDENTISCOPE_SEED", "0")
    try:
        seed = args.seed if args.seed is not None else int(env)
    except ValueError:
        _usage_error(f"IDENTISCOPE_SEED={env!r}: need an integer")
    engines = ENGINES if args.engine == "both" else (args.engine,)
    return Options(primes=primes, trials=args.trials, seed=seed, max_level=max_level), engines


def _machine_error(exc: Exception) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
    return EXIT_ANALYSIS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="identiscope",
        description="Structural local identifiability and observability analysis "
                    "for ODE models.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--engine", choices=[*ENGINES, "both"],
                       default="both", help="analysis engine")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (default 0, or IDENTISCOPE_SEED)")
        p.add_argument("--prime", type=int, action="append", default=None,
                       metavar="P", help=f"prime field modulus in (2^20, {MAX_PRIME}], "
                       f"repeatable (default {list(DEFAULT_PRIMES)})")
        p.add_argument("--trials", type=int, default=None,
                       help="random trials per prime, at least 1 (default: "
                            f"{SYMBOLIC} {DEFAULT_TRIALS}, {FFPROB} {DEFAULT_TRIALS_PER_PRIME})")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="also write the full JSON report to PATH")
        p.add_argument("--require-consensus", action="store_true",
                       help="exit 3 if the engines disagree")

    pa = sub.add_parser("analyze", help="analyze a single model file",
                        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    pa.add_argument("model", help="path to a .idm model file")
    common(pa)
    pa.add_argument("--max-level", type=int, default=None,
                    help="both engines' depth cap, at least 0: the last Lie-derivative "
                         "level and series order (default n_z-1)")
    pa.add_argument("--timeout-s", type=float, default=None,
                    help="wall-clock bound per engine in seconds, > 0 "
                         "(default: none)")

    pb = sub.add_parser("bench", help="run the benchmark corpus",
                        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    pb.add_argument("corpus", nargs="?", default=None,
                    help="corpus directory (default: packaged corpus)")
    common(pb)
    pb.add_argument("--timeout-s", type=float, default=bench_mod.DEFAULT_TIMEOUT_S,
                    help="wall-clock bound per (model, engine) pair in seconds, > 0")
    pb.add_argument("--format", choices=["json", "csv"], default=None,
                    help="emit the machine-readable document to stdout, without "
                         "wall times (the CSV's time_ms reads 0.0) so that its bytes "
                         "repeat for a seed; --json PATH keeps them")

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
    opts, engines = _run_settings(args)
    md = _load(args.model)
    runs = bench_mod.run_model(md, engines, opts, args.timeout_s)
    reports = [r for r, _ in runs]
    # Under "both" ffprob's na on a non-rational model is an answer, not a failure.
    failures = [exc for r, exc in runs if exc and not (len(runs) > 1 and r.status == STATUS_NA)]

    print(f"model: {md.name}")
    for r in reports:
        print()
        _print_report(r)

    consensus = bench_mod.compare_engines(reports)
    (verdict,) = consensus  # every report is of md
    if len(reports) > 1:
        print()
        if verdict.agreement == AGREE:
            print("consensus: engines agree")
        elif verdict.agreement == DISAGREE:
            print("consensus: engines DISAGREE on "
                  + ", ".join(d["symbol"] for d in verdict.disagreements))
        else:
            print("consensus: unconfirmed (one usable engine result)")
    code = _finish(args, reports, consensus)  # --json is written also when a run failed
    return _machine_error(failures[0]) if failures else code


def cmd_bench(args) -> int:
    opts, engines = _run_settings(args)
    try:
        reports = bench_mod.run_corpus(args.corpus, engines, opts, args.timeout_s)
    except NotADirectoryError as exc:
        _usage_error(str(exc))
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
    return _finish(args, reports, consensus)


def _finish(args, reports, consensus) -> int:
    """The tail of analyze and bench: write the full document to --json,
    and exit 3 under --require-consensus when the engines disagree.  A
    --json path that cannot be written exits 2."""
    if args.json:
        try:
            with open(args.json, "wb") as fh:
                fh.write(bench_mod.emit_report(reports, consensus))
        except OSError as exc:
            _usage_error(str(exc))
    if args.require_consensus and any(c.agreement == DISAGREE for c in consensus):
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
    for name, h in md.outputs:
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
