"""Benchmark corpus and differential-testing harness.

The packaged corpus holds 25 benchmark variants of 21 published
systems-biology models as ``corpus/<name>.idm``, each with a
``fixtures/<name>.expected.json`` record carrying its expected dimensions,
rationality and (when settled) frozen consensus verdicts.
Models whose published ground truth is disputed are tagged ``contested``;
the harness reports their verdicts but never asserts them.

``run_corpus`` analyzes every applicable (model, engine) pair with a
per-model wall-clock budget: the finite-field engine is recorded as "na"
on non-rational models, a timeout produces a timeout record with no
partial verdicts, and any other failure becomes an error record, as does
a model file that does not load.
``compare_engines`` then marks per-model consensus, which is the
correctness criterion for engines that share no code path.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ._linalg import check_settings
from .errors import EngineTimeout, IdentiscopeError, ModelError, NonRationalExpr
from .ffprob import DEFAULT_PRIMES, FfprobOptions, analyze_ffprob
from .lie_orc import SymbolicOptions, analyze_symbolic
from .model import ModelDef, load_model
from .report import (AGREE, DISAGREE, ENGINES, SCHEMA_VERSION, STATUS_ERROR, STATUS_NA,
                     STATUS_OK, STATUS_TIMEOUT, UNCONFIRMED, AnalysisReport, ConsensusResult)

DEFAULT_TIMEOUT_S = 120.0


@dataclass
class BenchOptions:
    engines: tuple[str, ...] = ENGINES
    timeout_s: float | None = DEFAULT_TIMEOUT_S
    seed: int = 0
    trials: int | None = None  # None: per-engine default
    primes: tuple[int, ...] = DEFAULT_PRIMES


def corpus_dir() -> Path:
    return Path(resources.files("identiscope") / "corpus")


def fixtures_dir() -> Path:
    return Path(resources.files("identiscope") / "fixtures")


def analyze(md: ModelDef, engine: str, *, seed: int, primes: tuple[int, ...],
            trials: int | None = None, deadline: float | None = None,
            max_level: int | None = None) -> AnalysisReport:
    """Run one engine on a model after ``check_settings``; raises whatever
    the engine raises.  The symbolic engine takes ``primes[0]``; ``max_level``
    caps both at one block, level k of the symbolic matrix being block k of
    ffprob's.  ``trials=None`` keeps each engine's default."""
    check_settings(primes, trials, max_level)
    if engine == "symbolic":
        opts = SymbolicOptions(seed=seed, prime=primes[0], max_level=max_level,
                               deadline=deadline)
        run = analyze_symbolic
    elif engine == "ffprob":
        opts = FfprobOptions(seed=seed, primes=tuple(primes), max_level=max_level,
                             deadline=deadline)
        run = analyze_ffprob
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if trials is not None:
        opts.trials = trials
    return run(md, opts)


def failure_record(model: str, engine: str, seed: int, exc: Exception) -> AnalysisReport:
    """The record of a run of ``model`` that raised: na for a non-rational
    model, timeout for an exceeded budget, error for anything else."""
    if isinstance(exc, NonRationalExpr):
        status, error = STATUS_NA, "NonRationalExpr"
    elif isinstance(exc, EngineTimeout):
        status, error = STATUS_TIMEOUT, "EngineTimeout"
    else:
        status, error = STATUS_ERROR, f"{type(exc).__name__}: {exc}"
    return AnalysisReport(model=model, engine=engine, status=status,
                          seed=seed, error=error)


def _run_one(md: ModelDef, engine: str, opts: BenchOptions) -> AnalysisReport:
    """Analyze one (model, engine) pair; analysis failures become records."""
    deadline = None if opts.timeout_s is None else time.monotonic() + opts.timeout_s
    try:
        return analyze(md, engine, seed=opts.seed, primes=opts.primes, trials=opts.trials,
                       deadline=deadline)
    except IdentiscopeError as exc:
        return failure_record(md.name, engine, opts.seed, exc)


def run_corpus(directory=None, opts: BenchOptions | None = None) -> list[AnalysisReport]:
    """Analyze every corpus model with every requested engine.

    Each model file is parsed once for all engines.  Results are ordered by
    (model, engine); failures become error/timeout/na records rather than
    exceptions, and a file that does not load gives one error record per
    engine, named after the file's stem.  Settings that ``check_settings``
    rejects raise ValueError before any pair runs.
    """
    opts = opts or BenchOptions()
    check_settings(opts.primes, opts.trials, timeout_s=opts.timeout_s)
    base = Path(directory) if directory is not None else corpus_dir()
    reports = []
    for path in sorted(base.glob("*.idm")):
        try:
            md = load_model(path)
        except (ModelError, OSError, UnicodeDecodeError) as exc:
            reports += [failure_record(path.stem, engine, opts.seed, exc)
                        for engine in opts.engines]
        else:
            reports += [_run_one(md, engine, opts) for engine in opts.engines]
    reports.sort(key=lambda r: (r.model, r.engine))
    return reports


def compare_engines(reports: list[AnalysisReport]) -> list[ConsensusResult]:
    """Per-model verdict agreement across engines.

    Models with fewer than two successful engine runs are marked
    UNCONFIRMED; disagreements list every symbol on which verdicts differ.
    """
    ok: dict[str, list[AnalysisReport]] = {}
    for r in reports:
        ok.setdefault(r.model, [])
        if r.status == STATUS_OK and r.verdicts is not None:
            ok[r.model].append(r)
    out = []
    for model in sorted(ok):
        if len(ok[model]) < 2:
            out.append(ConsensusResult(model, UNCONFIRMED))
            continue
        base, *rest = ok[model]
        diffs = []
        for other in rest:
            for name in sorted(set(base.verdicts) | set(other.verdicts)):
                a, b = base.verdicts.get(name), other.verdicts.get(name)
                if a != b:
                    diffs.append({"symbol": name, base.engine: a, other.engine: b})
        out.append(ConsensusResult(model, DISAGREE if diffs else AGREE, diffs))
    return out


def emit_report(reports: list[AnalysisReport],
                consensus: list[ConsensusResult] | None = None,
                fmt: str = "json", include_timing: bool = True) -> bytes:
    """Stable serialization of a bench run.

    JSON carries the full schema-versioned document; CSV has one row per
    (model, engine) with columns model,engine,status,rank,n_z,time_ms.
    """
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "reports": [r.to_dict(include_timing=include_timing) for r in reports],
            "consensus": [c.to_dict() for c in (consensus or [])],
        }
        return (json.dumps(doc, indent=2, sort_keys=False) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["model", "engine", "status", "rank", "n_z", "time_ms"])
        for r in reports:
            w.writerow([
                r.model, r.engine, r.status,
                "" if r.rank is None else r.rank,
                "" if r.n_z is None else r.n_z,
                f"{r.wall_time_ms:.1f}" if include_timing else "0.0",
            ])
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")
