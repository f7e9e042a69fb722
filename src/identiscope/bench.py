"""Benchmark corpus and differential-testing harness.

The packaged corpus holds 25 benchmark variants of 21 published
systems-biology models as ``corpus/<name>.idm``, each with a
``fixtures/<name>.expected.json`` record carrying its expected dimensions,
rationality and (when settled) frozen consensus verdicts.
Models whose published ground truth is disputed are tagged ``contested``;
the harness reports their verdicts but never asserts them.

``run_model`` runs a model's engines, each within its own wall-clock budget,
and records a run that fails (``failure_record``: na, timeout or error, with
no partial verdicts) instead of raising; ``run_corpus`` runs it on each model
file.  A file that does not load, or whose model name an earlier file
declares (consensus groups reports by model name), gives error records named
after the file (``b.idm``), which no model name can equal.
``compare_engines`` then marks per-model consensus, which is the
correctness criterion for engines that share no code path.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import replace
from importlib import resources
from pathlib import Path

from ._linalg import Options, check_settings
from .errors import (DuplicateDeclaration, EngineTimeout, IdentiscopeError, ModelError,
                     NonRationalExpr, RunContext, deadline_after)
from .ffprob import analyze_ffprob
from .lie_orc import analyze_symbolic
from .model import ModelDef, load_model
from .report import (AGREE, DISAGREE, ENGINES, FFPROB, SCHEMA_VERSION, STATUS_ERROR, STATUS_NA,
                     STATUS_OK, STATUS_TIMEOUT, SYMBOLIC, UNCONFIRMED, AnalysisReport,
                     ConsensusResult)

DEFAULT_TIMEOUT_S = 120.0
_ENGINE_RUNS = {SYMBOLIC: analyze_symbolic, FFPROB: analyze_ffprob}


def corpus_dir() -> Path:
    return Path(resources.files("identiscope") / "corpus")


def fixtures_dir() -> Path:
    return Path(resources.files("identiscope") / "fixtures")


def analyze(md: ModelDef, engine: str, opts: Options | None = None) -> AnalysisReport:
    """Run one engine on a model after ``check_settings``; raises whatever
    the engine raises, and ValueError for an unknown engine."""
    opts = opts or Options()
    check_settings(opts.primes, opts.trials, opts.max_level)
    run = _ENGINE_RUNS.get(engine)
    if run is None:
        raise ValueError(f"unknown engine {engine!r}")
    return run(md, opts)


def failure_record(model: str, engine: str, seed: int, exc: Exception,
                   wall_time_ms: float = 0.0) -> AnalysisReport:
    """The record of a run of ``model`` that raised after ``wall_time_ms``:
    na for a non-rational model, timeout for an exceeded budget, error for
    anything else."""
    if isinstance(exc, NonRationalExpr):
        status, error = STATUS_NA, "NonRationalExpr"
    elif isinstance(exc, EngineTimeout):
        status, error = STATUS_TIMEOUT, "EngineTimeout"
    else:
        status, error = STATUS_ERROR, f"{type(exc).__name__}: {exc}"
    return AnalysisReport(model=model, engine=engine, status=status,
                          seed=seed, error=error, wall_time_ms=wall_time_ms)


def run_model(md: ModelDef, engines: tuple[str, ...], opts: Options,
              timeout_s: float | None) -> list[tuple[AnalysisReport, IdentiscopeError | None]]:
    """(report, the IdentiscopeError it raised or None) per engine, run on ``md`` in order, each
    within ``timeout_s`` of its own start (this replaces ``opts.deadline``); a run that raised
    gives its ``failure_record``, timed by the run's context.  A bad ``timeout_s`` raises
    ValueError before any engine runs."""
    check_settings(None, timeout_s=timeout_s)
    runs = []
    for engine in engines:
        ctx = RunContext(deadline_after(timeout_s))
        try:
            runs.append((analyze(md, engine, replace(opts, deadline=ctx.deadline)), None))
        except IdentiscopeError as exc:
            runs.append((failure_record(md.name, engine, opts.seed, exc, ctx.elapsed_ms()), exc))
    return runs


def run_corpus(directory=None, engines: tuple[str, ...] = ENGINES, opts: Options | None = None,
               timeout_s: float | None = DEFAULT_TIMEOUT_S) -> list[AnalysisReport]:
    """Analyze every corpus model with every requested engine, each
    (model, engine) pair within ``timeout_s`` of its start.

    Each model file is parsed once for all engines, in sorted order.
    Results are ordered by (model, engine), and a pair or a file that fails
    gives records as the module docstring sets out.  Settings that
    ``check_settings`` rejects raise ValueError, and a ``directory`` that is
    not one raises NotADirectoryError, before any pair runs.
    """
    opts = opts or Options()
    check_settings(opts.primes, opts.trials, opts.max_level, timeout_s)
    base = Path(directory) if directory is not None else corpus_dir()
    if not base.is_dir():
        raise NotADirectoryError(f"corpus {str(base)!r} is not a directory")
    reports = []
    declared: dict[str, str] = {}  # model name -> the file that declares it
    for path in sorted(base.glob("*.idm")):
        try:
            md = load_model(path)
            first = declared.setdefault(md.name, path.name)
            if first != path.name:
                raise DuplicateDeclaration(f"model name {md.name!r} is also declared by {first}")
        except (ModelError, OSError, UnicodeDecodeError) as exc:
            reports += [failure_record(path.name, engine, opts.seed, exc) for engine in engines]
            continue
        reports += [r for r, _ in run_model(md, engines, opts, timeout_s)]
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
