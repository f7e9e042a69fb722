"""Benchmark corpus and differential-testing harness.

The packaged corpus holds 25 benchmark variants of 21 published
systems-biology models as ``corpus/<name>.idm``, each with a
``fixtures/<name>.expected.json`` record carrying its expected dimensions,
rationality, heaviness tag, and (when settled) frozen consensus verdicts.
Models whose published ground truth is disputed are tagged ``contested``;
the harness reports their verdicts but never asserts them.

``run_corpus`` analyzes every applicable (model, engine) pair with a
per-model wall-clock budget: the finite-field engine is recorded as "na"
on non-rational models, a timeout produces a timeout record with no
partial verdicts, and any other failure becomes an error record.
``compare_engines`` then marks per-model consensus, which is the
correctness criterion for engines that share no code path.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import symexpr as sx
from ._linalg import MAX_PRIME
from .errors import EngineTimeout, IdentiscopeError, NonRationalExpr
from .ffprob import DEFAULT_PRIMES, MIN_PRIME, FfprobOptions, analyze_ffprob
from .lie_orc import SymbolicOptions, analyze_symbolic
from .model import ModelDef, load_model
from .report import SCHEMA_VERSION, STATUS_ERROR, STATUS_NA, STATUS_OK, STATUS_TIMEOUT, AnalysisReport

ENGINES = ("symbolic", "ffprob")
DEFAULT_TIMEOUT_S = 120.0

_VERDICTS = ["observable", "unobservable", "SLI", "SU",
             "reconstructible", "unreconstructible"]

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "reports"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "reports": {"type": "array", "items": {"$ref": "#/$defs/report"}},
        "consensus": {"type": "array", "items": {"$ref": "#/$defs/consensus"}},
    },
    "$defs": {
        "report": {
            "type": "object",
            "required": ["schema_version", "model", "engine", "status"],
            "properties": {
                "schema_version": {"const": SCHEMA_VERSION},
                "model": {"type": "string"},
                "engine": {"enum": list(ENGINES)},
                "status": {"enum": [STATUS_OK, STATUS_ERROR, STATUS_TIMEOUT, STATUS_NA]},
                "n_z": {"type": ["integer", "null"]},
                "rank": {"type": ["integer", "null"]},
                "ranks_by_level": {"type": ["array", "null"], "items": {"type": "integer"}},
                "per_prime_ranks": {
                    "type": ["object", "null"],
                    "additionalProperties": {"type": "array", "items": {"type": "integer"}},
                },
                "verdicts": {
                    "type": ["object", "null"],
                    "additionalProperties": {"enum": _VERDICTS},
                },
                "stop_reason": {"type": ["string", "null"]},
                "seed": {"type": ["integer", "null"]},
                "primes": {"type": ["array", "null"], "items": {"type": "integer"}},
                "trials": {"type": ["integer", "null"]},
                "wall_time_ms": {"type": "number"},
                "warnings": {"type": "array", "items": {"type": "string"}},
                "error": {"type": ["string", "null"]},
            },
        },
        "consensus": {
            "type": "object",
            "required": ["model", "agreement"],
            "properties": {
                "model": {"type": "string"},
                "agreement": {"enum": ["agree", "disagree", "unconfirmed"]},
                "disagreements": {"type": "array"},
            },
        },
    },
}


@dataclass(frozen=True)
class CorpusEntry:
    """One benchmark model plus its fixture metadata."""
    name: str
    path: str
    display_name: str
    states: int
    params: int
    known_inputs: int
    unknown_inputs: int
    outputs: int
    rational: bool
    heavy: bool = False
    contested: bool = False
    provenance: str = "reconstructed"
    expected_verdicts: dict | None = None

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        return (self.states, self.params, self.known_inputs,
                self.unknown_inputs, self.outputs)


@dataclass
class ConsensusResult:
    """Per-model agreement between engine verdict maps."""
    model: str
    agreement: str  # agree | disagree | unconfirmed
    engine_verdicts: dict[str, dict | None] = field(default_factory=dict)
    disagreements: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "agreement": self.agreement,
            "disagreements": self.disagreements,
        }


@dataclass
class BenchOptions:
    engines: tuple[str, ...] = ENGINES
    timeout_s: float | None = DEFAULT_TIMEOUT_S
    seed: int = 0
    parallelism: int = 1
    include_heavy: bool = False
    trials: int | None = None  # None: per-engine default
    primes: tuple[int, ...] = DEFAULT_PRIMES


def corpus_dir() -> Path:
    return Path(resources.files("identiscope") / "corpus")


def fixtures_dir() -> Path:
    return Path(resources.files("identiscope") / "fixtures")


def load_corpus(directory=None) -> list[CorpusEntry]:
    """Corpus entries from a directory of .idm files, fixture-enriched.

    Fixtures are looked up next to the corpus directory (``../fixtures`` for
    the packaged layout, or ``fixtures/`` inside the given directory).
    """
    base = Path(directory) if directory is not None else corpus_dir()
    fixdirs = [base / "fixtures", base.parent / "fixtures"]
    if directory is None:
        fixdirs.insert(0, fixtures_dir())
    entries = []
    for path in sorted(base.glob("*.idm")):
        name = path.stem
        meta = {}
        for fd in fixdirs:
            fpath = fd / f"{name}.expected.json"
            if fpath.exists():
                meta = json.loads(fpath.read_text())
                break
        md = load_model(path)
        entries.append(CorpusEntry(
            name=name,
            path=str(path),
            display_name=meta.get("display_name", name),
            states=meta.get("states", md.n),
            params=meta.get("params", md.p),
            known_inputs=meta.get("known_inputs", md.q),
            unknown_inputs=meta.get("unknown_inputs", md.q_w),
            outputs=meta.get("outputs", md.m),
            rational=meta.get("rational", md.is_rational()),
            heavy=meta.get("heavy", False),
            contested=meta.get("contested", False),
            provenance=meta.get("provenance", "reconstructed"),
            expected_verdicts=meta.get("verdicts"),
        ))
    return entries


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def check_prime(p: int) -> None:
    """Raise ValueError naming p unless it is a prime in (2^20, MAX_PRIME],
    the fields both engines accept."""
    if not (MIN_PRIME < p <= MAX_PRIME and _is_prime(p)):
        raise ValueError(f"{p} is not a prime in (2^20, {MAX_PRIME}]")


def analyze(md: ModelDef, engine: str, *, seed: int, primes: tuple[int, ...],
            trials: int | None = None, deadline: float | None = None,
            max_level: int | None = None, order: int | None = None) -> AnalysisReport:
    """Run one engine on a model; raises whatever the engine raises.  The
    symbolic engine takes ``primes[0]`` and ``max_level``, ffprob ``order``;
    ``trials=None`` keeps each engine's default."""
    if not primes:
        raise ValueError("at least one prime is required")
    if engine == "symbolic":
        opts = SymbolicOptions(seed=seed, prime=primes[0], max_level=max_level,
                               deadline=deadline)
        run = analyze_symbolic
    elif engine == "ffprob":
        opts = FfprobOptions(seed=seed, primes=tuple(primes), order=order,
                             deadline=deadline)
        run = analyze_ffprob
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if trials is not None:
        opts.trials = trials
    return run(md, opts)


def failure_record(md: ModelDef, engine: str, seed: int,
                   exc: IdentiscopeError) -> AnalysisReport:
    """The record of a run that raised: na for a non-rational model, timeout
    for an exceeded budget, error for anything else."""
    if isinstance(exc, NonRationalExpr):
        status, error = STATUS_NA, "NonRationalExpr"
    elif isinstance(exc, EngineTimeout):
        status, error = STATUS_TIMEOUT, "EngineTimeout"
    else:
        status, error = STATUS_ERROR, f"{type(exc).__name__}: {exc}"
    return AnalysisReport(model=md.name, engine=engine, status=status,
                          seed=seed, error=error)


def _run_one(path: str, engine: str, seed: int, timeout_s: float | None,
             trials: int | None, primes: tuple[int, ...]) -> AnalysisReport:
    """Analyze one (model, engine) pair; analysis failures become records."""
    sx.clear_caches()
    md = load_model(path)
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    try:
        return analyze(md, engine, seed=seed, primes=primes, trials=trials,
                       deadline=deadline)
    except IdentiscopeError as exc:
        return failure_record(md, engine, seed, exc)


def run_corpus(directory=None, opts: BenchOptions | None = None) -> list[AnalysisReport]:
    """Analyze every corpus model with every requested engine.

    Results are ordered by (model, engine) regardless of completion order;
    failures become error/timeout/na records rather than exceptions.  A bad
    prime in ``opts.primes``, an empty ``opts.primes`` or ``opts.trials`` < 1
    raises ValueError before any pair runs.
    """
    opts = opts or BenchOptions()
    if not opts.primes:
        raise ValueError("at least one prime is required")
    for p in opts.primes:
        check_prime(p)
    if opts.trials is not None and opts.trials < 1:
        raise ValueError("trials must be >= 1")
    entries = [e for e in load_corpus(directory) if opts.include_heavy or not e.heavy]
    tasks = [(entry.path, engine, opts.seed, opts.timeout_s, opts.trials, opts.primes)
             for entry in entries for engine in opts.engines]

    if opts.parallelism > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=opts.parallelism) as pool:
            reports = list(pool.map(_run_one, *zip(*tasks)))
    else:
        reports = [_run_one(*t) for t in tasks]
    reports.sort(key=lambda r: (r.model, r.engine))
    return reports


def compare_engines(reports: list[AnalysisReport]) -> list[ConsensusResult]:
    """Per-model verdict agreement across engines.

    Models with fewer than two successful engine runs are marked
    "unconfirmed"; disagreements list every symbol on which verdicts differ.
    """
    by_model: dict[str, list[AnalysisReport]] = {}
    for r in reports:
        by_model.setdefault(r.model, []).append(r)

    out = []
    for model in sorted(by_model):
        group = by_model[model]
        ok = [r for r in group if r.status == STATUS_OK and r.verdicts is not None]
        res = ConsensusResult(model=model, agreement="unconfirmed")
        res.engine_verdicts = {r.engine: r.verdicts for r in group}
        if len(ok) >= 2:
            base, rest = ok[0], ok[1:]
            diffs = []
            for other in rest:
                names = sorted(set(base.verdicts) | set(other.verdicts))
                for sym_name in names:
                    a = base.verdicts.get(sym_name)
                    b = other.verdicts.get(sym_name)
                    if a != b:
                        diffs.append({"symbol": sym_name,
                                      base.engine: a, other.engine: b})
            res.agreement = "disagree" if diffs else "agree"
            res.disagreements = diffs
        out.append(res)
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
