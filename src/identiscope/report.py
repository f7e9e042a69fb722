"""The report document: one engine's answer for one model, and the
per-model consensus of the engines.

This module is its one definition.  The JSON keys of a report are
``schema_version`` followed by the ``AnalysisReport`` fields in declaration
order, the words a report may carry are the tuples below, and
``REPORT_SCHEMA`` describes the document from those tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._linalg import Echelons
from .errors import RunContext
from .model import AugmentedSystem
from .symexpr import SymbolKind

SCHEMA_VERSION = 1

SYMBOLIC = "symbolic"
FFPROB = "ffprob"
ENGINES = (SYMBOLIC, FFPROB)

# Verdict vocabulary, chosen by the kind of the z entry.
OBSERVABLE = "observable"
UNOBSERVABLE = "unobservable"
SLI = "SLI"
SU = "SU"
RECONSTRUCTIBLE = "reconstructible"
UNRECONSTRUCTIBLE = "unreconstructible"
VERDICTS = (OBSERVABLE, UNOBSERVABLE, SLI, SU, RECONSTRUCTIBLE, UNRECONSTRUCTIBLE)

# Why an engine stopped adding levels: the rank reached n_z, a level past the
# first did not raise it, or the cap (max_level) was reached.
FULL_RANK = "full_rank"
SATURATION = "saturation"
MAX_LEVEL = "max_level"
STOPS = (FULL_RANK, SATURATION, MAX_LEVEL)

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_NA = "na"
STATUSES = (STATUS_OK, STATUS_ERROR, STATUS_TIMEOUT, STATUS_NA)

# Per-model consensus: the engines' verdicts agree or differ, or fewer than
# two engines gave verdicts.
AGREE = "agree"
DISAGREE = "disagree"
UNCONFIRMED = "unconfirmed"
AGREEMENTS = (AGREE, DISAGREE, UNCONFIRMED)

# The fields that vary between identical runs; ``to_dict(include_timing=False)``
# drops them so that reports compare byte-for-byte.
TIMING_FIELDS = frozenset({"wall_time_ms"})


def _fields_dict(obj, skip=()) -> dict:
    """obj's dataclass fields by name, in declaration order, without those
    in ``skip``; the values are obj's own (no copy)."""
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__ if name not in skip}


@dataclass
class AnalysisReport:
    """One engine's answer for one model.

    The fields are declared in the report's JSON key order.  ``verdicts``
    maps every augmented-state entry (by name, in z order) to its verdict
    string; it is None unless status is "ok".
    """

    model: str
    engine: str
    status: str = STATUS_OK
    n_z: int | None = None
    rank: int | None = None
    ranks_by_level: list[int] | None = None
    per_prime_ranks: dict[str, list[int]] | None = None
    verdicts: dict[str, str] | None = None
    stop_reason: str | None = None
    seed: int | None = None
    primes: list[int] | None = None
    trials: int | None = None
    warnings: list[str] = field(default_factory=list)
    error: str | None = None
    wall_time_ms: float = 0.0

    def to_dict(self, include_timing: bool = True) -> dict:
        skip = () if include_timing else TIMING_FIELDS
        return {"schema_version": SCHEMA_VERSION, **_fields_dict(self, skip)}


@dataclass
class ConsensusResult:
    """Per-model agreement between engine verdict maps."""
    model: str
    agreement: str  # one of AGREEMENTS
    disagreements: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return _fields_dict(self)


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
                "status": {"enum": list(STATUSES)},
                "n_z": {"type": ["integer", "null"]},
                "rank": {"type": ["integer", "null"]},
                "ranks_by_level": {"type": ["array", "null"], "items": {"type": "integer"}},
                "per_prime_ranks": {
                    "type": ["object", "null"],
                    "additionalProperties": {"type": "array", "items": {"type": "integer"}},
                },
                "verdicts": {
                    "type": ["object", "null"],
                    "additionalProperties": {"enum": list(VERDICTS)},
                },
                "stop_reason": {"enum": [*STOPS, None]},
                "seed": {"type": ["integer", "null"]},
                "primes": {"type": ["array", "null"], "items": {"type": "integer"}},
                "trials": {"type": ["integer", "null"]},
                "warnings": {"type": "array", "items": {"type": "string"}},
                "error": {"type": ["string", "null"]},
                "wall_time_ms": {"type": "number"},
            },
        },
        "consensus": {
            "type": "object",
            "required": ["model", "agreement"],
            "properties": {
                "model": {"type": "string"},
                "agreement": {"enum": list(AGREEMENTS)},
                "disagreements": {"type": "array"},
            },
        },
    },
}


def verdict_for(kind: SymbolKind, identifiable: bool) -> str:
    """Map (symbol kind, rank-drop result) to the reported verdict word."""
    if kind is SymbolKind.STATE:
        return OBSERVABLE if identifiable else UNOBSERVABLE
    if kind is SymbolKind.PARAM:
        return SLI if identifiable else SU
    return RECONSTRUCTIBLE if identifiable else UNRECONSTRUCTIBLE


def ok_report(engine: str, A: AugmentedSystem, forms: Echelons, stop: str, ctx: RunContext,
              warnings: list[str], **fields) -> AnalysisReport:
    """The ok report of an engine's analysis of A, from its final echelon
    forms: the rank is the largest form rank, and entry j is identifiable
    when column j is independent of the others in every form at that rank.
    ``fields`` are the engine's own (seed, primes, trials, and its ranks by
    level or per prime).  The model's unknown-input and ic warnings are
    appended to the engine's ``warnings``, and the wall time is ``ctx``'s."""
    md, ranks = A.model, forms.ranks
    rank = max(ranks)
    identifiable = forms.independent_columns()[[r == rank for r in ranks]].all(0).tolist()
    if md.unknown_inputs:
        warnings.append(md.unknown_input_warning())
    if md.ics:
        warnings.append(md.ic_warning())
    return AnalysisReport(
        model=md.name,
        engine=engine,
        n_z=A.n_z,
        rank=rank,
        verdicts={s.name: verdict_for(s.kind, ok) for s, ok in zip(A.z, identifiable)},
        stop_reason=stop,
        wall_time_ms=ctx.elapsed_ms(),
        warnings=warnings,
        **fields,
    )
