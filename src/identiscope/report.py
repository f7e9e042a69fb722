"""Analysis result container shared by both engines and the bench harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ._linalg import Echelons
from .model import AugmentedSystem

SCHEMA_VERSION = 1

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


@dataclass
class AnalysisReport:
    """One engine's answer for one model.

    ``verdicts`` maps every augmented-state entry (by name, in z order) to
    its verdict string; it is None unless status is "ok".  ``wall_time_ms``
    is the only field that varies between identical runs; serialization can
    exclude it so reports compare byte-for-byte.
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
    wall_time_ms: float = 0.0
    warnings: list[str] = field(default_factory=list)
    error: str | None = None

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "model": self.model,
            "engine": self.engine,
            "status": self.status,
            "n_z": self.n_z,
            "rank": self.rank,
            "ranks_by_level": self.ranks_by_level,
            "per_prime_ranks": self.per_prime_ranks,
            "verdicts": self.verdicts,
            "stop_reason": self.stop_reason,
            "seed": self.seed,
            "primes": self.primes,
            "trials": self.trials,
            "warnings": list(self.warnings),
            "error": self.error,
        }
        if include_timing:
            d["wall_time_ms"] = self.wall_time_ms
        return d


def verdict_for(kind_value: str, identifiable: bool) -> str:
    """Map (symbol kind, rank-drop result) to the reported verdict word."""
    if kind_value == "state":
        return OBSERVABLE if identifiable else UNOBSERVABLE
    if kind_value == "parameter":
        return SLI if identifiable else SU
    return RECONSTRUCTIBLE if identifiable else UNRECONSTRUCTIBLE


def ok_report(engine: str, A: AugmentedSystem, forms: Echelons, stop: str, t0: float,
              warnings: list[str], **fields) -> AnalysisReport:
    """The ok report of an engine's analysis of A, from its final echelon
    forms: the rank is the largest form rank, and entry j is identifiable
    when column j is independent of the others in every form at that rank.
    ``fields`` are the engine's own (seed, primes, trials, and its ranks by
    level or per prime).  The model's unknown-input and ic warnings are
    appended to the engine's ``warnings``.  ``t0`` is the analysis'
    ``perf_counter`` start."""
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
        verdicts={s.name: verdict_for(s.kind.value, ok) for s, ok in zip(A.z, identifiable)},
        stop_reason=stop,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        warnings=warnings,
        **fields,
    )
