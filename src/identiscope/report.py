"""Analysis result container shared by both engines and the bench harness."""

from __future__ import annotations

from dataclasses import dataclass, field

SCHEMA_VERSION = 1

# Verdict vocabulary, chosen by the kind of the z entry.
OBSERVABLE = "observable"
UNOBSERVABLE = "unobservable"
SLI = "SLI"
SU = "SU"
RECONSTRUCTIBLE = "reconstructible"
UNRECONSTRUCTIBLE = "unreconstructible"
VERDICTS = (OBSERVABLE, UNOBSERVABLE, SLI, SU, RECONSTRUCTIBLE, UNRECONSTRUCTIBLE)

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
