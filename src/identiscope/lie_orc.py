"""Symbolic observability/identifiability engine.

Builds the observability-identifiability matrix incrementally from extended
Lie derivatives of the outputs along the augmented vector field, estimates
its generic rank by exact evaluation at random points over a prime field,
and classifies each augmented-state entry with the column-deletion test.

Unlike purely symbolic rank computation, the rank step specializes every
symbol to an independent uniform residue in [1, p-1]; a random point can
only underestimate the generic rank (never overestimate it on rational
matrices), so the maximum over a few trials is reported.  Transcendental
subexpressions are handled by replacing each maximal transcendental subterm
with a fresh independent symbol before specialization, which keeps
non-rational models analyzable at the cost of possibly overestimating rank
when those subterms are algebraically dependent; reports carry a warning
whenever this table is non-empty.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import _linalg, _rng
from . import symexpr as sx
from .errors import EngineTimeout, RetriesExhausted, DivisionByZeroModP
from .model import AugmentedSystem, ModelDef, augment, GENERIC
from .report import AnalysisReport, verdict_for
from .symexpr import Expr, Symbol, SymbolKind

DEFAULT_PRIME = 2147483647
DEFAULT_TRIALS = 3
DEFAULT_RETRIES = 25


@dataclass
class SymbolicOptions:
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    prime: int = DEFAULT_PRIME
    max_level: int | None = None  # default n_z - 1
    retries: int = DEFAULT_RETRIES
    deadline: float | None = None  # absolute time.monotonic() bound


@dataclass
class RankEstimate:
    rank: int
    trials: int
    prime: int
    mode: str = "mod-p"


class LieCache:
    """Per-analysis cache of Lie derivatives and their gradients.

    Level k+1 of each output is always derived from the cached level k, and
    gradient rows are shared between matrix construction and the next Lie
    step.  The optional deadline is checked between per-output derivations
    so oversized models hit their wall-clock bound promptly.
    """

    def __init__(self, A: AugmentedSystem, deadline: float | None = None):
        self.A = A
        self.deadline = deadline
        self.lies: list[list[Expr]] = [list(A.outputs)]
        self.grads: list[list[list[Expr]]] = []

    def ensure_level(self, k: int):
        while len(self.lies) <= k:
            nxt = []
            for phi in self.lies[-1]:
                _check_deadline(self.deadline)
                nxt.append(extended_lie_derivative(phi, self.A))
            self.lies.append(nxt)

    def gradient_rows(self, k: int) -> list[list[Expr]]:
        self.ensure_level(k)
        while len(self.grads) <= k:
            j = len(self.grads)
            rows = []
            for phi in self.lies[j]:
                _check_deadline(self.deadline)
                rows.append([sx.differentiate(phi, zi) for zi in self.A.z])
            self.grads.append(rows)
        return self.grads[k]


def extended_lie_derivative(phi: Expr, A: AugmentedSystem) -> Expr:
    """Derivative of phi along the augmented vector field.

    (dphi/dz) . F  +  sum_j dphi/du^(j) * u^(j+1)  +  dphi/dt,
    with u^(j+1) identically zero for constant-mode known inputs.
    """
    terms = []
    for s in sx.free_symbols(phi):
        i = A.index.get(s)
        if i is not None:
            Fi = A.F[i]
            if Fi is not sx.ZERO:
                terms.append(sx.mul(sx.differentiate(phi, s), Fi))
        elif s.kind is SymbolKind.KNOWN_INPUT:
            spec = A.model.input_spec(s.base)
            if spec.mode == GENERIC:
                terms.append(sx.mul(sx.differentiate(phi, s),
                                    sx.sym(s.derivative(1))))
        elif s.kind is SymbolKind.TIME:
            terms.append(sx.differentiate(phi, s))
    return sx.add(*terms)


@dataclass
class ObservabilityMatrix:
    """Gradient rows of Lie derivative levels 0..k, columns ordered as z."""
    level: int
    rows: list[list[Expr]]
    symbols: tuple[Symbol, ...]
    rank_estimate: RankEstimate | None = None
    _trial_cache: dict = field(default_factory=dict, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.symbols))


def build_matrix(A: AugmentedSystem, k: int, cache: LieCache | None = None) -> ObservabilityMatrix:
    """Matrix with rows d(L^j h_i)/dz for j=0..k (j outer, i inner)."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    if cache is None:
        cache = LieCache(A)
    rows: list[list[Expr]] = []
    for j in range(k + 1):
        rows.extend(cache.gradient_rows(j))
    return ObservabilityMatrix(level=k, rows=rows, symbols=A.z)


def _numeric_matrix(M: ObservabilityMatrix, trial: int, seed: int, p: int,
                    retries: int) -> tuple[list[list[int]], bool]:
    """Evaluate all entries at a random point; resample on vanishing
    denominators.  Returns (numeric rows, transcendental-table-used)."""
    cached = M._trial_cache.get((trial, seed, p))
    if cached is not None:
        return cached
    last = None
    for attempt in range(retries):
        point_cache: dict[Symbol, int] = {}
        table: dict[bytes, int] = {}

        def point_value(s: Symbol, _a=attempt):
            v = point_cache.get(s)
            if v is None:
                v = _rng.residue(("sym", seed, trial, _a, s.name), p)
                point_cache[s] = v
            return v

        class _Point(dict):
            def __missing__(self, s):
                return point_value(s)

        def transc(node: Expr, _a=attempt):
            key = node.shash
            v = table.get(key)
            if v is None:
                v = _rng.residue(("transc", seed, trial, _a, key.hex()), p)
                table[key] = v
            return v

        point = _Point()
        memo: dict[Expr, int] = {}
        try:
            numeric = [[sx.eval_mod_p(e, point, p, transcendental=transc, _memo=memo)
                        for e in row] for row in M.rows]
        except DivisionByZeroModP as exc:
            last = exc
            continue
        result = (numeric, bool(table))
        M._trial_cache[(trial, seed, p)] = result
        return result
    raise RetriesExhausted(
        f"all {retries} evaluation points hit a vanishing denominator mod {p} "
        f"(model degenerate at this prime, or prime too small): {last}")


def rank_by_random_eval(M: ObservabilityMatrix, trials: int, seed: int, p: int,
                        retries: int = DEFAULT_RETRIES) -> int:
    """Max over trials of the exact F_p rank at random specializations."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    best = 0
    for trial in range(trials):
        numeric, _ = _numeric_matrix(M, trial, seed, p, retries)
        best = max(best, _linalg.rank_mod_p(numeric, p))
    M.rank_estimate = RankEstimate(rank=best, trials=trials, prime=p)
    return best


def classify_columns(M: ObservabilityMatrix, r: int, trials: int, seed: int, p: int,
                     retries: int = DEFAULT_RETRIES,
                     deadline: float | None = None) -> dict[Symbol, str]:
    """Column-independence test for each z entry.

    Entry j is observable/identifiable when its column is independent of the
    others (deleting it drops the rank to r-1) in every trial that reaches
    rank r; otherwise it lies in the span of the others
    (unobservable/unidentifiable).
    """
    identifiable = [True] * len(M.symbols)
    for trial in range(trials):
        _check_deadline(deadline)
        numeric, _ = _numeric_matrix(M, trial, seed, p, retries)
        rank, independent = _linalg.independent_columns(numeric, p)
        if rank == r:
            identifiable = [a and b for a, b in zip(identifiable, independent)]
    return {s: verdict_for(s.kind.value, identifiable[j])
            for j, s in enumerate(M.symbols)}


def _check_deadline(deadline: float | None):
    if deadline is not None and time.monotonic() > deadline:
        raise EngineTimeout("analysis exceeded its wall-clock bound")


def analyze_symbolic(md: ModelDef, opts: SymbolicOptions | None = None) -> AnalysisReport:
    """Full observability/identifiability analysis via the rank condition.

    Levels are added until the matrix reaches full rank n_z, the rank stops
    increasing (saturation), or max_level (default n_z - 1) is hit; the
    final matrix is then classified column by column.
    """
    opts = opts or SymbolicOptions()
    t0 = time.perf_counter()
    A = augment(md)
    n_z = A.n_z
    max_level = opts.max_level if opts.max_level is not None else max(n_z - 1, 0)
    cache = LieCache(A, deadline=opts.deadline)

    ranks: list[int] = []
    M = None
    stop = "max_level"
    for k in range(max_level + 1):
        _check_deadline(opts.deadline)
        M = build_matrix(A, k, cache)
        r = rank_by_random_eval(M, opts.trials, opts.seed, opts.prime, opts.retries)
        ranks.append(r)
        if r == n_z:
            stop = "full_rank"
            break
        if k > 0 and ranks[-2] == r:
            stop = "saturation"
            break

    rank = ranks[-1]
    verdict_map = classify_columns(M, rank, opts.trials, opts.seed, opts.prime,
                                   opts.retries, opts.deadline)

    warnings = []
    if any(M._trial_cache[key][1] for key in M._trial_cache):
        warnings.append(
            "transcendental subterms were replaced by independent symbols; "
            "rank may be overestimated if they are algebraically dependent")
    if any(spec.mode == GENERIC for spec in md.known_inputs):
        warnings.append(
            f"known-input derivatives materialized up to order {M.level}")
    if md.unknown_inputs:
        orders = ", ".join(f"{s.symbol.base}^({s.order + 1})=0" for s in md.unknown_inputs)
        warnings.append(
            f"unknown-input derivative chains truncated ({orders}), "
            "including any direct output feedthrough")

    return AnalysisReport(
        model=md.name,
        engine="symbolic",
        n_z=n_z,
        rank=rank,
        ranks_by_level=ranks,
        verdicts={s.name: verdict_map[s] for s in A.z},
        stop_reason=stop,
        seed=opts.seed,
        primes=[opts.prime],
        trials=opts.trials,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        warnings=warnings,
    )
