"""Symbolic observability/identifiability engine.

Builds the extended Lie derivatives of the outputs along the augmented
vector field symbolically, level by level.  The rows of the
observability-identifiability matrix are their gradients with respect to
z, evaluated numerically: one reverse sweep mod p over the expression DAG
of each Lie derivative gives its whole row at a random point, and each
level evaluates only its new rows.  Each trial keeps one reduced echelon
form over the prime field and extends it with every level's new rows; the
matrix's generic rank is the largest trial rank, and each augmented-state
entry is classified from the echelon forms with the column-deletion test.
Symbolic gradient rows are built only on request
(``LieCache.gradient_rows``).

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
from dataclasses import dataclass

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


class _TrialPoint:
    """One random point of a trial, drawn lazily.

    Holds the residue of each symbol, the transcendental table, one memo of
    node values shared by every row, the numeric rows evaluated at this
    point so far with, per row, whether the table was in use after it, and
    the echelon form ``analyze_symbolic`` extends with those rows.
    """

    def __init__(self, seed: int, trial: int, attempt: int, p: int):
        self.seed, self.trial, self.attempt, self.p = seed, trial, attempt, p
        self.point = _Point(("sym", seed, trial, attempt), p)
        self.table: dict[bytes, int] = {}
        self.memo: dict[Expr, int] = {}
        self.rows: list[list[int]] = []
        self.used: list[bool] = []
        self.echelon: _linalg.Echelon | None = None

    def transc(self, node: Expr) -> int:
        key = node.shash
        v = self.table.get(key)
        if v is None:
            v = _rng.residue(("transc", self.seed, self.trial, self.attempt, key.hex()), self.p)
            self.table[key] = v
        return v

    def value(self, node: Expr) -> int:
        v = self.memo.get(node)
        if v is None:
            v = sx.eval_mod_p(node, self.point, self.p, transcendental=self.transc,
                              _memo=self.memo)
        return v


class _Point(dict):
    """Symbol -> residue, each drawn on first lookup from the point's tag."""

    def __init__(self, tag: tuple, p: int):
        super().__init__()
        self.tag, self.p = tag, p

    def __missing__(self, s: Symbol) -> int:
        v = self[s] = _rng.residue(self.tag + (s.name,), self.p)
        return v


class LieCache:
    """Per-analysis cache of Lie derivatives and their numeric gradient rows.

    Level k+1 of each output is always derived from the cached level k.
    Numeric rows are kept per (trial, seed, prime), so each level evaluates
    only its new rows.  The symbolic gradient rows, which the engine never
    needs, are built only when ``LieCache.gradient_rows`` is called.  The
    optional deadline is checked between per-output derivations and between
    rows so oversized models hit their wall-clock bound promptly.
    """

    def __init__(self, A: AugmentedSystem, deadline: float | None = None):
        self.A = A
        self.deadline = deadline
        self.lies: list[list[Expr]] = [list(A.outputs)]
        self.grads: list[list[list[Expr]]] = []
        self._tapes: dict[Expr, list] = {}
        self._points: dict[tuple[int, int, int], _TrialPoint] = {}

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

    def numeric_rows(self, n: int, trial: int, seed: int, p: int,
                     retries: int) -> tuple[list[list[int]], bool]:
        """The first n gradient rows at the trial's random point, and whether
        the transcendental table was in use.

        A vanishing denominator moves the trial to its next attempt, where
        every row is evaluated again.  The smallest attempt whose point
        evaluates rows 0..k can only grow with k, so this gives the rows of
        the smallest attempt that evaluates all n rows.
        """
        key = (trial, seed, p)
        pt = self._points.get(key)
        if pt is None:
            pt = self._points[key] = _TrialPoint(seed, trial, 0, p)
        m = len(self.A.outputs)
        while len(pt.rows) < n:
            level, i = divmod(len(pt.rows), m)
            self.ensure_level(level)
            _check_deadline(self.deadline)
            try:
                row = _grad_row(self.lies[level][i], self.A.index, pt, self._tapes)
            except DivisionByZeroModP as exc:
                if pt.attempt + 1 >= retries:
                    raise RetriesExhausted(
                        f"all {retries} evaluation points hit a vanishing denominator "
                        f"mod {p} (model degenerate at this prime, or prime too small): "
                        f"{exc}") from exc
                pt = self._points[key] = _TrialPoint(seed, trial, pt.attempt + 1, p)
                continue
            pt.rows.append(row)
            pt.used.append(bool(pt.table))
        return pt.rows[:n], n > 0 and pt.used[n - 1]


# Steps of a reverse sweep; see _tape.
_SYM, _ADD, _MUL1, _MULN, _POW, _LN, _FUNC = range(7)


def _tape(phi: Expr, index: dict[Symbol, int]) -> list[tuple]:
    """The z-dependent nodes of phi, parents before children, as sweep steps.

    Step i stands for the i-th node; it names the node's z-dependent
    children by their step numbers and carries the nodes whose values the
    sweep multiplies the adjoint by.
    """
    zset = frozenset(index)

    def dep(node):
        return not sx.free_symbols(node).isdisjoint(zset)

    if not dep(phi):
        return []
    post: list[Expr] = []
    seen = {phi}
    stack = [(phi, iter(_kids(phi)))]
    while stack:
        node, it = stack[-1]
        for c in it:
            if c not in seen and dep(c):
                seen.add(c)
                stack.append((c, iter(_kids(c))))
                break
        else:
            stack.pop()
            post.append(node)
    post.reverse()
    slot = {node: i for i, node in enumerate(post)}

    steps = []
    for node in post:
        if isinstance(node, sx.Sym):
            steps.append((_SYM, index[node.symbol]))
        elif isinstance(node, sx.Add):
            steps.append((_ADD, tuple(slot[t] for t in node.terms if t in slot)))
        elif isinstance(node, sx.Mul):
            fs = node.factors
            deps = [k for k, f in enumerate(fs) if f in slot]
            if len(deps) == 1:
                k = deps[0]
                steps.append((_MUL1, slot[fs[k]], fs[:k] + fs[k + 1:]))
            else:
                steps.append((_MULN, tuple(slot.get(f) for f in fs), fs))
        elif isinstance(node, sx.Pow):
            steps.append((_POW, slot[node.base], node.base, node.exponent))
        elif node.fname == "ln":
            steps.append((_LN, slot[node.arg], node.arg))
        else:
            # d exp(a) = exp(a) da, d sin(a) = cos(a) da, d cos(a) = -sin(a) da,
            # with the same nodes the symbolic derivative builds.
            if node.fname == "exp":
                factor, sign = node, 1
            elif node.fname == "sin":
                factor, sign = sx.cos(node.arg), 1
            else:
                factor, sign = sx.sin(node.arg), -1
            steps.append((_FUNC, slot[node.arg], factor, sign))
    return steps


def _kids(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, sx.Add):
        return node.terms
    if isinstance(node, sx.Mul):
        return node.factors
    if isinstance(node, sx.Pow):
        return (node.base,)
    if isinstance(node, sx.Func):
        return (node.arg,)
    return ()


def _grad_row(phi: Expr, index: dict[Symbol, int], pt: _TrialPoint,
              tapes: dict[Expr, list]) -> list[int]:
    """dphi/dz at pt's point, by one reverse sweep mod p over phi's DAG.

    Evaluates exactly the values the symbolic gradient contains: the
    siblings of each z-dependent factor, the bases of powers, the arguments
    of ln, and the table entries of exp(a), cos(a) and sin(a) for exp, sin
    and cos nodes respectively.  So a vanishing denominator
    raises DivisionByZeroModP, and the transcendental table fills, as
    evaluating ``differentiate(phi, z_j)`` would.  Products use prefix and
    suffix products, never an inverse, so a factor that is 0 mod p is fine.
    """
    tape = tapes.get(phi)
    if tape is None:
        tape = tapes[phi] = _tape(phi, index)
    p, value = pt.p, pt.value
    row = [0] * len(index)
    adj = [0] * len(tape)
    if tape:
        adj[0] = 1
    for i, step in enumerate(tape):
        a = adj[i] % p
        op = step[0]
        if op == _SYM:
            row[step[1]] = a
        elif op == _ADD:
            for c in step[1]:
                adj[c] += a
        elif op == _MUL1:
            for f in step[2]:
                a = a * value(f) % p
            adj[step[1]] += a
        elif op == _MULN:
            slots, fs = step[1], step[2]
            vals = [value(f) for f in fs]
            suffix = [1] * (len(vals) + 1)
            for k in range(len(vals) - 1, 0, -1):
                suffix[k] = suffix[k + 1] * vals[k] % p
            prefix = a
            for k, c in enumerate(slots):
                if c is not None:
                    adj[c] += prefix * suffix[k + 1]
                prefix = prefix * vals[k] % p
        elif op == _POW:
            _, c, base, e = step
            b = value(base)
            if b == 0 and e < 0:
                raise DivisionByZeroModP(f"base of {sx.to_string(base)}^{e} is 0 mod {p}")
            adj[c] += a * e * pow(b, e - 1, p)
        elif op == _LN:
            b = value(step[2])
            if b == 0:
                raise DivisionByZeroModP(f"argument of ln({sx.to_string(step[2])}) is 0 mod {p}")
            adj[step[1]] += a * pow(b, -1, p)
        else:
            _, c, factor, sign = step
            adj[c] += sign * a * value(factor)
    return row


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


def _check_deadline(deadline: float | None):
    if deadline is not None and time.monotonic() > deadline:
        raise EngineTimeout("analysis exceeded its wall-clock bound")


def analyze_symbolic(md: ModelDef, opts: SymbolicOptions | None = None) -> AnalysisReport:
    """Full observability/identifiability analysis via the rank condition.

    Levels are added until the matrix reaches full rank n_z, the rank stops
    increasing (saturation), or max_level (default n_z - 1) is hit.  Each
    level extends every trial's echelon form with the level's new rows; a
    trial that restarts at a new point starts a new echelon form from all
    its rows.  The level's rank is the largest trial rank.  Entry j is
    observable/identifiable when its column is independent of the others
    (deleting it drops the rank to r-1) in every trial that reaches the
    final rank r; otherwise it lies in the span of the others.
    """
    opts = opts or SymbolicOptions()
    if opts.trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    A = augment(md)
    n_z, m = A.n_z, len(A.outputs)
    max_level = opts.max_level if opts.max_level is not None else max(n_z - 1, 0)
    cache = LieCache(A, deadline=opts.deadline)

    ranks: list[int] = []
    stop = "max_level"
    for k in range(max_level + 1):
        _check_deadline(opts.deadline)
        n = (k + 1) * m
        points = []
        for trial in range(opts.trials):
            rows, _ = cache.numeric_rows(n, trial, opts.seed, opts.prime, opts.retries)
            pt = cache._points[(trial, opts.seed, opts.prime)]
            if pt.echelon is None:  # the trial's first point, or a restart's
                pt.echelon = _linalg.Echelon(n_z, opts.prime)
                pt.echelon.extend(rows)
            else:
                pt.echelon.extend(rows[n - m:])
            points.append(pt)
        r = max(pt.echelon.rank for pt in points)
        ranks.append(r)
        if r == n_z:
            stop = "full_rank"
            break
        if k > 0 and ranks[-2] == r:
            stop = "saturation"
            break

    rank = ranks[-1]
    identifiable = [True] * n_z
    for pt in points:
        if pt.echelon.rank == rank:
            flags = pt.echelon.independent_columns()
            identifiable = [a and b for a, b in zip(identifiable, flags)]

    warnings = []
    if any(pt.used[n - 1] for pt in points):
        warnings.append(
            "transcendental subterms were replaced by independent symbols; "
            "rank may be overestimated if they are algebraically dependent")
    if any(spec.mode == GENERIC for spec in md.known_inputs):
        warnings.append(
            f"known-input derivatives materialized up to order {len(ranks) - 1}")
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
        verdicts={s.name: verdict_for(s.kind.value, ok) for s, ok in zip(A.z, identifiable)},
        stop_reason=stop,
        seed=opts.seed,
        primes=[opts.prime],
        trials=opts.trials,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        warnings=warnings,
    )
