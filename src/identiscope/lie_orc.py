"""Symbolic observability/identifiability engine.

Builds the extended Lie derivatives of the outputs along the augmented
vector field symbolically, level by level: each level is one memoized
directional walk over the level below, and the walks of one analysis share
their memo (``LieCache``).  The rows of the observability-identifiability
matrix are their gradients with respect to z, evaluated numerically by
forward tangents mod p at one batch of random points per analysis
(``_Trials``): every z-dependent node of the Lie DAG gets one int64
tangent d node/dz per point, formed once from its children's tangents and
batched over the trials, so each level computes only the tangents of the
nodes it adds.  Each product of two residues is reduced before it is
summed, which keeps the arithmetic exact for p up to
``_linalg.MAX_PRIME``.  Each trial's point keeps one reduced echelon form
over the prime field, which the batch extends with every level's new rows;
the matrix's generic rank is the largest trial rank, and each
augmented-state entry is classified from the echelon forms with the
column-deletion test.  Symbolic gradient rows are built only on request
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
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from . import _linalg, _rng
from . import symexpr as sx
from .errors import DivisionByZeroModP, RetriesExhausted, check_deadline
from .model import AugmentedSystem, ModelDef, augment, GENERIC
from .report import AnalysisReport, verdict_for
from .symexpr import Expr, Symbol, SymbolKind

DEFAULT_PRIME = 2147483647
DEFAULT_TRIALS = 3
RETRIES = 25  # random points per trial before RetriesExhausted


@dataclass
class SymbolicOptions:
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    prime: int = DEFAULT_PRIME
    max_level: int | None = None  # default n_z - 1
    deadline: float | None = None  # absolute time.monotonic() bound


class _TrialPoint(dict):
    """One random point of a trial: symbol -> residue, each drawn on first
    lookup from the point's tag.

    Also holds the transcendental table, one memo of node values shared by
    every row, the numeric rows evaluated at this point so far, and the
    echelon form of those rows that ``_Trials.grow`` extends.
    """

    def __init__(self, seed: int, trial: int, attempt: int, p: int, n_z: int):
        super().__init__()
        self.seed, self.trial, self.attempt, self.p = seed, trial, attempt, p
        self.table: dict[bytes, int] = {}
        self.memo: dict[Expr, int] = {}
        self.rows: list[list[int]] = []
        self.echelon = _linalg.Echelon(n_z, p)

    def __missing__(self, s: Symbol) -> int:
        v = self[s] = _rng.residue(("sym", self.seed, self.trial, self.attempt, s.name), self.p)
        return v

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
            v = sx.eval_mod_p(node, self, self.p, transcendental=self.transc, _memo=self.memo)
        return v


class LieCache:
    """Per-analysis cache of the extended Lie derivatives.

    Level k+1 of each output is derived from the cached level k by one
    memoized walk along the augmented field.  The walks of every level share
    one memo of node derivatives, so each level reuses the derivatives of
    the subtrees it shares with the level below.  The cache holds no random
    point: the numeric rows belong to the analysis's one ``_Trials`` batch.
    The symbolic gradient rows, which the engine never needs, are built only
    when ``LieCache.gradient_rows`` is called.  The optional deadline is
    checked between per-output derivations so oversized models hit their
    wall-clock bound promptly.
    """

    def __init__(self, A: AugmentedSystem, deadline: float | None = None):
        self.A = A
        self.deadline = deadline
        self.lies: list[list[Expr]] = [list(A.outputs)]
        self.grads: list[list[list[Expr]]] = []
        self._derivs: dict[Expr, Expr] = {}

    def ensure_level(self, k: int):
        while len(self.lies) <= k:
            nxt = []
            for phi in self.lies[-1]:
                check_deadline(self.deadline)
                nxt.append(extended_lie_derivative(phi, self.A, self._derivs))
            self.lies.append(nxt)

    def gradient_rows(self, k: int) -> list[list[Expr]]:
        self.ensure_level(k)
        while len(self.grads) <= k:
            j = len(self.grads)
            rows = []
            for phi in self.lies[j]:
                check_deadline(self.deadline)
                rows.append([sx.differentiate(phi, zi) for zi in self.A.z])
            self.grads.append(rows)
        return self.grads[k]


class _Trials:
    """The numeric side of one analysis: a batch of trial points, the
    forward tangents at them, and the restarts after a vanishing
    denominator.

    ``points`` holds each live trial's current point, ``memo`` maps every
    z-dependent node of the rows evaluated so far to an int64 array of
    shape (live trials, n_z): d node/dz at each point, and ``n_rows``
    counts the rows that the memo covers.  A node's tangent is formed once,
    from its children's tangents, so a row computes only the tangents of
    nodes that no earlier row reached.  The coefficient multiplying a
    child's tangent is read per trial through ``_TrialPoint.value``, and
    each node reads exactly the values that its symbolic derivative
    contains: the siblings of a z-dependent factor, the base of a power, the
    argument of ln, and the table entries of exp(a), cos(a) and sin(a) for
    exp, sin and cos nodes.  So a vanishing denominator raises
    DivisionByZeroModP, and the transcendental table fills, as evaluating
    ``differentiate(phi, z_j)`` would.  Products use prefix and suffix
    products, never an inverse, so a factor that is 0 mod p is fine.  Every
    product of two residues is reduced mod p before it is summed, which
    keeps int64 exact for p <= ``_linalg.MAX_PRIME``.
    """

    def __init__(self, cache: LieCache, trials: Iterable[int], seed: int, p: int):
        self.cache, self.seed, self.p = cache, seed, p
        self.index = cache.A.index
        self.zset = frozenset(self.index)
        self.units = np.eye(len(self.index), dtype=np.int64)
        self.points = [_TrialPoint(seed, t, 0, p, cache.A.n_z) for t in trials]
        self.memo: dict[Expr, np.ndarray] = {}
        self.n_rows = 0

    def grow(self, n: int) -> list[_TrialPoint]:
        """Bring every trial's point to its first n gradient rows and extend
        each point's echelon form with the rows it gained; returns the points.

        A vanishing denominator moves only the trial that meets it to its
        next attempt, where every row is evaluated again and a new echelon
        form starts; the batch's tangents are then rebuilt.  The smallest
        attempt whose point evaluates rows 0..k can only grow with k, so each
        trial gets the rows of the smallest attempt that evaluates all n of
        them.  A trial that runs out of its ``RETRIES`` attempts leaves the
        batch, and once the others hold n rows the lowest such trial raises
        RetriesExhausted.
        """
        cache, p = self.cache, self.p
        m = len(cache.A.outputs)
        held = {pt.trial: len(pt.rows) for pt in self.points}
        failed: dict[int, RetriesExhausted] = {}
        while any(len(pt.rows) < n for pt in self.points):
            level, i = divmod(self.n_rows, m)
            cache.ensure_level(level)
            check_deadline(cache.deadline)
            errors = self.extend(cache.lies[level][i])
            if not errors:
                continue
            points = self.points[:]
            for pos, exc in errors:
                pt = points[pos]
                if pt.attempt + 1 >= RETRIES:
                    err = RetriesExhausted(
                        f"all {RETRIES} evaluation points hit a vanishing denominator "
                        f"mod {p} (model degenerate at this prime, or prime too small): "
                        f"{exc}")
                    err.__cause__ = exc
                    failed[pt.trial] = err
                    points[pos] = None
                else:
                    points[pos] = _TrialPoint(self.seed, pt.trial, pt.attempt + 1, p,
                                              cache.A.n_z)
                    held[pt.trial] = 0
            self.points = [pt for pt in points if pt is not None]
            self.memo, self.n_rows = {}, 0
        if failed:
            raise failed[min(failed)]
        for pt in self.points:
            if len(pt.rows) > held[pt.trial]:
                pt.echelon.extend(pt.rows[held[pt.trial]:])
        return self.points

    def extend(self, phi: Expr) -> list[tuple[int, DivisionByZeroModP]]:
        """Evaluate the next row, dphi/dz, at every point of the batch.

        Returns the (position, error) of each point that met a vanishing
        denominator; then no tangent is kept and no row is added.  Otherwise
        the row goes to each point that does not hold it yet.
        """
        p, memo = self.p, self.memo
        post = _new_nodes(phi, memo, self.zset)
        steps = [_step(node, self.index, self.zset) for node in post]
        # Each point reads its coefficients parents first, the order of a
        # walk down phi's DAG: that order fixes which vanishing denominator
        # a point reports when it has several.
        coefs, failed = [], []
        for pos, pt in enumerate(self.points):
            try:
                coefs.append(_coefficients(steps, pt))
            except DivisionByZeroModP as exc:
                failed.append((pos, exc))
        if failed:
            return failed
        C = np.array(coefs, dtype=np.int64).reshape(len(self.points), -1)
        off = 0
        for node, (op, kids, _) in zip(post, steps):
            if op == _SYM:
                t = np.broadcast_to(self.units[kids], (len(self.points), len(self.index)))
            elif op == _ADD:
                t = memo[kids[0]]
                if len(kids) > 1:
                    t = sum((memo[c] for c in kids[1:]), t) % p
            else:
                t = C[:, off, None] * memo[kids[0]] % p
                off += 1
                for c in kids[1:]:
                    t = (t + C[:, off, None] * memo[c] % p) % p
                    off += 1
            memo[node] = t
        row = memo.get(phi)
        for pos, pt in enumerate(self.points):
            if len(pt.rows) == self.n_rows:
                pt.rows.append([0] * len(self.index) if row is None else row[pos].tolist())
        self.n_rows += 1
        return []


def _new_nodes(phi: Expr, memo: dict[Expr, np.ndarray], zset: frozenset) -> list[Expr]:
    """The z-dependent nodes of phi that have no tangent yet, children
    before parents.

    The memo is closed under z-dependent children, so skipping its nodes
    keeps the other nodes in the order a walk of phi's whole DAG gives them.
    """

    def fresh(node):
        return node not in memo and _depends(node, zset)

    if not fresh(phi):
        return []
    post: list[Expr] = []
    seen = {phi}
    stack = [(phi, iter(_kids(phi)))]
    while stack:
        node, it = stack[-1]
        for c in it:
            if c not in seen and fresh(c):
                seen.add(c)
                stack.append((c, iter(_kids(c))))
                break
        else:
            stack.pop()
            post.append(node)
    return post


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


# Node kinds of a tangent step; see _step.
_SYM, _ADD, _MUL, _POW, _LN, _FUNC = range(6)


def _step(node: Expr, index: dict[Symbol, int], zset: frozenset) -> tuple:
    """(kind, z-dependent children, what the coefficients read) for a
    z-dependent node; a Sym names its column in place of children."""
    if isinstance(node, sx.Sym):
        return _SYM, index[node.symbol], None
    if isinstance(node, sx.Add):
        return _ADD, [t for t in node.terms if _depends(t, zset)], None
    if isinstance(node, sx.Mul):
        fs = node.factors
        deps = [k for k, f in enumerate(fs) if _depends(f, zset)]
        return _MUL, [fs[k] for k in deps], (fs, deps)
    if isinstance(node, sx.Pow):
        return _POW, [node.base], node
    if node.fname == "ln":
        return _LN, [node.arg], node.arg
    # d exp(a) = exp(a) da, d sin(a) = cos(a) da, d cos(a) = -sin(a) da,
    # with the same nodes the symbolic derivative builds.
    if node.fname == "exp":
        return _FUNC, [node.arg], (node, 1)
    if node.fname == "sin":
        return _FUNC, [node.arg], (sx.cos(node.arg), 1)
    return _FUNC, [node.arg], (sx.sin(node.arg), -1)


def _depends(node: Expr, zset: frozenset) -> bool:
    return not sx.free_symbols(node).isdisjoint(zset)


def _coefficients(steps: list[tuple], pt: _TrialPoint) -> list[int]:
    """The coefficients of the steps at pt's point, one per z-dependent
    child in step order; the values are read parents first."""
    p, value = pt.p, pt.value
    out: list[int] = []  # built backwards
    for op, _, arg in reversed(steps):
        if op == _MUL:
            fs, deps = arg
            if len(deps) == 1:
                k, c = deps[0], 1
                for f in fs[:k] + fs[k + 1:]:
                    c = c * value(f) % p
                out.append(c)
                continue
            vals = [value(f) for f in fs]
            suffix = [1] * (len(vals) + 1)
            for k in range(len(vals) - 1, 0, -1):
                suffix[k] = suffix[k + 1] * vals[k] % p
            prefix, cs = 1, []
            for k, v in enumerate(vals):
                if k in deps:
                    cs.append(prefix * suffix[k + 1] % p)
                prefix = prefix * v % p
            out.extend(reversed(cs))
        elif op == _POW:
            b, e = value(arg.base), arg.exponent
            if b == 0 and e < 0:
                raise DivisionByZeroModP(
                    f"base of {sx.to_string(arg.base)}^{e} is 0 mod {p}")
            out.append(e * pow(b, e - 1, p) % p)
        elif op == _LN:
            b = value(arg)
            if b == 0:
                raise DivisionByZeroModP(f"argument of ln({sx.to_string(arg)}) is 0 mod {p}")
            out.append(pow(b, -1, p))
        elif op == _FUNC:
            factor, sign = arg
            out.append(sign * value(factor) % p)
    out.reverse()
    return out


def _field_rate(A: AugmentedSystem) -> Callable[[Symbol], Expr]:
    """Rate of each symbol along the augmented vector field: z_i -> F_i, a
    generic known input u^(j) -> u^(j+1), t -> 1, any other symbol -> 0."""
    F = dict(zip(A.z, A.F))
    generic = {spec.symbol.base for spec in A.model.known_inputs if spec.mode == GENERIC}

    def rate(s: Symbol) -> Expr:
        Fs = F.get(s)
        if Fs is not None:
            return Fs
        if s.kind is SymbolKind.KNOWN_INPUT and s.base in generic:
            return sx.sym(s.derivative(1))
        if s.kind is SymbolKind.TIME:
            return sx.ONE
        return sx.ZERO

    return rate


def extended_lie_derivative(phi: Expr, A: AugmentedSystem,
                            memo: dict[Expr, Expr] | None = None) -> Expr:
    """Derivative of phi along the augmented vector field.

    (dphi/dz) . F  +  sum_j dphi/du^(j) * u^(j+1)  +  dphi/dt,
    with u^(j+1) identically zero for constant-mode known inputs, taken by
    one directional walk over phi's DAG.  ``memo`` may be kept across calls
    for the same A, since the field's rates depend on A only.
    """
    return sx.derivative(phi, _field_rate(A), {} if memo is None else memo)


def analyze_symbolic(md: ModelDef, opts: SymbolicOptions | None = None) -> AnalysisReport:
    """Full observability/identifiability analysis via the rank condition.

    Levels are added until the matrix reaches full rank n_z, the rank stops
    increasing (saturation), or max_level (default n_z - 1) is hit.  One
    ``_Trials`` batch evaluates the rows of every trial and extends each
    trial's echelon form with them; a trial that restarts at a new point
    starts a new echelon form from all its rows.  The level's rank is the
    largest trial rank.  Entry j is observable/identifiable when its column
    is independent of the others (deleting it drops the rank to r-1) in
    every trial that reaches the final rank r; otherwise it lies in the span
    of the others.
    """
    opts = opts or SymbolicOptions()
    if opts.trials < 1:
        raise ValueError("trials must be >= 1")
    if not 2 <= opts.prime <= _linalg.MAX_PRIME:
        raise ValueError(f"prime must be in [2, {_linalg.MAX_PRIME}]")
    if not _linalg.is_prime(opts.prime):
        raise ValueError(f"prime {opts.prime} is composite")
    t0 = time.perf_counter()
    A = augment(md)
    n_z, m = A.n_z, len(A.outputs)
    max_level = opts.max_level if opts.max_level is not None else max(n_z - 1, 0)
    batch = _Trials(LieCache(A, deadline=opts.deadline), range(opts.trials),
                    opts.seed, opts.prime)

    ranks: list[int] = []
    stop = "max_level"
    for k in range(max_level + 1):
        check_deadline(opts.deadline)
        points = batch.grow((k + 1) * m)
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
    if any(pt.table for pt in points):
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
