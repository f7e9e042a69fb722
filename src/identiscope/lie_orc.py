"""Symbolic observability/identifiability engine.

Builds the extended Lie derivatives of the outputs along the augmented
vector field symbolically, level by level: each level is one memoized
directional walk over the level below, and the walks of one analysis share
their memo (``LieCache``).  The rows of the observability-identifiability
matrix are their gradients with respect to z, evaluated numerically by
forward tangents mod p at one batch of random points per analysis
(``_Trials``).  Every z-dependent node of the Lie DAG gets one slot, a row
of the batch's one store that holds its value and its int64 tangent
d node/dz at every point, so each level evaluates only the nodes it adds,
reading its operands by slot and writing each new node into its row: one
tape addressed by slot, as in vector forward mode (Griewank & Walther,
*Evaluating Derivatives*, SIAM 2008).  A level evaluates its nodes in
waves, a straight-line program over (nodes, trials): the new nodes of one
kind and one height take a handful of numpy operations together, not a few
each.
Each product of two residues is reduced before it is summed, which keeps
the arithmetic exact for p up to ``_linalg.MAX_PRIME``.  The batch keeps
one reduced echelon form over the prime field per trial, stacked in one
``_linalg.Echelons``, and extends them with every level's new rows; the
matrix's generic rank is the largest trial rank, and each augmented-state
entry is classified from the echelon forms with the column-deletion test.
No gradient is ever built symbolically.

Unlike purely symbolic rank computation, the rank step specializes every
symbol to an independent uniform residue in [1, p-1]; a random point can
only underestimate the generic rank (never overestimate it on rational
matrices), so the maximum over a few trials is reported.  Transcendental
subexpressions are handled by replacing each maximal transcendental subterm
with a fresh independent symbol before specialization, which keeps
non-rational models analyzable at the cost of possibly overestimating rank
when those subterms are algebraically dependent; reports carry a warning
whenever the rows read such a subterm.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Iterable

import numpy as np

from . import _linalg, _rng
from . import symexpr as sx
from .errors import DivisionByZeroModP, RetriesExhausted, RunContext
from .model import AugmentedSystem, ModelDef, augment, GENERIC
from .report import FULL_RANK, MAX_LEVEL, SATURATION, SYMBOLIC, AnalysisReport, ok_report
from .symexpr import Expr, Symbol, SymbolKind

DEFAULT_TRIALS = 3
RETRIES = 25  # random points per trial before RetriesExhausted

SymbolicOptions = _linalg.Options


class _TrialPoint(dict):
    """One random point of a trial: node -> residue, each drawn on first
    lookup from the point's tag, a symbol's by its name and a transcendental
    node's (its stand-in residue) by its hash.  ``eval_mod_p`` memoizes the
    values of z-independent nodes in the same dict."""

    def __init__(self, seed: int, trial: int, attempt: int, p: int):
        super().__init__()
        self.seed, self.trial, self.attempt, self.p = seed, trial, attempt, p
        self._sym = _rng.drawer(("sym", seed, trial, attempt), p)
        self._transc = _rng.drawer(("transc", seed, trial, attempt), p)

    def __missing__(self, node: Expr) -> int:
        v = self[node] = (self._sym(node.name) if isinstance(node, Symbol)
                          else self._transc(node.shash.hex()))
        return v


class LieCache:
    """Per-analysis cache of the extended Lie derivatives.

    Level k+1 of each output is derived from the cached level k by one
    memoized walk along the augmented field.  The walks of every level share
    one memo of node derivatives, so each level reuses the derivatives of
    the subtrees it shares with the level below.  The cache holds no random
    point: the numeric rows belong to the analysis's one ``_Trials`` batch.
    The run context ``ctx`` (unbounded if None) is checked inside each
    walk, every 256 new entries of the shared memo, so a budget stops it
    promptly.
    """

    def __init__(self, A: AugmentedSystem, ctx: RunContext | None = None):
        self.A = A
        self.ctx = ctx or RunContext()
        self.lies: list[list[Expr]] = [list(A.outputs)]
        self._derivs: dict = {}  # sx.derivative's memo

    def ensure_level(self, k: int):
        while len(self.lies) <= k:
            self.lies.append([extended_lie_derivative(phi, self.A, self._derivs,
                                                      check=self.ctx.check)
                              for phi in self.lies[-1]])


class _Trials:
    """The numeric side of one analysis: a batch of trial points, the
    forward tangents at them, and the restarts after a vanishing
    denominator.

    ``points`` holds each live trial's current point, and form f of
    ``forms`` is the echelon form of the first ``n_rows`` rows at point f;
    a restart rebuilds it with the store.  Every z-dependent node of those
    rows has one slot (``slot``), its row in the batch's store: VAL of shape
    (rows, trials), the node's value at each point; UNDEF of the same shape,
    whether that value meets a vanishing denominator; and TAN of shape
    (rows, trials, n_z), d node/dz.  An evaluation adds the slots of its new
    nodes after the others, and uses the rows past them as scratch: a "one"
    and a "zero" row, then the values of the new nodes' z-independent
    children, which the next evaluation overwrites.  ``dirty`` tells whether
    some slot's value is undefined at some point; until one is, the waves
    skip UNDEF.

    An evaluation works in waves: the new nodes of one kind and one height
    (a node is one above its highest new child) take a handful of numpy
    operations over (nodes, trials), reading their operands' rows and
    writing their own.  An Add sums its terms.  A Mul gathers
    its z-dependent factors, padded with the "one" row, and takes prefix and
    suffix products over them, starting from the product of its
    z-independent factors; they give its value and every product-rule
    coefficient without an inverse, so a factor that is 0 mod p is fine.  A
    Pow or a Func takes its value and coefficient per node and point in
    Python.  z-independent children are evaluated per point by
    ``eval_mod_p``, which keeps their values in the point, and a
    transcendental node's value is the point's residue for it.
    Every product of two residues is reduced mod p before it is summed,
    which keeps int64 exact for p <= ``_linalg.MAX_PRIME``.

    A node reads exactly the values that its symbolic derivative contains
    (``_reads``); reading a value reads its subtree, Func arguments
    excepted.  A point fails when a read value is undefined, is a zero base
    under a negative power or is a zero argument of ln.  ``transcendental``
    is set once a row reads a non-rational value, that is once evaluating
    some ``differentiate(phi, z_j)`` would meet a Func node.
    """

    def __init__(self, cache: LieCache, trials: Iterable[int], seed: int, p: int):
        self.cache, self.seed, self.p = cache, seed, p
        self.index = cache.A.index
        self.zset = frozenset(self.index)
        # Nodes known not to depend on z, and whether the rows read a
        # transcendental value; structural, so kept across resets.
        self.indep: set[Expr] = set()
        self.transcendental = False
        self.units = np.eye(len(self.index), dtype=np.int64)
        self.points = [_TrialPoint(seed, t, 0, p) for t in trials]
        self._reset()

    def _reset(self):
        T, n_z = len(self.points), len(self.index)
        self.forms = _linalg.Echelons(n_z, [self.p] * T)
        self.slot: dict[Expr, int] = {}
        self.VAL = np.empty((_ROWS, T), dtype=np.int64)
        self.UNDEF = np.zeros((_ROWS, T), dtype=bool)
        self.TAN = np.empty((_ROWS, T, n_z), dtype=np.int64)
        self.dirty = False  # whether some slot's value is undefined somewhere
        self.n_rows = 0

    def _hold(self, n: int) -> None:
        """Make room for n rows in the store, in place and no more: a resize
        does not hold the store twice, as a copy would, but zero-fills the
        rows it adds.  No view of the store outlives an evaluation."""
        if n > len(self.VAL):
            self.VAL.resize((n,) + self.VAL.shape[1:], refcheck=False)
            self.UNDEF.resize((n,) + self.UNDEF.shape[1:], refcheck=False)
            self.TAN.resize((n,) + self.TAN.shape[1:], refcheck=False)

    def grow(self, n: int) -> list[_TrialPoint]:
        """Bring every trial's point to its first n gradient rows, each
        point's form in ``forms`` extended with them; returns the points.

        The rows that the points lack are evaluated together.  A point that
        fails moves its trial to the next attempt; then the batch's forms
        and slots are rebuilt for the live points and every row is
        evaluated again.  The smallest attempt whose point evaluates
        rows 0..k can only grow with k, so each trial gets the rows of the
        smallest attempt that evaluates all n of them.  A trial that runs
        out of its ``RETRIES`` attempts leaves the batch, and once the others
        hold n rows the lowest such trial raises RetriesExhausted, naming
        the first vanishing denominator that its last point reads.
        """
        cache, p = self.cache, self.p
        m = len(cache.A.outputs)
        failed: dict[int, RetriesExhausted] = {}
        while self.points and self.n_rows < n:
            cache.ensure_level((n - 1) // m)
            cache.ctx.check()
            rows = [cache.lies[r // m][r % m] for r in range(n)]
            bad = self._evaluate(rows[self.n_rows:])
            if not bad:
                continue
            points = self.points[:]
            for pos in bad:
                pt = points[pos]
                if pt.attempt + 1 >= RETRIES:
                    exc = _first_failure(rows, self.zset, pt)
                    err = RetriesExhausted(
                        f"all {RETRIES} evaluation points hit a vanishing denominator "
                        f"mod {p} (model degenerate at this prime, or prime too small): "
                        f"{exc}")
                    err.__cause__ = exc
                    failed[pt.trial] = err
                    points[pos] = None
                else:
                    points[pos] = _TrialPoint(self.seed, pt.trial, pt.attempt + 1, p)
            self.points = [pt for pt in points if pt is not None]
            self._reset()
        if failed:
            raise failed[min(failed)]
        return self.points

    def _evaluate(self, rows: list[Expr]) -> list[int]:
        """Evaluate the gradients of the rows that follow the first
        ``n_rows`` at every point of the batch.

        Returns the positions of the points that fail; then no row is added
        and the batch must be reset.  Otherwise every point's form is
        extended with the new rows, in one ``Echelons.extend`` step.
        """
        p, slot, points = self.p, self.slot, self.points
        base = len(slot)
        nodes = [entry for post in _walk(rows, slot, self.indep, self.zset) for entry in post]
        # The store's rows past the new nodes: a "one" and a "zero" row, then
        # the new nodes' z-independent children, values only.
        one = len(slot)
        indep: dict[Expr, int] = {}
        height: list[int] = []
        waves: dict[tuple[int, int], list] = {}
        for node, dep, ind in nodes:
            h = 0
            if isinstance(node, sx.Symbol):
                kind, item = _SYM, node
            else:
                for g in dep:
                    if g >= base and height[g - base] >= h:
                        h = height[g - base] + 1
                ind = [indep.setdefault(c, one + 2 + len(indep)) for c in ind]
                if isinstance(node, sx.Add):
                    kind, item = _ADD, (dep, ind)
                elif isinstance(node, sx.Mul):
                    kind, item = _MUL, (dep, ind)
                else:
                    kind, item = _UNARY, (dep[0], node)
            waves.setdefault((h, kind), []).append((base + len(height), item))
            height.append(h)
        out = [slot.get(phi, one + 1) for phi in rows]

        end = one + 2 + len(indep)
        self._hold(end)
        VAL, UNDEF, TAN = self.VAL, self.UNDEF, self.TAN
        VAL[one], VAL[one + 1], TAN[one:one + 2] = 1, 0, 0
        UNDEF[base:one + 2] = False  # the last evaluation's scratch rows
        for c, j in indep.items():
            if isinstance(c, sx.Const):  # the same at every point
                VAL[j] = _value(c, points[0])
            else:
                VAL[j] = [_value(c, pt) for pt in points]
        UNDEF[one + 2:end] = VAL[one + 2:end] < 0
        dirty = self.dirty or bool(UNDEF[one + 2:end].any())

        bad = np.zeros(len(points), dtype=bool)
        for h, kind in sorted(waves):
            for chunk in _chunks(waves[h, kind], kind):
                self.cache.ctx.check()
                locs, items = zip(*chunk)
                locs = list(locs)
                if kind == _SYM:
                    VAL[locs] = [[pt[s] for pt in points] for s in items]
                    TAN[locs] = self.units[[self.index[s] for s in items], None, :]
                elif kind == _ADD:
                    _add_wave(locs, items, VAL, UNDEF, TAN, p, dirty)
                elif kind == _MUL:
                    _mul_wave(locs, items, one, VAL, UNDEF, TAN, p, dirty, bad)
                else:
                    _unary_wave(locs, items, points, VAL, UNDEF, TAN, p, dirty, bad)
        if bad.any():
            return np.flatnonzero(bad).tolist()

        self.dirty = self.dirty or dirty and bool(UNDEF[base:one].any())
        # A non-rational value always has a Func node below it.
        self.transcendental = self.transcendental or any(
            not sx.is_rational_expr(r) for node, dep, ind in nodes
            if not sx.is_rational_expr(node) for r in _reads(node, dep, ind))
        self.forms.extend(TAN[out].swapaxes(0, 1))
        self.n_rows += len(rows)
        return []


# Node kinds of a wave.
_SYM, _ADD, _MUL, _UNARY = range(4)
# Rows of a new batch's store, before a level needs more.
_ROWS = 256
# Tangent rows that one numpy step of a wave gathers at most, which bounds
# the temporaries of the largest waves.
_CHUNK = 4096


def _chunks(wave: list, kind: int):
    """Split a wave so that each part gathers at most ``_CHUNK`` tangent
    rows at once: an Add one per z-dependent term, any other node one."""
    part, size = [], 0
    for entry in wave:
        cost = len(entry[1][0]) if kind == _ADD else 1
        if part and size + cost > _CHUNK:
            yield part
            part, size = [], 0
        part.append(entry)
        size += cost
    yield part


def _value(node: Expr, pt: _TrialPoint) -> int:
    """A z-independent node's value at pt, or -1 where it is undefined."""
    try:
        return sx.eval_mod_p(node, pt, pt.p, _memo=pt)
    except DivisionByZeroModP:
        return -1


def _add_wave(locs, items, VAL, UNDEF, TAN, p, dirty):
    terms = [dep + ind for dep, ind in items]
    flat, starts = _flatten(terms)
    VAL[locs] = np.add.reduceat(VAL[flat], starts, axis=0) % p
    if dirty:
        UNDEF[locs] = np.logical_or.reduceat(UNDEF[flat], starts, axis=0)
    flat, starts = _flatten([dep for dep, _ in items])
    TAN[locs] = np.add.reduceat(TAN[flat], starts, axis=0) % p


def _mul_wave(locs, items, one, VAL, UNDEF, TAN, p, dirty, bad):
    """Evaluate a wave of Mul nodes; marks the points that fail in bad."""
    # Nodes with fewest z-dependent factors first, so that the nodes with a
    # k-th one are a trailing slice.
    order = sorted(range(len(items)), key=lambda w: len(items[w][0]))
    locs, items = [locs[w] for w in order], [items[w] for w in order]
    counts = [len(dep) for dep, _ in items]
    width, width_ind = counts[-1], max(1, max(len(ind) for _, ind in items))
    D = np.array([dep + [one] * (width - len(dep)) for dep, _ in items])
    I = np.array([ind + [one] * (width_ind - len(ind)) for _, ind in items])
    c = VAL[I[:, 0]]
    for k in range(1, width_ind):
        c = c * VAL[I[:, k]] % p
    V = VAL[D]
    prefix = [c]
    for k in range(width - 1):
        prefix.append(prefix[-1] * V[:, k] % p)
    VAL[locs] = prefix[-1] * V[:, -1] % p
    coefs, suffix = prefix[:], None
    for k in reversed(range(width)):
        if suffix is not None:
            coefs[k] = prefix[k] * suffix % p
        if k:
            suffix = V[:, k] if suffix is None else suffix * V[:, k] % p
    acc = None
    for k in range(width):
        s = bisect.bisect_right(counts, k)
        term = TAN[D[s:, k]]
        term *= coefs[k][s:, :, None]
        term %= p
        if acc is None:
            acc = term
        else:
            acc[s:] += term
    if width > 1:
        acc %= p
    TAN[locs] = acc
    if dirty:
        dep_undef, ind_undef = UNDEF[D].any(axis=1), UNDEF[I].any(axis=1)
        UNDEF[locs] = dep_undef | ind_undef
        reads_all = np.array(counts)[:, None] > 1
        bad |= (ind_undef | reads_all & dep_undef).any(axis=0)


def _unary_wave(locs, items, points, VAL, UNDEF, TAN, p, dirty, bad):
    """Evaluate a wave of Pow and Func nodes; marks the points that fail in bad."""
    kids = [kid for kid, _ in items]
    bases = VAL[kids].tolist()
    got = np.array([_unary(node, b, points, p) for (_, node), b in zip(items, bases)],
                   dtype=np.int64)
    VAL[locs] = got[:, :, 0]
    tan = TAN[kids]
    tan *= got[:, :, 1, None]
    tan %= p
    TAN[locs] = tan
    bad |= got[:, :, 2].any(axis=0)
    if dirty:
        reads = np.array([isinstance(node, sx.Pow) or node.fname == "ln"
                          for _, node in items])[:, None]
        bad |= (reads & UNDEF[kids]).any(axis=0)


def _unary(node: Expr, bases: list[int], points: list[_TrialPoint], p: int) -> list[tuple]:
    """(value, derivative coefficient, fails) of a Pow or Func node at each
    point, given its child's values."""
    if isinstance(node, sx.Pow):
        e = node.exponent
        return [(0, 0, True) if b == 0 and e < 0 else (pow(b, e, p), e * pow(b, e - 1, p) % p, False)
                for b in bases]
    if node.fname == "ln":
        return [(pt[node], pow(b, -1, p) if b else 0, b == 0)
                for b, pt in zip(bases, points)]
    factor, sign = sx.func_factor(node)
    return [(pt[node], sign * pt[factor] % p, False) for pt in points]


def _flatten(groups: list[list[int]]) -> tuple[list[int], np.ndarray]:
    """The groups' entries in one list, and where each group starts."""
    starts = np.zeros(len(groups), dtype=np.int64)
    np.cumsum([len(g) for g in groups[:-1]], out=starts[1:])
    return [i for g in groups for i in g], starts


def _first_failure(rows: list[Expr], zset: frozenset, pt: _TrialPoint) -> DivisionByZeroModP:
    """The first vanishing denominator that pt's point meets when it reads,
    row by row, the values that the rows' derivatives read, each row's new
    nodes parents first: the order of a walk down the row's DAG.  The walk
    and each node's reads take children in ``sx.structural_order``, so the
    denominator named does not depend on the order in which nodes were
    built."""
    p = pt.p

    def kids(node):
        return sx.structural_order(sx.children(node))

    try:
        for post in _walk(rows, {}, set(), zset, kids):
            for node, dep, ind in reversed(post):
                for r in sx.structural_order(_reads(node, dep, ind)):
                    v = sx.eval_mod_p(r, pt, p, _memo=pt)
                    if v == 0 and isinstance(node, sx.Pow) and node.exponent < 0:
                        raise DivisionByZeroModP(f"base of {sx.to_string(node)} is 0 mod {p}")
                    if v == 0 and isinstance(node, sx.Func):  # only ln reads a value that can be 0
                        raise DivisionByZeroModP(f"argument of ln({sx.to_string(r)}) is 0 mod {p}")
    except DivisionByZeroModP as exc:
        return exc
    raise AssertionError("the point reads no vanishing denominator")


def _reads(node: Expr, dep: list, ind: list[Expr]) -> tuple[Expr, ...]:
    """The nodes whose values the symbolic derivative of a z-dependent node
    reads, given its z-dependent children ``dep`` and the others ``ind``: a
    Mul every factor when two or more depend on z and otherwise the siblings
    of its z-dependent factor, a Pow its base, ln its argument, exp(a),
    sin(a) and cos(a) the Func nodes exp(a), cos(a) and sin(a), and an Add
    nothing."""
    if isinstance(node, sx.Mul):
        return node.factors if len(dep) > 1 else tuple(ind)
    if isinstance(node, sx.Pow):
        return (node.base,)
    if isinstance(node, sx.Func):
        return (node.arg if node.fname == "ln" else sx.func_factor(node)[0],)
    return ()


def _walk(rows: list[Expr], slot: dict[Expr, int], indep: set[Expr],
          zset: frozenset, kids: Callable[[Expr], Iterable[Expr]] = sx.children
          ) -> list[list[tuple]]:
    """Give the next free slot to every z-dependent node of the rows that has
    none, children before parents, in the order of a walk down each row's
    DAG that takes each node's children in the order of ``kids``.  Returns,
    per row, its new nodes, each as (node, slots of its z-dependent
    children, its z-independent children).

    A node depends on z when it is a z symbol or a child of it has a slot.
    ``indep`` holds the nodes known not to; the walk adds the ones it finds.
    """
    posts = []
    for phi in rows:
        post: list[tuple] = []
        stack = [] if phi in slot or phi in indep else [(phi, iter(kids(phi)), [], [])]
        while stack:
            node, it, dep, ind = stack[-1]
            for c in it:
                g = slot.get(c)
                if g is not None:
                    dep.append(g)
                elif c in indep or isinstance(c, sx.Const):
                    ind.append(c)
                else:
                    stack.append((c, iter(kids(c)), [], []))
                    break
            else:
                stack.pop()
                if dep or node in zset:
                    g = slot[node] = len(slot)
                    post.append((node, dep, ind))
                    if stack:
                        stack[-1][2].append(g)
                else:
                    indep.add(node)
                    if stack:
                        stack[-1][3].append(node)
        posts.append(post)
    return posts


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
            return s.derivative(1)
        if s.kind is SymbolKind.TIME:
            return sx.ONE
        return sx.ZERO

    return rate


def extended_lie_derivative(phi: Expr, A: AugmentedSystem,
                            memo: dict | None = None, *,
                            check: Callable[[], None] | None = None) -> Expr:
    """Derivative of phi along the augmented vector field.

    (dphi/dz) . F  +  sum_j dphi/du^(j) * u^(j+1)  +  dphi/dt,
    with u^(j+1) identically zero for constant-mode known inputs, taken by
    one directional walk over phi's DAG.  ``memo`` may be kept across calls
    for the same A, since the field's rates depend on A only.  The walk
    calls ``check`` as ``sx.derivative`` does.
    """
    return sx.derivative(phi, _field_rate(A), {} if memo is None else memo, check=check)


def analyze_symbolic(md: ModelDef, opts: SymbolicOptions | None = None) -> AnalysisReport:
    """Full observability/identifiability analysis via the rank condition.

    Levels are added until the matrix reaches full rank n_z, the rank stops
    increasing (saturation), or max_level (default n_z - 1) is hit.  One
    ``_Trials`` batch evaluates the rows of every trial and extends each
    trial's echelon form with them; when a trial restarts at a new point,
    the batch starts new forms for every trial from all its rows.  The
    level's rank is the largest trial rank.  Entry j is observable/identifiable when
    its column is independent of the others (deleting it drops the rank to
    r-1) in every trial that reaches the final rank r; otherwise it lies in
    the span of the others.  The analysis runs at the first of the primes.
    """
    opts = opts or SymbolicOptions()
    primes = _linalg.DEFAULT_PRIMES if opts.primes is None else opts.primes
    trials = DEFAULT_TRIALS if opts.trials is None else opts.trials
    _linalg.check_settings(primes, trials, opts.max_level, floor=1)
    ctx = RunContext(opts.deadline)
    A = augment(md)
    n_z, m = A.n_z, len(A.outputs)
    max_level = opts.max_level if opts.max_level is not None else max(n_z - 1, 0)
    batch = _Trials(LieCache(A, ctx), range(trials), opts.seed, primes[0])

    ranks: list[int] = []
    stop = MAX_LEVEL
    for k in range(max_level + 1):
        batch.grow((k + 1) * m)
        r = max(batch.forms.ranks)
        ranks.append(r)
        if r == n_z:
            stop = FULL_RANK
            break
        if k > 0 and ranks[-2] == r:
            stop = SATURATION
            break

    warnings = []
    if batch.transcendental:
        warnings.append(
            "transcendental subterms were replaced by independent symbols; "
            "rank may be overestimated if they are algebraically dependent")
    if any(spec.mode == GENERIC for spec in md.known_inputs):
        warnings.append(
            f"known-input derivatives materialized up to order {len(ranks) - 1}")
    return ok_report(SYMBOLIC, A, batch.forms, stop, ctx, warnings, ranks_by_level=ranks,
                     seed=opts.seed, primes=[primes[0]], trials=trials)
