"""Probabilistic finite-field engine for rational models.

For each (prime, trial) pair the augmented ODE is solved as a truncated
power series at a random specialization of the initial augmented state and
of the known-input series, together with the first-order sensitivities
S(t) = dz(t)/dz0 (variational system, S(0) = I).  The observability matrix
is the Jacobian of the output-series coefficients with respect to z0; since
k! * coeff_k(y) = L^k h, its block k is level k of the symbolic engine's
matrix at that point.  The series order grows one block at a time, and a
trial stops when the rank reaches n_z (full_rank), when a block k > 0 does
not raise it (saturation), or at the order cap, n_z - 1 unless
``FfprobOptions.order`` / ``--series-order`` sets a lower one
(order_exhausted).  The exact rank over F_p is aggregated by maximum across
all trials and primes.  A random point or an unlucky prime can only
underestimate the generic rank, so the max is sound; running several primes
by default makes prime-sensitive rank drops visible in the per-prime record.

The normative solver semantics is coefficient-by-coefficient fixed-point
integration (each sweep fixes one more order).  The implementation runs it
in relaxed (lazy) form: every series node computes its next coefficient
from already-fixed lower-order coefficients, which yields identical output
with far less recomputation, and pulling block k of the output Jacobian
computes only the orders it needs.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

from . import _linalg, _rng
from . import symexpr as sx
from .errors import (
    DivisionByZeroModP,
    EngineTimeout,
    NonRationalExpr,
    RetriesExhausted,
)
from .lie_orc import LieCache, DEFAULT_RETRIES, _check_deadline
from .model import AugmentedSystem, ModelDef, augment, CONSTANT
from .report import AnalysisReport, verdict_for
from .symexpr import Expr, Symbol

DEFAULT_PRIMES = (2147483647, 2147483629, 2147483587)
DEFAULT_TRIALS_PER_PRIME = 2
MIN_PRIME = 2**20


@dataclass(frozen=True)
class TrialConfig:
    """One random specialization: prime field, seed context, series order."""
    prime: int
    seed: int
    order: int
    retries: int = DEFAULT_RETRIES

    def __post_init__(self):
        if self.prime <= MIN_PRIME:
            raise ValueError(f"prime must exceed 2^20, got {self.prime}")
        if self.prime > _linalg.MAX_PRIME:
            raise ValueError(f"prime must not exceed {_linalg.MAX_PRIME}")
        if self.order < 1:
            raise ValueError("truncation order must be >= 1")


# --------------------------------------------------------------------------
# Truncated power series over F_p
# --------------------------------------------------------------------------

class TruncSeries:
    """Element of F_p[t]/(t^(N+1)): coefficients for orders 0..N.

    Arithmetic is exact in the quotient ring; division requires a unit
    (nonzero constant term).  Differentiation drops one order; integration
    gains one and takes the constant term from the caller.
    """

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int):
        self.coeffs = tuple(c % p for c in coeffs)
        self.p = p
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @classmethod
    def constant(cls, value: int, order: int, p: int) -> "TruncSeries":
        return cls((value,) + (0,) * order, p)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _align(self, other: "TruncSeries"):
        if self.p != other.p or len(self.coeffs) != len(other.coeffs):
            raise ValueError("series mismatch (modulus or order)")

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.p == other.p
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)}, p={self.p})"

    def __add__(self, other):
        self._align(other)
        p = self.p
        return TruncSeries([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)], p)

    def __sub__(self, other):
        self._align(other)
        p = self.p
        return TruncSeries([(a - b) % p for a, b in zip(self.coeffs, other.coeffs)], p)

    def __neg__(self):
        return TruncSeries([-a % self.p for a in self.coeffs], self.p)

    def scale(self, k: int) -> "TruncSeries":
        return TruncSeries([a * k % self.p for a in self.coeffs], self.p)

    def __mul__(self, other):
        self._align(other)
        p = self.p
        a, b = self.coeffs, other.coeffs
        n = len(a)
        out = []
        for k in range(n):
            out.append(sum(a[i] * b[k - i] for i in range(k + 1)) % p)
        return TruncSeries(out, p)

    def inverse(self) -> "TruncSeries":
        p = self.p
        a = self.coeffs
        if a[0] == 0:
            raise DivisionByZeroModP("series division by a non-unit (zero constant term)")
        inv0 = pow(a[0], -1, p)
        out = [inv0]
        for k in range(1, len(a)):
            s = sum(a[i] * out[k - i] for i in range(1, k + 1))
            out.append(-inv0 * s % p)
        return TruncSeries(out, p)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = TruncSeries.constant(1, self.order, self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def differentiate(self) -> "TruncSeries":
        p = self.p
        c = self.coeffs
        if len(c) == 1:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncSeries([k * c[k] % p for k in range(1, len(c))], p)

    def integrate(self, constant: int) -> "TruncSeries":
        p = self.p
        out = [constant % p]
        for k, a in enumerate(self.coeffs):
            out.append(a * pow(k + 1, -1, p) % p)
        return TruncSeries(out, p)


def eval_expr_series(e: Expr, env: dict[Symbol, TruncSeries], order: int,
                     p: int, _memo=None) -> TruncSeries:
    """Eager evaluation of a rational expression over TruncSeries arithmetic.

    Independent of the lazy solver, which makes it usable as the second
    route when checking solver output (ODE and sensitivity residuals).
    """
    memo = {} if _memo is None else _memo

    def ev(node: Expr) -> TruncSeries:
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, sx.Const):
            out = TruncSeries.constant(sx.const_mod_p(node.value, p), order, p)
        elif isinstance(node, sx.Sym):
            out = env[node.symbol]
        elif isinstance(node, sx.Add):
            acc = ev(node.terms[0])
            for t in node.terms[1:]:
                acc = acc + ev(t)
            out = acc
        elif isinstance(node, sx.Mul):
            acc = ev(node.factors[0])
            for f in node.factors[1:]:
                acc = acc * ev(f)
            out = acc
        elif isinstance(node, sx.Pow):
            out = ev(node.base) ** node.exponent
        else:
            raise NonRationalExpr(f"transcendental node {sx.to_string(node)}")
        memo[node] = out
        return out

    return ev(e)


# --------------------------------------------------------------------------
# Relaxed (lazy) series nodes
# --------------------------------------------------------------------------

class _LNode:
    __slots__ = ("c", "p")

    def coeff(self, k: int) -> int:
        c = self.c
        while len(c) <= k:
            self._push()
        return c[k]


class _LConst(_LNode):
    def __init__(self, v, p):
        self.c = [v % p]
        self.p = p

    def _push(self):
        self.c.append(0)


class _LGiven(_LNode):
    """Series with externally fixed coefficients (random input jets)."""

    __slots__ = ("given",)

    def __init__(self, coeffs, p):
        self.given = [v % p for v in coeffs]
        self.c = []
        self.p = p

    def _push(self):
        k = len(self.c)
        self.c.append(self.given[k] if k < len(self.given) else 0)


class _LAdd(_LNode):
    __slots__ = ("xs",)

    def __init__(self, xs, p):
        self.xs = tuple(xs)
        self.c = []
        self.p = p

    def _push(self):
        k = len(self.c)
        self.c.append(sum([x.coeff(k) for x in self.xs]) % self.p)


class _LScale(_LNode):
    __slots__ = ("x", "s")

    def __init__(self, x, s, p):
        self.x = x
        self.s = s % p
        self.c = []
        self.p = p

    def _push(self):
        k = len(self.c)
        self.c.append(self.x.coeff(k) * self.s % self.p)


class _LMul(_LNode):
    __slots__ = ("a", "b")

    def __init__(self, a, b, p):
        self.a = a
        self.b = b
        self.c = []
        self.p = p

    def _push(self):
        k = len(self.c)
        a, b = self.a, self.b
        a.coeff(k)
        b.coeff(k)
        self.c.append(sum(map(operator.mul, a.c[:k + 1], b.c[k::-1])) % self.p)


class _LRecip(_LNode):
    __slots__ = ("a", "inv0")

    def __init__(self, a, p):
        self.a = a
        self.c = []
        self.p = p
        self.inv0 = None

    def _push(self):
        k = len(self.c)
        p = self.p
        if k == 0:
            a0 = self.a.coeff(0)
            if a0 == 0:
                raise DivisionByZeroModP("denominator series has zero constant term")
            self.inv0 = pow(a0, -1, p)
            self.c.append(self.inv0)
            return
        self.a.coeff(k)
        s = sum(map(operator.mul, self.a.c[1:k + 1], self.c[::-1]))
        self.c.append(-self.inv0 * s % p)


class _LInt(_LNode):
    """Integrator node: coefficient k+1 is coefficient k of rhs over k+1.

    Used for both trajectory entries (rhs = compiled F_i) and sensitivity
    entries (rhs = row of J*S); rhs is attached after construction because
    the graph is cyclic.
    """

    __slots__ = ("rhs",)

    def __init__(self, c0, p):
        self.c = [c0 % p]
        self.p = p
        self.rhs = None

    def _push(self):
        k = len(self.c)
        if self.rhs is None:
            self.c.append(0)
        else:
            self.c.append(self.rhs.coeff(k - 1) * pow(k, -1, self.p) % self.p)


def _compile(e: Expr, env: dict[Symbol, _LNode], p: int, memo: dict) -> _LNode:
    got = memo.get(e)
    if got is not None:
        return got
    if isinstance(e, sx.Const):
        out = _LConst(sx.const_mod_p(e.value, p), p)
    elif isinstance(e, sx.Sym):
        out = env[e.symbol]
    elif isinstance(e, sx.Add):
        out = _LAdd([_compile(t, env, p, memo) for t in e.terms], p)
    elif isinstance(e, sx.Mul):
        factors = list(e.factors)
        scale = 1
        if isinstance(factors[0], sx.Const):
            cnode = _compile(factors.pop(0), env, p, memo)
            scale = cnode.c[0]
        nodes = [_compile(f, env, p, memo) for f in factors]
        if not nodes:
            out = _LConst(scale, p)
        else:
            acc = nodes[0]
            for nd in nodes[1:]:
                acc = _LMul(acc, nd, p)
            out = acc if scale == 1 else _LScale(acc, scale, p)
    elif isinstance(e, sx.Pow):
        base = _compile(e.base, env, p, memo)
        k = abs(e.exponent)
        acc = None
        sq = base
        while k:
            if k & 1:
                acc = sq if acc is None else _LMul(acc, sq, p)
            k >>= 1
            if k:
                sq = _LMul(sq, sq, p)
        if e.exponent < 0:
            acc = _LRecip(acc, p)
        out = acc
    else:
        raise NonRationalExpr(f"transcendental node {sx.to_string(e)}")
    memo[e] = out
    return out


# --------------------------------------------------------------------------
# Series solution and output Jacobian
# --------------------------------------------------------------------------

@dataclass
class SeriesSolution:
    """Truncated solution of the augmented ODE plus first sensitivities."""
    z_series: tuple[TruncSeries, ...]
    S_series: tuple[tuple[TruncSeries, ...], ...]
    u_series: tuple[TruncSeries, ...]
    z0: tuple[int, ...]
    p: int
    order: int


def _input_env(A: AugmentedSystem, u_series, p) -> dict[Symbol, _LNode]:
    env = {}
    for spec, series in zip(A.model.known_inputs, u_series):
        env[spec.symbol] = _LGiven(series.coeffs, p)
    return env


@dataclass
class _Graph:
    """Lazy series of one specialization: the trajectory z, the sensitivities
    S = dz/dz0 and the output-Jacobian entries dy[i][j] = sum_l
    (dh_i/dz_l)(z, u) * S_lj, whose coefficient k is row k*m + i of the
    output Jacobian."""
    z0: tuple[int, ...]
    u_series: tuple[TruncSeries, ...]
    z: list[_LInt]
    S: list[list[_LInt]]
    dy: list[list[_LNode]]

    def block(self, k: int) -> list[list[int]]:
        """Block k of the output Jacobian: coefficient k of dy, one row per output."""
        return [[node.coeff(k) for node in row] for row in self.dy]


def _wire(A: AugmentedSystem, z0, u_series, p: int) -> _Graph:
    """Wire z' = F(z, u), z(0) = z0, the variational system S' = (dF/dz) S,
    S(0) = I, and the output-Jacobian entries into one lazy graph over F_p.

    Every compiled expression is evaluated at t = 0 before returning, so a
    denominator that vanishes at this point raises DivisionByZeroModP here,
    whichever orders are pulled later.
    """
    n_z = A.n_z
    z0 = tuple(v % p for v in z0)
    if len(z0) != n_z:
        raise ValueError("initial point has wrong dimension")

    env: dict[Symbol, _LNode] = _input_env(A, u_series, p)
    znodes = [_LInt(z0[i], p) for i in range(n_z)]
    for s, node in zip(A.z, znodes):
        env[s] = node
    memo: dict[Expr, _LNode] = {}
    for i, Fi in enumerate(A.F):
        znodes[i].rhs = None if Fi is sx.ZERO else _compile(Fi, env, p, memo)

    def gradient(e: Expr) -> list[tuple[int, _LNode]]:
        entries = []
        for l, zl in enumerate(A.z):
            d = sx.differentiate(e, zl)
            if d is not sx.ZERO:
                entries.append((l, _compile(d, env, p, memo)))
        return entries

    def dot(entries, j) -> _LNode:
        parts = [_LMul(g, snodes[l][j], p) for l, g in entries]
        return parts[0] if len(parts) == 1 else _LAdd(parts, p)

    # Variational system: only rows with a nonzero Jacobian row evolve.
    snodes = [[_LInt(1 if i == j else 0, p) for j in range(n_z)] for i in range(n_z)]
    for i, Fi in enumerate(A.F):
        row = [] if Fi is sx.ZERO else gradient(Fi)
        if row:
            for j in range(n_z):
                snodes[i][j].rhs = dot(row, j)

    dy = []
    for h in A.outputs:
        grad = gradient(h)
        dy.append([dot(grad, j) if grad else _LConst(0, p) for j in range(n_z)])

    for node in memo.values():
        node.coeff(0)
    return _Graph(z0=z0, u_series=tuple(u_series), z=znodes, S=snodes, dy=dy)


def series_solve(A: AugmentedSystem, z0, u_series, order: int, p: int, *,
                 deadline: float | None = None) -> SeriesSolution:
    """Solve z' = F(z, u), z(0) = z0 and S' = (dF/dz) S, S(0) = I through
    the given truncation order, exactly over F_p."""
    g = _wire(A, z0, u_series, p)
    for node in g.z:
        _check_deadline(deadline)
        node.coeff(order)
    for row in g.S:
        _check_deadline(deadline)
        for node in row:
            node.coeff(order)

    pack = lambda nd: TruncSeries(nd.c[:order + 1], p)
    return SeriesSolution(
        z_series=tuple(pack(nd) for nd in g.z),
        S_series=tuple(tuple(pack(nd) for nd in row) for row in g.S),
        u_series=g.u_series,
        z0=g.z0,
        p=p,
        order=order,
    )


def output_jacobian(sol: SeriesSolution, A: AugmentedSystem) -> list[list[int]]:
    """Rows d(coeff_j of y_i)/dz0 for j = 0..N (j outer, i inner).

    Each row is coefficient j of (dh_i/dz)(z(t), u(t)) . S(t).  Evaluated
    eagerly over TruncSeries, apart from the lazy graph that analyze_ffprob
    pulls these rows from block by block, so tests can compare the two.
    """
    p, N = sol.p, sol.order
    env = {s: sol.z_series[i] for i, s in enumerate(A.z)}
    for spec, series in zip(A.model.known_inputs, sol.u_series):
        env[spec.symbol] = series
    memo: dict[Expr, TruncSeries] = {}

    zero = TruncSeries.constant(0, N, p)
    blocks: list[list[TruncSeries]] = []
    for h in A.outputs:
        grad_entries = []
        for l, zl in enumerate(A.z):
            d = sx.differentiate(h, zl)
            if d is not sx.ZERO:
                grad_entries.append((l, eval_expr_series(d, env, N, p, _memo=memo)))
        row = []
        for j in range(A.n_z):
            acc = zero
            for l, g in grad_entries:
                acc = acc + g * sol.S_series[l][j]
            row.append(acc)
        blocks.append(row)

    rows: list[list[int]] = []
    for j in range(N + 1):
        for block in blocks:
            rows.append([series.coeffs[j] for series in block])
    return rows


# --------------------------------------------------------------------------
# Analysis entry points
# --------------------------------------------------------------------------

@dataclass
class FfprobOptions:
    primes: tuple[int, ...] = DEFAULT_PRIMES
    trials: int = DEFAULT_TRIALS_PER_PRIME
    seed: int = 0
    order: int | None = None  # default n_z - 1
    retries: int = DEFAULT_RETRIES
    deadline: float | None = None


def _require_rational(md: ModelDef):
    hit = md.first_transcendental()
    if hit is not None:
        raise NonRationalExpr(
            f"model {md.name!r} is non-rational (contains {sx.to_string(hit)}); "
            "use the symbolic engine")


def _draw_trial(A: AugmentedSystem, cfg: TrialConfig, trial: int, attempt: int):
    p = cfg.prime
    z0 = [_rng.residue(("ffp-z0", cfg.seed, p, trial, attempt, s.name), p) for s in A.z]
    u_series = []
    for spec in A.model.known_inputs:
        if spec.mode == CONSTANT:
            coeffs = [_rng.residue(("ffp-u", cfg.seed, p, trial, attempt, spec.symbol.name, 0), p)]
            coeffs += [0] * cfg.order
        else:
            coeffs = [_rng.residue(("ffp-u", cfg.seed, p, trial, attempt, spec.symbol.name, j), p)
                      for j in range(cfg.order + 1)]
        u_series.append(TruncSeries(coeffs, p))
    return z0, u_series


def _wire_trial(A: AugmentedSystem, cfg: TrialConfig, trial: int) -> _Graph:
    """The graph of one trial; a vanishing denominator restarts it with the
    next attempt's random point."""
    last = None
    for attempt in range(cfg.retries):
        z0, u_series = _draw_trial(A, cfg, trial, attempt)
        try:
            return _wire(A, z0, u_series, cfg.prime)
        except DivisionByZeroModP as exc:
            last = exc
    raise RetriesExhausted(
        f"all {cfg.retries} random specializations hit a vanishing denominator "
        f"mod {cfg.prime}: {last}")


def _grow(g: _Graph, n_z: int, order: int, p: int,
          deadline: float | None = None) -> tuple[list[list[int]], str]:
    """Output-Jacobian rows, one block of series coefficients at a time, and
    the rule that stopped the growth: the rank reached n_z (full_rank), a
    block k > 0 left it unchanged (saturation), or block ``order`` was
    reached (order_exhausted)."""
    rows: list[list[int]] = []
    last = -1
    for k in range(order + 1):
        _check_deadline(deadline)
        rows += g.block(k)
        r = _linalg.rank_mod_p(rows, p)
        if r == n_z:
            return rows, "full_rank"
        if r == last:
            return rows, "saturation"
        last = r
    return rows, "order_exhausted"


def analyze_ffprob(md: ModelDef, opts: FfprobOptions | None = None) -> AnalysisReport:
    """Rank analysis from random finite-field series solutions.

    Each trial grows the series order one block at a time and stops at full
    rank, at the first block that does not raise the rank, or at the order
    cap.  The aggregated rank is the max over all (prime, trial) runs; an
    entry is identifiable when its column is independent of the others
    (deleting it drops the rank by one) in every run that reaches that rank.
    Per-prime ranks are reported so that prime-dependent rank drops are
    visible.
    """
    opts = opts or FfprobOptions()
    t0 = time.perf_counter()
    _require_rational(md)
    A = augment(md)
    n_z = A.n_z
    order = opts.order if opts.order is not None else max(n_z - 1, 1)

    per_prime: dict[str, list[int]] = {}
    trial_results: list[tuple[int, list[bool]]] = []
    stops: list[str] = []
    for p in opts.primes:
        cfg = TrialConfig(prime=p, seed=opts.seed, order=order, retries=opts.retries)
        ranks = []
        for trial in range(opts.trials):
            rows, stop = _grow(_wire_trial(A, cfg, trial), n_z, order, p, opts.deadline)
            r, independent = _linalg.independent_columns(rows, p)
            ranks.append(r)
            trial_results.append((r, independent))
            stops.append(stop)
        per_prime[str(p)] = ranks

    rank = max(r for r, _ in trial_results)
    identifiable = [all(independent[j] for r, independent in trial_results if r == rank)
                    for j in range(n_z)]
    verdict_map = {s: verdict_for(s.kind.value, identifiable[j]) for j, s in enumerate(A.z)}
    if rank == n_z:
        stop_reason = "full_rank"
    elif all(stop == "saturation" for stop in stops):
        stop_reason = "saturation"
    else:
        stop_reason = "order_exhausted"

    warnings = []
    if md.unknown_inputs:
        orders = ", ".join(f"{s.symbol.base}^({s.order + 1})=0" for s in md.unknown_inputs)
        warnings.append(
            f"unknown-input derivative chains truncated ({orders}), "
            "including any direct output feedthrough")

    return AnalysisReport(
        model=md.name,
        engine="ffprob",
        n_z=n_z,
        rank=rank,
        per_prime_ranks=per_prime,
        verdicts={s.name: verdict_map[s] for s in A.z},
        stop_reason=stop_reason,
        seed=opts.seed,
        primes=list(opts.primes),
        trials=opts.trials,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        warnings=warnings,
    )


def cross_check_lie(md: ModelDef, order: int, p: int, seed: int = 0,
                    retries: int = DEFAULT_RETRIES) -> bool:
    """Verify k! * coeff_k(y_i) == (L^k h_i)(z0, u-jet) mod p for k <= order.

    The left side comes from the series solution, the right side from the
    symbolic Lie derivatives with input-derivative symbols bound to the
    matching jet coefficients (u^(j) -> j! * coeff_j(u)).  Returns True iff
    every comparison holds exactly.
    """
    _require_rational(md)
    A = augment(md)
    cfg = TrialConfig(prime=p, seed=seed, order=max(order, 1), retries=retries)

    last = None
    for attempt in range(retries):
        z0, u_series = _draw_trial(A, cfg, 0, attempt)
        try:
            sol = series_solve(A, z0, u_series, cfg.order, p)
            env = {s: sol.z_series[i] for i, s in enumerate(A.z)}
            for spec, series in zip(A.model.known_inputs, sol.u_series):
                env[spec.symbol] = series
            memo: dict[Expr, TruncSeries] = {}
            y_series = [eval_expr_series(h, env, cfg.order, p, _memo=memo)
                        for h in A.outputs]

            point: dict[Symbol, int] = {s: z0[i] for i, s in enumerate(A.z)}
            for spec, series in zip(A.model.known_inputs, u_series):
                fj = 1
                for j in range(order + 1):
                    uj = spec.symbol if j == 0 else spec.symbol.derivative(j)
                    point[uj] = fj * series.coeffs[j] % p if j <= series.order else 0
                    fj *= j + 1

            cache = LieCache(A)
            cache.ensure_level(order)
            fact = 1
            for k in range(order + 1):
                if k:
                    fact = fact * k % p
                for i in range(len(A.outputs)):
                    lie_val = sx.eval_mod_p(cache.lies[k][i], point, p)
                    if fact * y_series[i].coeffs[k] % p != lie_val:
                        return False
            return True
        except DivisionByZeroModP as exc:
            last = exc
    raise RetriesExhausted(
        f"all {retries} random specializations hit a vanishing denominator mod {p}: {last}")
