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

The solver integrates coefficient by coefficient in forward mode.  F and h
are compiled once per analysis into a flat tape; every node carries its
value series and an n_z tangent vector d/dz0 per order, in int64 numpy.  The
tangents of z are S, and block k of the output Jacobian is the order-k
tangent of the h nodes.  One sweep per order advances every (prime, trial)
run at once: runs are an array axis, each with its prime broadcast along it.
Storage is order-major, so only the orders some run reaches take memory.
Every product of two residues is reduced mod p before it is added to
anything, which keeps int64 arithmetic exact for p <= MAX_PRIME.  A run
whose point makes a denominator of F or h vanish at t = 0 restarts at its
next random point (order 0 is redone; the other runs keep theirs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby

import numpy as np

from . import _linalg, _rng
from . import symexpr as sx
from .errors import DivisionByZeroModP, NonRationalExpr, RetriesExhausted
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

    Independent of the ``_Sweep``, its h-node tangents included, which makes
    it usable as the second route when checking solver output (ODE and
    sensitivity residuals).
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
# Forward-mode sweep over a flat tape of F and h
# --------------------------------------------------------------------------

_CONST, _LEAF, _ADD, _SCALE, _MUL, _RECIP = range(6)


def _compile(e: Expr, env: dict[Symbol, int], nodes: list[tuple], memo: dict) -> int:
    """Append the nodes of ``e`` to ``nodes`` as (kind, operand ids, constant)
    and return the id of its root; operands always precede their users."""
    got = memo.get(e)
    if got is not None:
        return got

    def node(kind, ops=(), const=None) -> int:
        nodes.append((kind, ops, const))
        return len(nodes) - 1

    if isinstance(e, sx.Const):
        out = 0 if e.value == 0 else node(_CONST, const=e.value)
    elif isinstance(e, sx.Sym):
        out = env[e.symbol]
    elif isinstance(e, sx.Add):
        out = node(_ADD, tuple(_compile(t, env, nodes, memo) for t in e.terms))
    elif isinstance(e, sx.Mul):
        factors = list(e.factors)
        scale = factors.pop(0).value if isinstance(factors[0], sx.Const) else None
        operands = [_compile(f, env, nodes, memo) for f in factors]
        if not operands:
            out = node(_CONST, const=scale)
        else:
            out = operands[0]
            for x in operands[1:]:
                out = node(_MUL, (out, x))
            if scale is not None:
                out = node(_SCALE, (out,), scale)
    elif isinstance(e, sx.Pow):
        k = abs(e.exponent)
        out, sq = None, _compile(e.base, env, nodes, memo)
        while k:
            if k & 1:
                out = sq if out is None else node(_MUL, (out, sq))
            k >>= 1
            if k:
                sq = node(_MUL, (sq, sq))
        if e.exponent < 0:
            out = node(_RECIP, (out,))
    else:
        raise NonRationalExpr(f"transcendental node {sx.to_string(e)}")
    memo[e] = out
    return out


class _Tape:
    """F and h compiled into a flat tape.  Node 0 is the constant 0, nodes
    1..n_z the z leaves, the next q the input jets, then the other constants.
    The other nodes (add, scale by a constant, binary mul, reciprocal) are
    numbered by depth; one kind at one depth forms a wave, a contiguous range
    whose operands all come earlier, evaluated by one numpy expression."""

    def __init__(self, A: AugmentedSystem):
        n_z, q = A.n_z, len(A.model.known_inputs)
        self.n_z, self.q = n_z, q
        nodes: list[tuple] = [(_CONST, (), Fraction(0))] + [(_LEAF, (), None)] * (n_z + q)
        env = {s: 1 + l for l, s in enumerate(A.z)}
        env.update({spec.symbol: 1 + n_z + i
                    for i, spec in enumerate(A.model.known_inputs)})
        memo: dict[Expr, int] = {}
        F = [(1 + l, _compile(Fl, env, nodes, memo))
             for l, Fl in enumerate(A.F) if Fl is not sx.ZERO]
        h = [_compile(hi, env, nodes, memo) for hi in A.outputs]

        depth = []
        for _, ops, _ in nodes:
            depth.append(1 + max(depth[o] for o in ops) if ops else 0)
        lead = 1 + n_z + q

        def wave_of(o):
            return depth[o], nodes[o][0]

        order = list(range(lead)) + sorted(range(lead, len(nodes)),
                                           key=lambda o: (wave_of(o), o))
        new = {old: i for i, old in enumerate(order)}
        self.size = len(order)
        self.consts: list[tuple[int, Fraction]] = []
        self.waves: list[tuple] = []  # (kind, lo, hi, operand ids, constants)
        lo = lead
        for (_, kind), olds in groupby(order[lead:], key=wave_of):
            group = [nodes[o] for o in olds]
            hi = lo + len(group)
            if kind == _CONST:
                self.consts += [(lo + n, c) for n, (_, _, c) in enumerate(group)]
            else:
                ops = np.zeros((hi - lo, max(len(o) for _, o, _ in group)), dtype=np.intp)
                for n, (_, o, _) in enumerate(group):
                    ops[n, :len(o)] = [new[x] for x in o]  # adds padded with node 0
                if kind != _ADD:
                    ops = ops.T if kind == _MUL else ops[:, 0]
                self.waves.append((kind, lo, hi, ops, [c for _, _, c in group]))
            lo = hi
        self.z_leaves = np.array([l for l, _ in F], dtype=np.intp)
        self.z_rhs = np.array([new[f] for _, f in F], dtype=np.intp)
        self.h = np.array([new[x] for x in h], dtype=np.intp)


class _Sweep:
    """Value and tangent series of every tape node over a batch of runs.

    V[k, node, run] is coefficient k of the node's series and
    T[k, node, run, l] its derivative with respect to z0_l; T[0] of z leaf l
    is e_l, so the tangents of z are S.  The arrays hold only the orders
    reached so far, doubling up to the cap.
    """

    def __init__(self, tape: _Tape, primes, order: int):
        self.tape = tape
        self.order = order
        B, n_z = len(primes), tape.n_z
        self.P = np.array(primes, dtype=np.int64)
        held = min(order + 1, 4)
        self.V = np.zeros((held, tape.size, B), dtype=np.int64)
        self.T = np.zeros((held, tape.size, B, n_z), dtype=np.int64)
        leaves = np.arange(n_z)
        self.T[0, 1 + leaves, :, leaves] = 1
        self.jets = np.zeros((order + 1, tape.q, B), dtype=np.int64)
        # inv[j - 1, run] = 1/j, the integration factor of order j.
        self.inv = np.array([[pow(j, -1, p) for p in primes] for j in range(1, order + 1)],
                            dtype=np.int64).reshape(order, B)
        self.scales = {w: np.zeros((hi - lo, B), dtype=np.int64)
                       for w, (kind, lo, hi, _, _) in enumerate(tape.waves) if kind == _SCALE}
        # Constants mod each prime; a prime that divides a denominator fails
        # every run on it, at every attempt.
        self.bad: dict[int, str] = {}
        for b, p in enumerate(primes):
            try:
                for i, c in tape.consts:
                    self.V[0, i, b] = sx.const_mod_p(c, p)
                for w, s in self.scales.items():
                    s[:, b] = [sx.const_mod_p(c, p) for c in tape.waves[w][4]]
            except DivisionByZeroModP as exc:
                self.bad[b] = str(exc)

    def set_point(self, run: int, z0, u_series) -> None:
        """Initial state and input jets of one run (jets are zero past their order)."""
        n_z, p = self.tape.n_z, int(self.P[run])
        self.V[0, 1:1 + n_z, run] = [v % p for v in z0]
        self.jets[:, :, run] = 0
        for i, series in enumerate(u_series):
            coeffs = series.coeffs[:self.order + 1]
            self.jets[:len(coeffs), i, run] = [v % p for v in coeffs]

    def _hold(self, k: int) -> None:
        """Make room for order k."""
        held = len(self.V)
        if k < held:
            return
        n = min(self.order + 1, 2 * held)
        for name in ("V", "T"):
            old = getattr(self, name)
            grown = np.zeros((n,) + old.shape[1:], dtype=np.int64)
            grown[:held] = old
            setattr(self, name, grown)

    def advance(self, k: int) -> dict[int, str]:
        """Coefficient k of the z leaves (z' = F, from order k - 1), then of
        every other node.  At k = 0, returns the runs whose point makes a
        denominator vanish, with the reason; their values are not meaningful."""
        self._hold(k)
        V, T, P = self.V, self.T, self.P
        Pt = P[:, None]
        n_z = self.tape.n_z
        V[k, 1 + n_z:1 + n_z + self.tape.q] = self.jets[k]
        if k:
            zl, f = self.tape.z_leaves, self.tape.z_rhs
            V[k, zl] = V[k - 1, f] * self.inv[k - 1] % P
            T[k, zl] = T[k - 1, f] * self.inv[k - 1][:, None] % Pt
        failed = dict(self.bad) if k == 0 else {}
        for w, (kind, lo, hi, ops, _) in enumerate(self.tape.waves):
            if kind == _ADD:
                V[k, lo:hi] = V[k][ops].sum(1) % P
                T[k, lo:hi] = T[k][ops].sum(1) % Pt
            elif kind == _SCALE:
                s = self.scales[w]
                V[k, lo:hi] = V[k, ops] * s % P
                T[k, lo:hi] = T[k, ops] * s[..., None] % Pt
            elif kind == _MUL:
                ia, ib = ops
                a, b = V[:k + 1, ia], V[k::-1, ib]
                V[k, lo:hi] = (a * b % P).sum(0) % P
                T[k, lo:hi] = ((a[..., None] * T[k::-1, ib] % Pt).sum(0)
                               + (T[:k + 1, ia] * b[..., None] % Pt).sum(0)) % Pt
            elif k == 0:  # reciprocal: c_0 = 1/a_0, T(c)_0 = -T(a)_0 / a_0^2
                a0 = V[0, ops]
                for run in np.flatnonzero((a0 == 0).any(0)):
                    failed.setdefault(int(run), "denominator series has zero constant term")
                inv = np.array([[pow(int(v), -1, int(p)) if v else 0
                                 for v, p in zip(row, P)] for row in a0], dtype=np.int64)
                V[0, lo:hi] = inv
                T[0, lo:hi] = -(inv * inv % P)[..., None] * T[0, ops] % Pt
            else:  # reciprocal: from sum_j a_j c_(k-j) = 0 and its tangent
                a, inv0 = V[1:k + 1, ops], V[0, lo:hi]
                V[k, lo:hi] = -inv0 * ((a * V[k - 1::-1, lo:hi] % P).sum(0) % P) % P
                t = ((T[:k + 1, ops] * V[k::-1, lo:hi][..., None] % Pt).sum(0)
                     + (a[..., None] * T[k - 1::-1, lo:hi] % Pt).sum(0)) % Pt
                T[k, lo:hi] = -inv0[..., None] * t % Pt
        return failed


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


def series_solve(A: AugmentedSystem, z0, u_series, order: int, p: int, *,
                 deadline: float | None = None) -> SeriesSolution:
    """Solve z' = F(z, u), z(0) = z0 and S' = (dF/dz) S, S(0) = I through
    the given truncation order, exactly over F_p: the sweep of one run, with
    S read from the tangents of z.  Raises DivisionByZeroModP when a
    denominator of F or h vanishes at t = 0."""
    n_z = A.n_z
    z0 = tuple(v % p for v in z0)
    if len(z0) != n_z:
        raise ValueError("initial point has wrong dimension")
    sw = _Sweep(_Tape(A), [p], order)
    sw.set_point(0, z0, u_series)
    for k in range(order + 1):
        _check_deadline(deadline)
        failed = sw.advance(k)
        if failed:
            raise DivisionByZeroModP(failed[0])

    z = sw.V[:, 1:1 + n_z, 0].T.tolist()
    S = sw.T[:, 1:1 + n_z, 0].transpose(1, 2, 0).tolist()
    return SeriesSolution(tuple(TruncSeries(c, p) for c in z),
                          tuple(tuple(TruncSeries(c, p) for c in row) for row in S),
                          tuple(u_series), z0, p, order)


def output_jacobian(sol: SeriesSolution, A: AugmentedSystem) -> list[list[int]]:
    """Rows d(coeff_j of y_i)/dz0 for j = 0..N (j outer, i inner).

    Each row is coefficient j of (dh_i/dz)(z(t), u(t)) . S(t).  Evaluated
    eagerly over TruncSeries, independent of the ``_Sweep``'s h-node
    tangents that analyze_ffprob reads these rows from block by block, so
    tests can compare the two.
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


@dataclass
class _Run:
    """One (prime, trial) run: its point, rows, echelon form and stop rule."""
    cfg: TrialConfig
    trial: int
    attempt: int = 0
    z0: list[int] = field(default_factory=list)
    u_series: list[TruncSeries] = field(default_factory=list)
    rows: list[list[int]] = field(default_factory=list)
    echelon: _linalg.Echelon | None = None
    stop: str | None = None


def _start(A: AugmentedSystem, sw: _Sweep, runs: list[_Run]) -> None:
    """Order 0 of every run.  A run whose point makes a denominator of F or h
    vanish at t = 0 moves to its next attempt, and order 0 is redone; the
    other runs keep their points."""
    todo = range(len(runs))
    last: dict[int, str] = {}
    while todo:
        for b in todo:
            run = runs[b]
            if run.attempt == run.cfg.retries:
                raise RetriesExhausted(
                    f"all {run.cfg.retries} random specializations hit a vanishing "
                    f"denominator mod {run.cfg.prime}: {last.get(b)}")
            run.z0, run.u_series = _draw_trial(A, run.cfg, run.trial, run.attempt)
            sw.set_point(b, run.z0, run.u_series)
        failed = sw.advance(0)
        todo = sorted(failed)
        for b in todo:
            runs[b].attempt += 1
            last[b] = failed[b]


def _sweep_runs(A: AugmentedSystem, runs: list[_Run], order: int,
                deadline: float | None = None) -> None:
    """Grow every run's output Jacobian one block per series order, all runs
    in one sweep.  Block k is the order-k tangent of the h nodes.  A run stops
    when its rank reaches n_z (full_rank), when a block k > 0 leaves it
    unchanged (saturation), or at block ``order`` (order_exhausted); the
    sweep ends when every run has stopped."""
    n_z = A.n_z
    tape = _Tape(A)
    sw = _Sweep(tape, [run.cfg.prime for run in runs], order)
    for run in runs:
        run.echelon = _linalg.Echelon(n_z, run.cfg.prime)
    for k in range(order + 1):
        _check_deadline(deadline)
        if k == 0:
            _start(A, sw, runs)
        else:
            sw.advance(k)
        blocks = sw.T[k, tape.h]
        for b, run in enumerate(runs):
            if run.stop is not None:
                continue
            before = run.echelon.rank
            run.rows += blocks[:, b].tolist()
            r = run.echelon.extend(blocks[:, b])
            if r == n_z:
                run.stop = "full_rank"
            elif k > 0 and r == before:
                run.stop = "saturation"
        if all(run.stop is not None for run in runs):
            return
    for run in runs:
        run.stop = run.stop or "order_exhausted"


def analyze_ffprob(md: ModelDef, opts: FfprobOptions | None = None) -> AnalysisReport:
    """Rank analysis from random finite-field series solutions.

    Every (prime, trial) run grows the series order one block at a time and
    stops at full rank, at the first block that does not raise its rank, or
    at the order cap; one sweep per order advances all runs.  The aggregated
    rank is the max over all runs; an entry is identifiable when its column
    is independent of the others (deleting it drops the rank by one) in
    every run that reaches that rank.  Per-prime ranks are reported so that
    prime-dependent rank drops are visible.
    """
    opts = opts or FfprobOptions()
    if opts.trials < 1:
        raise ValueError("trials must be >= 1")
    if not opts.primes:
        raise ValueError("at least one prime is required")
    t0 = time.perf_counter()
    _require_rational(md)
    A = augment(md)
    n_z = A.n_z
    order = opts.order if opts.order is not None else max(n_z - 1, 1)

    cfgs = [TrialConfig(prime=p, seed=opts.seed, order=order, retries=opts.retries)
            for p in opts.primes]
    runs = [_Run(cfg, trial) for cfg in cfgs for trial in range(opts.trials)]
    _sweep_runs(A, runs, order, opts.deadline)

    per_prime = {str(p): [run.echelon.rank for run in runs[i * opts.trials:(i + 1) * opts.trials]]
                 for i, p in enumerate(opts.primes)}
    trial_results = [(run.echelon.rank, run.echelon.independent_columns()) for run in runs]
    rank = max(r for r, _ in trial_results)
    identifiable = [all(independent[j] for r, independent in trial_results if r == rank)
                    for j in range(n_z)]
    verdict_map = {s: verdict_for(s.kind.value, identifiable[j]) for j, s in enumerate(A.z)}
    if rank == n_z:
        stop_reason = "full_rank"
    elif all(run.stop == "saturation" for run in runs):
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
