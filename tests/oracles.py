"""Independent oracles used to check the expression kernel and the engines.

No engine, CLI command or benchmark path calls anything here.  The helpers
fall into two groups:

* Read node structure only, so that a bug in the kernel's differentiate,
  constructor or eval paths cannot hide itself: ``eval_dual_rational``,
  ``eval_dual_mod_p``, ``eval_plain_mod_p``, ``eval_rational``,
  ``free_symbols``, and the ``TruncSeries`` evaluator
  ``eval_expr_series``.  ``rank_mod_p`` and ``deleted_column_ranks`` read
  no expressions at all: they are the brute-force elimination that
  ``_linalg.Echelons`` is checked against.
* Go through the kernel's smart constructors, ``sx.differentiate`` or
  ``sx.eval_mod_p``, or through an engine, to check one route against
  another: ``eager_derivative`` (``sx.derivative`` with every product-rule
  term built by ``sx.mul`` and every sum by ``sx.add``),
  ``gradient_rows`` (symbolic gradients by ``sx.differentiate``),
  ``series_solve`` (ffprob's ``_Sweep`` driven as one run),
  ``output_jacobian`` and ``check_residuals`` (``sx.differentiate`` plus
  eager ``TruncSeries`` evaluation, against the sweep's tangents), and
  ``cross_check_lie`` (series coefficients against ``lie_orc``'s Lie
  derivatives by ``sx.eval_mod_p``).

``record_rows`` makes ``_linalg.Echelons.extend`` keep the rows that each
echelon form receives, which ``rows_of`` returns, and ``record_builds``
lists the nodes that the smart constructors build.  ``load_corpus`` reads
the packaged corpus and its fixtures as ``CorpusEntry`` records for the
tests.
"""

import json
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from identiscope import _linalg, _rng
from identiscope import symexpr as sx
from identiscope.bench import check_settings, corpus_dir, fixtures_dir
from identiscope.errors import DivisionByZero, DivisionByZeroModP, NonRationalExpr, RetriesExhausted
from identiscope.ffprob import RETRIES, _require_rational, _Sweep, _Tape
from identiscope.lie_orc import LieCache
from identiscope.model import CONSTANT, augment, load_model


# --------------------------------------------------------------------------
# Expression evaluation from node structure
# --------------------------------------------------------------------------

def eval_dual_rational(e, point, wrt):
    """Forward-mode dual-number evaluation over exact rationals.

    Returns (value, d value / d wrt) without using symbolic differentiation.
    Only rational nodes are supported.
    """
    if isinstance(e, sx.Const):
        return e.value, Fraction(0)
    if isinstance(e, sx.Symbol):
        return point[e], Fraction(1 if e is wrt else 0)
    if isinstance(e, sx.Add):
        v, d = Fraction(0), Fraction(0)
        for t in e.terms:
            tv, td = eval_dual_rational(t, point, wrt)
            v, d = v + tv, d + td
        return v, d
    if isinstance(e, sx.Mul):
        v, d = Fraction(1), Fraction(0)
        for f in e.factors:
            fv, fd = eval_dual_rational(f, point, wrt)
            v, d = v * fv, d * fv + v * fd  # note: uses pre-update v
        return v, d
    if isinstance(e, sx.Pow):
        bv, bd = eval_dual_rational(e.base, point, wrt)
        k = e.exponent
        return bv ** k, k * bv ** (k - 1) * bd
    raise ValueError(f"non-rational node {e!r}")


def eval_dual_mod_p(e, point, wrt, p):
    """Forward-mode dual-number evaluation over F_p; raises ZeroDivisionError
    (via pow) when a negative power hits a zero base."""
    if isinstance(e, sx.Const):
        v = e.value
        return v.numerator * pow(v.denominator % p, -1, p) % p, 0
    if isinstance(e, sx.Symbol):
        return point[e] % p, 1 if e is wrt else 0
    if isinstance(e, sx.Add):
        v, d = 0, 0
        for t in e.terms:
            tv, td = eval_dual_mod_p(t, point, wrt, p)
            v, d = (v + tv) % p, (d + td) % p
        return v, d
    if isinstance(e, sx.Mul):
        v, d = 1, 0
        for f in e.factors:
            fv, fd = eval_dual_mod_p(f, point, wrt, p)
            v, d = v * fv % p, (d * fv + v * fd) % p
        return v, d
    if isinstance(e, sx.Pow):
        bv, bd = eval_dual_mod_p(e.base, point, wrt, p)
        k = e.exponent
        val = pow(bv, k, p)
        dval = k % p * pow(bv, k - 1, p) % p * bd % p
        return val, dval
    raise ValueError(f"non-rational node {e!r}")


def eval_plain_mod_p(e, point, p):
    """Reference scalar evaluator over F_p, structured independently of
    symexpr.eval_mod_p (plain recursion, no memo, no special cases)."""
    if isinstance(e, sx.Const):
        v = e.value
        return v.numerator * pow(v.denominator % p, -1, p) % p
    if isinstance(e, sx.Symbol):
        return point[e] % p
    if isinstance(e, sx.Add):
        return sum(eval_plain_mod_p(t, point, p) for t in e.terms) % p
    if isinstance(e, sx.Mul):
        out = 1
        for f in e.factors:
            out = out * eval_plain_mod_p(f, point, p) % p
        return out
    if isinstance(e, sx.Pow):
        return pow(eval_plain_mod_p(e.base, point, p), e.exponent, p)
    raise ValueError(f"non-rational node {e!r}")


def eval_rational(e, point):
    """Exact rational value of ``e`` at ``point``.

    Transcendental nodes are evaluated in floating point (machine
    precision), which makes the result a float.  Raises DivisionByZero on
    vanishing denominators.
    """
    memo = {}

    def ev(node):
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, sx.Const):
            out = node.value
        elif isinstance(node, sx.Symbol):
            out = point[node]
        elif isinstance(node, sx.Add):
            out = sum(ev(t) for t in node.terms)
        elif isinstance(node, sx.Mul):
            out = 1
            for f in node.factors:
                out = out * ev(f)
        elif isinstance(node, sx.Pow):
            b = ev(node.base)
            if b == 0 and node.exponent < 0:
                raise DivisionByZero(f"base of {sx.to_string(node)} evaluates to 0")
            out = b ** node.exponent
        else:
            a = float(ev(node.arg))
            out = {"ln": math.log, "exp": math.exp, "sin": math.sin, "cos": math.cos}[node.fname](a)
        memo[node] = out
        return out

    return ev(e)


def free_symbols(e, memo=None):
    """All symbols occurring in ``e``.  ``memo`` maps nodes to their sets;
    pass one dict to many calls, since Lie DAGs share most subtrees."""
    memo = {} if memo is None else memo
    got = memo.get(e)
    if got is None:
        if isinstance(e, sx.Symbol):
            got = frozenset((e,))
        else:
            got = frozenset().union(*(free_symbols(c, memo) for c in sx.children(e)))
        memo[e] = got
    return got


def eager_derivative(e, rate, memo):
    """``sx.derivative(e, rate, memo)`` by a walk that builds every node it
    meets: each product-rule term by ``sx.mul`` and the derivative of each
    sum and product by ``sx.add``.  ``memo`` maps nodes to their derivatives,
    all of them nodes."""
    def walk(node):
        d = memo.get(node)
        if d is not None:
            return d
        if isinstance(node, sx.Const):
            d = sx.ZERO
        elif isinstance(node, sx.Symbol):
            d = rate(node)
        elif isinstance(node, sx.Add):
            d = sx.add(*map(walk, node.terms))
        elif isinstance(node, sx.Mul):
            fs = node.factors
            d = sx.add(*(sx.mul(*fs[:i], df, *fs[i + 1:])
                         for i, df in enumerate(map(walk, fs)) if df is not sx.ZERO))
        else:
            da = walk(node.base if isinstance(node, sx.Pow) else node.arg)
            if da is sx.ZERO:
                d = sx.ZERO
            elif isinstance(node, sx.Pow):
                d = sx.mul(node.exponent, sx.pow_(node.base, node.exponent - 1), da)
            elif node.fname == "ln":
                d = sx.div(da, node.arg)
            elif node.fname == "exp":
                d = sx.mul(node, da)
            elif node.fname == "sin":
                d = sx.mul(sx.cos(node.arg), da)
            else:
                d = sx.mul(-1, sx.sin(node.arg), da)
        memo[node] = d
        return d

    return walk(e)


# --------------------------------------------------------------------------
# Brute-force elimination over F_p
# --------------------------------------------------------------------------

def rank_mod_p(rows, p):
    """Exact rank over F_p by forward elimination, one pivot at a time."""
    if not len(rows):
        return 0
    a = np.array(rows, dtype=np.int64) % p
    n_rows, n_cols = a.shape
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[r + 1:, c]
        if col.any():
            a[r + 1:] = (a[r + 1:] - col[:, None] * a[r][None, :]) % p
        r += 1
    return r


def deleted_column_ranks(rows, p):
    """Rank over F_p of the matrix with column j removed, for every j.

    Brute force: one elimination per column, independent of the single
    reduced echelon form that the engines classify columns with.
    """
    n_cols = len(rows[0]) if len(rows) else 0
    return [rank_mod_p([list(row[:j]) + list(row[j + 1:]) for row in rows], p)
            for j in range(n_cols)]


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

    def __init__(self, coeffs, p):
        self.coeffs = tuple(c % p for c in coeffs)
        self.p = p
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @classmethod
    def constant(cls, value, order, p):
        return cls((value,) + (0,) * order, p)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def _align(self, other):
        if self.p != other.p or len(self.coeffs) != len(other.coeffs):
            raise ValueError("series mismatch (modulus or order)")

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.p == other.p
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)}, p={self.p})"

    def __add__(self, other):
        self._align(other)
        p = self.p
        return TruncSeries([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)], p)

    def __mul__(self, other):
        self._align(other)
        p = self.p
        a, b = self.coeffs, other.coeffs
        return TruncSeries([sum(a[i] * b[k - i] for i in range(k + 1)) % p
                            for k in range(len(a))], p)

    def inverse(self):
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

    def __pow__(self, k):
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

    def differentiate(self):
        p = self.p
        c = self.coeffs
        if len(c) == 1:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncSeries([k * c[k] % p for k in range(1, len(c))], p)

    def integrate(self, constant):
        p = self.p
        out = [constant % p]
        for k, a in enumerate(self.coeffs):
            out.append(a * pow(k + 1, -1, p) % p)
        return TruncSeries(out, p)


def eval_expr_series(e, env, order, p, _memo=None):
    """Eager evaluation of a rational expression over TruncSeries arithmetic,
    independent of the ``_Sweep`` and its h-node tangents."""
    memo = {} if _memo is None else _memo

    def ev(node):
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, sx.Const):
            out = TruncSeries.constant(sx.const_mod_p(node.value, p), order, p)
        elif isinstance(node, sx.Symbol):
            out = env[node]
        elif isinstance(node, sx.Add):
            out = ev(node.terms[0])
            for t in node.terms[1:]:
                out = out + ev(t)
        elif isinstance(node, sx.Mul):
            out = ev(node.factors[0])
            for f in node.factors[1:]:
                out = out * ev(f)
        elif isinstance(node, sx.Pow):
            out = ev(node.base) ** node.exponent
        else:
            raise NonRationalExpr(f"transcendental node {sx.to_string(node)}")
        memo[node] = out
        return out

    return ev(e)


# --------------------------------------------------------------------------
# ffprob's sweep as one run, and the eager routes checked against it
# --------------------------------------------------------------------------

@dataclass
class SeriesSolution:
    """Truncated solution of the augmented ODE plus first sensitivities."""
    z_series: tuple
    S_series: tuple
    u_series: tuple
    z0: tuple
    p: int
    order: int


def series_solve(A, z0, u_series, order, p):
    """Solve z' = F(z, u), z(0) = z0 and S' = (dF/dz) S, S(0) = I through
    the given truncation order, exactly over F_p: ffprob's sweep of one
    run, with S read from the tangents of z.  Raises DivisionByZeroModP
    when a denominator of F or h vanishes at t = 0."""
    n_z = A.n_z
    z0 = tuple(v % p for v in z0)
    if len(z0) != n_z:
        raise ValueError("initial point has wrong dimension")
    sw = _Sweep(_Tape(A), [p], order)
    sw.set_point(0, z0, lambda j: [u.coeffs[j] if j < len(u.coeffs) else 0 for u in u_series])
    zs = []  # order k: the z leaves' values and tangents, as (n_z, 1 + n_z)
    for k in range(order + 1):
        failed = sw.advance(k)
        if failed:
            raise DivisionByZeroModP(failed[0])
        zs.append(sw.at(k)[1:1 + n_z, 0].copy())

    zs = np.array(zs)
    z = zs[..., 0].T.tolist()
    S = zs[..., 1:].transpose(1, 2, 0).tolist()
    return SeriesSolution(tuple(TruncSeries(c, p) for c in z),
                          tuple(tuple(TruncSeries(c, p) for c in row) for row in S),
                          tuple(u_series), z0, p, order)


def jet_coeffs(jet, order):
    """Coefficients 0..order of each input, from a jet function of
    ``ffprob._draw_trial``."""
    return [list(c) for c in zip(*map(jet, range(order + 1)))]


def output_jacobian(sol, A):
    """Rows d(coeff_j of y_i)/dz0 for j = 0..N (j outer, i inner).

    Each row is coefficient j of (dh_i/dz)(z(t), u(t)) . S(t), evaluated
    eagerly over TruncSeries, independent of the ``_Sweep``'s h-node
    tangents that analyze_ffprob reads these rows from block by block.
    """
    p, N = sol.p, sol.order
    env = {s: sol.z_series[i] for i, s in enumerate(A.z)}
    for spec, series in zip(A.model.known_inputs, sol.u_series):
        env[spec.symbol] = series
    memo = {}

    zero = TruncSeries.constant(0, N, p)
    blocks = []
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

    return [[series.coeffs[j] for series in block] for j in range(N + 1) for block in blocks]


def check_residuals(A, z0, u_coeffs, order, p):
    """Assert that the series solution at z0, with the known inputs' jets
    given by their coefficient lists, solves z' = F(z, u) and
    S' = (dF/dz) S with S(0) = I through order - 1.  Each right side is
    evaluated eagerly over TruncSeries, independent of the sweep."""
    name = A.model.name
    sol = series_solve(A, z0, [TruncSeries(c, p) for c in u_coeffs], order, p)
    env = dict(zip(A.z, sol.z_series))
    env.update((spec.symbol, u) for spec, u in zip(A.model.known_inputs, sol.u_series))
    memo = {}
    # z residual: d/dt z_i == F_i(z, u) through order-1
    for i, Fi in enumerate(A.F):
        rhs = (TruncSeries.constant(0, order, p) if Fi is sx.ZERO
               else eval_expr_series(Fi, env, order, p, _memo=memo))
        assert sol.z_series[i].differentiate().coeffs == rhs.coeffs[:order], (name, i)
    # S residual: d/dt S_ij == sum_l dF_i/dz_l * S_lj through order-1
    jrows = []
    for Fi in A.F:
        row = []
        for zl in A.z:
            d = sx.differentiate(Fi, zl)
            row.append(None if d is sx.ZERO else eval_expr_series(d, env, order, p, _memo=memo))
        jrows.append(row)
    zero = TruncSeries.constant(0, order, p)
    for i in range(A.n_z):
        assert sol.S_series[i][i].coeffs[0] == 1, (name, i)
        for j in range(A.n_z):
            acc = zero
            for l in range(A.n_z):
                if jrows[i][l] is not None:
                    acc = acc + jrows[i][l] * sol.S_series[l][j]
            assert sol.S_series[i][j].differentiate().coeffs == acc.coeffs[:order], (name, i, j)


# --------------------------------------------------------------------------
# Symbolic gradient rows, and the coefficient-Lie correspondence
# --------------------------------------------------------------------------

# The rows built so far for each LieCache, kept while the cache lives: a
# test that reads levels 0..k again and again builds each level once.
_GRADIENT_ROWS = weakref.WeakKeyDictionary()


def gradient_rows(cache, k):
    """Symbolic gradient rows of Lie level k: row i holds
    ``sx.differentiate(L^k h_i, z_j)`` for every entry z_j."""
    cache.ensure_level(k)
    grads = _GRADIENT_ROWS.setdefault(cache, [])
    while len(grads) <= k:
        grads.append([[sx.differentiate(phi, zi) for zi in cache.A.z]
                      for phi in cache.lies[len(grads)]])
    return grads[k]


def cross_check_lie(md, order, p, seed=0):
    """Verify k! * coeff_k(y_i) == (L^k h_i)(z0, u-jet) mod p for k <= order.

    The left side comes from ffprob's series solution, the right side from
    lie_orc's symbolic Lie derivatives with input-derivative symbols bound
    to the matching jet coefficients (u^(j) -> j! * coeff_j(u)).  The
    identity holds at every point where no denominator vanishes, so the
    point is drawn here, under its own tag, and redrawn when a denominator
    vanishes.  Returns True iff every comparison holds exactly.
    """
    check_settings((p,))
    _require_rational(md)
    A = augment(md)
    cache = LieCache(A)
    cache.ensure_level(order)

    last = None
    for attempt in range(RETRIES):
        tag = ("xcheck", seed, p, attempt)
        draw = _rng.drawer(tag, p)
        z0 = [draw(s.name) for s in A.z]
        point = dict(zip(A.z, z0))
        env = {}
        for spec in A.model.known_inputs:
            u = spec.symbol
            jet = [draw(f"{u.name}{_rng.SEP}{j}") if j == 0 or spec.mode != CONSTANT else 0
                   for j in range(order + 1)]
            env[u] = TruncSeries(jet, p)
            for j, c in enumerate(jet):
                point[u.derivative(j) if j else u] = math.factorial(j) * c % p
        try:
            sol = series_solve(A, z0, [env[s.symbol] for s in A.model.known_inputs],
                               order, p)
            env.update(zip(A.z, sol.z_series))
            memo = {}
            ys = [eval_expr_series(h, env, order, p, _memo=memo) for h in A.outputs]
            for k in range(order + 1):
                for y, lie in zip(ys, cache.lies[k]):
                    if math.factorial(k) * y.coeffs[k] % p != sx.eval_mod_p(lie, point, p):
                        return False
            return True
        except DivisionByZeroModP as exc:
            last = exc
    raise RetriesExhausted(
        f"all {RETRIES} random specializations hit a vanishing denominator mod {p}: {last}")


# --------------------------------------------------------------------------
# The rows the engines rank
# --------------------------------------------------------------------------

# The rows each set of echelon forms has received, one list per form, kept
# while the set lives.
_RECEIVED = weakref.WeakKeyDictionary()


def record_rows(monkeypatch):
    """Make ``_linalg.Echelons.extend``, which both engines look up at call
    time, record every block of rows it is given."""
    extend = _linalg.Echelons.extend

    def recording(forms, blocks):
        received = _RECEIVED.setdefault(forms, [[] for _ in forms.primes])
        for rows, block in zip(received, blocks):
            rows.extend(np.asarray(block, dtype=np.int64).reshape(-1, forms.B.shape[1]).tolist())
        return extend(forms, blocks)

    monkeypatch.setattr(_linalg.Echelons, "extend", recording)


def rows_of(forms, f=0):
    """The rows that form f of ``forms`` received under ``record_rows``, in
    order."""
    return _RECEIVED[forms][f]


def record_builds(monkeypatch):
    """Make ``sx._intern``, which every smart constructor looks up at call
    time, append each node it builds to the returned list.  The list keeps
    those nodes alive, so none of them leaves the weak intern table and is
    built again while the list is held."""
    built = []
    intern = sx._intern

    def recording(key):
        built.append(intern(key))
        return built[-1]

    monkeypatch.setattr(sx, "_intern", recording)
    return built


# --------------------------------------------------------------------------
# The corpus as test data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    """One benchmark model plus its fixture metadata."""
    name: str
    path: str
    states: int
    params: int
    known_inputs: int
    unknown_inputs: int
    outputs: int
    rational: bool
    contested: bool = False
    expected_verdicts: dict | None = None

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        return (self.states, self.params, self.known_inputs,
                self.unknown_inputs, self.outputs)


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
            states=meta.get("states", md.n),
            params=meta.get("params", md.p),
            known_inputs=meta.get("known_inputs", md.q),
            unknown_inputs=meta.get("unknown_inputs", md.q_w),
            outputs=meta.get("outputs", md.m),
            rational=meta.get("rational", md.is_rational()),
            contested=meta.get("contested", False),
            expected_verdicts=meta.get("verdicts"),
        ))
    return entries
