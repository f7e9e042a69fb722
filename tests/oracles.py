"""Independent oracles used to check the expression kernel and the engines.

Everything here except ``check_residuals`` is deliberately written against
the *node structure* of expressions only — no call ever touches
differentiate/simplify/eval paths under test, so a bug in those cannot hide
itself.  ``check_residuals`` checks ffprob's forward-mode sweep against the
eager TruncSeries route.
"""

from fractions import Fraction

from identiscope import symexpr as sx
from identiscope._linalg import rank_mod_p
from identiscope.ffprob import TruncSeries, eval_expr_series, series_solve


def eval_dual_rational(e, point, wrt):
    """Forward-mode dual-number evaluation over exact rationals.

    Returns (value, d value / d wrt) without using symbolic differentiation.
    Only rational nodes are supported.
    """
    if isinstance(e, sx.Const):
        return e.value, Fraction(0)
    if isinstance(e, sx.Sym):
        return point[e.symbol], Fraction(1 if e.symbol == wrt else 0)
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
    if isinstance(e, sx.Sym):
        return point[e.symbol] % p, 1 if e.symbol == wrt else 0
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
    if isinstance(e, sx.Sym):
        return point[e.symbol] % p
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


def deleted_column_ranks(rows, p):
    """Rank over F_p of the matrix with column j removed, for every j.

    Brute force: one elimination per column, independent of the single
    reduced echelon form that the engines classify columns with.
    """
    n_cols = len(rows[0]) if len(rows) else 0
    return [rank_mod_p([list(row[:j]) + list(row[j + 1:]) for row in rows], p)
            for j in range(n_cols)]


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
