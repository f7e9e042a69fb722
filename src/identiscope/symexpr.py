"""Immutable symbolic expression kernel.

Expressions are hash-consed trees over exact rational constants and typed
symbols (states, parameters, input derivatives, time).  Supported node
kinds: rational constant, symbol, n-ary sum, n-ary product, integer power,
and the unary functions ln/exp/sin/cos.  Quotients are represented as
products with negative integer powers; the printer renders them back with
a '/'.

Canonical form is structural: constants folded, nested sums/products
flattened, like terms and like factors merged, children sorted by a
deterministic key.  No polynomial expansion is ever performed — value-level
correctness is enforced by evaluation, and expansion can blow up.

All constants are exact (arbitrary-precision rationals).  Floating point
appears only in ``eval_rational`` for transcendental nodes, which exists
for finite-difference test oracles and never feeds rank decisions.

Expressions are immutable values: safe to share between threads, usable as
dict keys.  Construction through the module-level smart constructors (or
the arithmetic operators) yields interned canonical nodes; building nodes
directly through the class constructors is allowed and ``simplify`` brings
such raw trees to canonical form.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from fractions import Fraction
from hashlib import blake2b

from .errors import DivisionByZero, DivisionByZeroModP, NonRationalExpr


class SymbolKind(enum.Enum):
    STATE = "state"
    PARAM = "parameter"
    KNOWN_INPUT = "known_input"
    UNKNOWN_INPUT = "unknown_input"
    TIME = "time"


def _deriv_name(base: str, order: int) -> str:
    if order == 0:
        return base
    if order <= 3:
        return base + "'" * order
    return f"{base}^({order})"


class Symbol:
    """A named variable with a fixed kind.

    Input symbols additionally carry a derivative order: ``u''`` is the
    order-2 derivative symbol of the known input ``u``.  Names are unique
    within a model and fixed at creation.
    """

    __slots__ = ("name", "kind", "base", "order", "_h")

    def __init__(self, name: str, kind: SymbolKind, base: str | None = None, order: int = 0):
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        self.name = name
        self.kind = kind
        self.base = base if base is not None else name
        self.order = order
        self._h = hash((name, kind, self.base, order))

    def __hash__(self):
        return self._h

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Symbol)
            and self.name == other.name
            and self.kind is other.kind
            and self.base == other.base
            and self.order == other.order
        )

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.kind.value})"

    def derivative(self, order: int) -> "Symbol":
        """The same input, differentiated ``order`` more times."""
        if self.kind not in (SymbolKind.KNOWN_INPUT, SymbolKind.UNKNOWN_INPUT):
            raise ValueError(f"{self.name} is not an input symbol")
        j = self.order + order
        return Symbol(_deriv_name(self.base, j), self.kind, self.base, j)


def state(name: str) -> Symbol:
    return Symbol(name, SymbolKind.STATE)


def param(name: str) -> Symbol:
    return Symbol(name, SymbolKind.PARAM)


def known_input(base: str, order: int = 0) -> Symbol:
    return Symbol(_deriv_name(base, order), SymbolKind.KNOWN_INPUT, base, order)


def unknown_input(base: str, order: int = 0) -> Symbol:
    return Symbol(_deriv_name(base, order), SymbolKind.UNKNOWN_INPUT, base, order)


TIME = Symbol("t", SymbolKind.TIME)

FUNC_NAMES = ("ln", "exp", "sin", "cos")


# --------------------------------------------------------------------------
# Node classes
# --------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes.

    Structural identity is decided by a 128-bit content digest; smart
    constructors intern nodes so equal subtrees are usually the same object.
    """

    __slots__ = ("_shash", "_hash", "_free", "_rat", "_skey", "_canonical")

    def _init_caches(self):
        self._shash = None
        self._hash = None
        self._free = None
        self._rat = None
        self._skey = None
        self._canonical = False

    def _digest(self) -> bytes:
        raise NotImplementedError

    @property
    def shash(self) -> bytes:
        h = self._shash
        if h is None:
            h = self._digest()
            self._shash = h
        return h

    def __hash__(self):
        h = self._hash
        if h is None:
            h = int.from_bytes(self.shash[:8], "big", signed=True)
            self._hash = h
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return type(self) is type(other) and self.shash == other.shash

    def __repr__(self):
        return to_string(self)

    # Arithmetic sugar; coerces ints and Fractions.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, mul(NEG_ONE, _coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), mul(NEG_ONE, self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, k):
        return pow_(self, k)

    def __neg__(self):
        return mul(NEG_ONE, self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self._init_caches()
        self.value = value if isinstance(value, Fraction) else Fraction(value)

    def _digest(self):
        v = self.value
        return blake2b(b"C%d/%d" % (v.numerator, v.denominator), digest_size=16).digest()


class Sym(Expr):
    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol):
        self._init_caches()
        self.symbol = symbol

    def _digest(self):
        s = self.symbol
        payload = f"S{s.kind.value}|{s.name}|{s.base}|{s.order}".encode()
        return blake2b(payload, digest_size=16).digest()


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self._init_caches()
        self.terms = tuple(terms)

    def _digest(self):
        return blake2b(b"A" + b"".join(t.shash for t in self.terms), digest_size=16).digest()


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self._init_caches()
        self.factors = tuple(factors)

    def _digest(self):
        return blake2b(b"M" + b"".join(f.shash for f in self.factors), digest_size=16).digest()


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self._init_caches()
        self.base = base
        self.exponent = int(exponent)

    def _digest(self):
        return blake2b(b"P%d:" % self.exponent + self.base.shash, digest_size=16).digest()


class Func(Expr):
    __slots__ = ("fname", "arg")

    def __init__(self, fname: str, arg: Expr):
        if fname not in FUNC_NAMES:
            raise ValueError(f"unsupported function {fname!r}")
        self._init_caches()
        self.fname = fname
        self.arg = arg

    def _digest(self):
        return blake2b(b"F" + self.fname.encode() + b":" + self.arg.shash, digest_size=16).digest()


# --------------------------------------------------------------------------
# Interning and smart constructors
# --------------------------------------------------------------------------

_INTERN: dict[bytes, Expr] = {}


def _intern(node: Expr) -> Expr:
    h = node.shash
    got = _INTERN.get(h)
    if got is not None:
        return got
    node._canonical = True
    _INTERN[h] = node
    return node


def const(value) -> Const:
    return _intern(Const(value))


def sym(s: Symbol) -> Sym:
    return _intern(Sym(s))


ZERO = const(0)
ONE = const(1)
NEG_ONE = const(-1)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return const(x)
    if isinstance(x, Symbol):
        return sym(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def _coeff_core(term: Expr) -> tuple[Fraction, Expr]:
    # Split a canonical term into (rational coefficient, symbolic core).
    if isinstance(term, Const):
        return term.value, ONE
    if isinstance(term, Mul) and isinstance(term.factors[0], Const):
        rest = term.factors[1:]
        core = rest[0] if len(rest) == 1 else _intern(Mul(rest))
        return term.factors[0].value, core
    return Fraction(1), term


def _with_coeff(coeff: Fraction, core: Expr) -> Expr:
    if core is ONE:
        return const(coeff)
    if coeff == 1:
        return core
    if isinstance(core, Mul):
        return _intern(Mul((const(coeff),) + core.factors))
    return _intern(Mul((const(coeff), core)))


def add(*terms) -> Expr:
    """Canonical sum: flatten, fold constants, merge like terms, sort."""
    acc: dict[Expr, Fraction] = {}
    cval = Fraction(0)
    stack = [_canon(_coerce(t)) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.terms))
        elif isinstance(t, Const):
            cval += t.value
        else:
            coeff, core = _coeff_core(t)
            acc[core] = acc.get(core, Fraction(0)) + coeff
    out = [_with_coeff(c, core) for core, c in acc.items() if c != 0]
    out.sort(key=_sort_key)
    if cval != 0:
        out.insert(0, const(cval))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return _intern(Add(out))


def mul(*factors) -> Expr:
    """Canonical product: flatten, fold constants, merge same-base powers, sort."""
    powers: dict[Expr, int] = {}
    order: list[Expr] = []
    cval = Fraction(1)
    stack = [_canon(_coerce(f)) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Const):
            cval *= f.value
        elif isinstance(f, Pow):
            if f.base not in powers:
                order.append(f.base)
            powers[f.base] = powers.get(f.base, 0) + f.exponent
        else:
            if f not in powers:
                order.append(f)
            powers[f] = powers.get(f, 0) + 1
    if cval == 0:
        return ZERO
    out = []
    for base in order:
        e = powers[base]
        if e == 0:
            continue
        out.append(base if e == 1 else _pow_node(base, e))
    out.sort(key=_sort_key)
    if not out:
        return const(cval)
    if cval != 1:
        out.insert(0, const(cval))
    if len(out) == 1:
        return out[0]
    return _intern(Mul(out))


def _pow_node(base: Expr, k: int) -> Expr:
    # base is canonical, not Const/Mul/Pow (those are handled by pow_).
    if isinstance(base, (Const, Mul, Pow)):
        return pow_(base, k)
    return _intern(Pow(base, k))


def pow_(base, k: int) -> Expr:
    """Canonical integer power.

    Folds constant bases, collapses nested powers, and distributes over
    products ((x*y)^2 -> x^2*y^2, valid for integer exponents).
    """
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    base = _canon(_coerce(base))
    if k == 0:
        return ONE
    if k == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0:
            if k < 0:
                raise DivisionByZero("0 raised to a negative power")
            return ZERO
        return const(base.value ** k)
    if isinstance(base, Pow):
        return pow_(base.base, base.exponent * k)
    if isinstance(base, Mul):
        return mul(*(pow_(f, k) for f in base.factors))
    return _intern(Pow(base, k))


def div(num, den) -> Expr:
    """Quotient, represented as num * den^-1."""
    den = _canon(_coerce(den))
    if isinstance(den, Const) and den.value == 0:
        raise DivisionByZero("division by the zero constant")
    return mul(num, pow_(den, -1))


def func(fname: str, arg) -> Expr:
    """Unary transcendental node, folding the exact rational special points."""
    arg = _canon(_coerce(arg))
    if isinstance(arg, Const):
        v = arg.value
        if fname == "ln" and v == 1:
            return ZERO
        if fname == "exp" and v == 0:
            return ONE
        if fname == "sin" and v == 0:
            return ZERO
        if fname == "cos" and v == 0:
            return ONE
    return _intern(Func(fname, arg))


def ln(arg) -> Expr:
    return func("ln", arg)


def exp(arg) -> Expr:
    return func("exp", arg)


def sin(arg) -> Expr:
    return func("sin", arg)


def cos(arg) -> Expr:
    return func("cos", arg)


def _canon(e: Expr) -> Expr:
    return e if e._canonical else simplify(e)


def simplify(e: Expr) -> Expr:
    """Canonical form of ``e``; idempotent, value-preserving.

    Smart-constructed expressions are already canonical and returned as-is.
    """
    e = _coerce(e)
    if e._canonical:
        return e
    if isinstance(e, Const):
        return const(e.value)
    if isinstance(e, Sym):
        return sym(e.symbol)
    if isinstance(e, Add):
        return add(*(simplify(t) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(simplify(f) for f in e.factors))
    if isinstance(e, Pow):
        return pow_(simplify(e.base), e.exponent)
    if isinstance(e, Func):
        return func(e.fname, simplify(e.arg))
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# Deterministic ordering
# --------------------------------------------------------------------------

_RANK = {Const: 0, Sym: 1, Pow: 2, Func: 3, Mul: 4, Add: 5}


def _sort_key(e: Expr):
    k = e._skey
    if k is None:
        if isinstance(e, Const):
            local = (str(e.value), "")
        elif isinstance(e, Sym):
            local = (e.symbol.name, "")
        elif isinstance(e, Pow):
            b = e.base
            local = (b.symbol.name if isinstance(b, Sym) else "", str(e.exponent))
        elif isinstance(e, Func):
            local = (e.fname, "")
        else:
            local = ("", "")
        k = (_RANK[type(e)], local, e.shash)
        e._skey = k
    return k


# --------------------------------------------------------------------------
# Queries
# --------------------------------------------------------------------------

def free_symbols(e: Expr) -> frozenset[Symbol]:
    """All symbols occurring in ``e``."""
    f = e._free
    if f is None:
        if isinstance(e, Const):
            f = frozenset()
        elif isinstance(e, Sym):
            f = frozenset((e.symbol,))
        elif isinstance(e, Add):
            f = frozenset().union(*(free_symbols(t) for t in e.terms))
        elif isinstance(e, Mul):
            f = frozenset().union(*(free_symbols(x) for x in e.factors))
        elif isinstance(e, Pow):
            f = free_symbols(e.base)
        else:
            f = free_symbols(e.arg)
        e._free = f
    return f


def is_rational_expr(e: Expr) -> bool:
    """True iff ``e`` contains no transcendental node.

    Power exponents are integers by construction, so this is the only check
    needed for membership in the rational model class.
    """
    r = e._rat
    if r is None:
        if isinstance(e, (Const, Sym)):
            r = True
        elif isinstance(e, Func):
            r = False
        elif isinstance(e, Add):
            r = all(is_rational_expr(t) for t in e.terms)
        elif isinstance(e, Mul):
            r = all(is_rational_expr(f) for f in e.factors)
        else:
            r = is_rational_expr(e.base)
        e._rat = r
    return r


def first_transcendental(e: Expr) -> Expr | None:
    """Leftmost transcendental node, or None if the expression is rational."""
    if is_rational_expr(e):
        return None
    if isinstance(e, Func):
        return e
    if isinstance(e, Add):
        children = e.terms
    elif isinstance(e, Mul):
        children = e.factors
    else:
        children = (e.base,)
    for c in children:
        hit = first_transcendental(c)
        if hit is not None:
            return hit
    return None


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

def derivative(e: Expr, rate: Callable[[Symbol], Expr], memo: dict[Expr, Expr]) -> Expr:
    """Directional derivative of ``e``: the sum over symbols s of
    de/ds * rate(s).

    ``rate`` maps each symbol to its rate of change and returns ZERO for a
    symbol that does not move.  ``memo`` holds the derivative of every node
    walked so far under this same rate; a caller that keeps one memo for a
    fixed rate reuses the derivatives of subtrees shared between calls.
    Factors whose derivative is ZERO are skipped.  The result is canonical.
    """

    def walk(node: Expr) -> Expr:
        d = memo.get(node)
        if d is not None:
            return d
        if isinstance(node, Const):
            d = ZERO
        elif isinstance(node, Sym):
            d = rate(node.symbol)
        elif isinstance(node, Add):
            d = add(*(walk(t) for t in node.terms))
        elif isinstance(node, Mul):
            parts = []
            fs = node.factors
            for i, f in enumerate(fs):
                df = walk(f)
                if df is not ZERO:
                    parts.append(mul(*fs[:i], df, *fs[i + 1:]))
            d = add(*parts)
        else:
            da = walk(node.base if isinstance(node, Pow) else node.arg)
            if da is ZERO:
                d = ZERO
            elif isinstance(node, Pow):
                d = mul(const(node.exponent), pow_(node.base, node.exponent - 1), da)
            elif node.fname == "ln":
                d = div(da, node.arg)
            elif node.fname == "exp":
                d = mul(node, da)
            elif node.fname == "sin":
                d = mul(cos(node.arg), da)
            else:
                d = mul(NEG_ONE, sin(node.arg), da)
        memo[node] = d
        return d

    return walk(_canon(_coerce(e)))


def differentiate(e: Expr, s: Symbol) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``s``.

    All other symbols are treated as independent.  The result is canonical.
    """
    return derivative(e, lambda x: ONE if x == s else ZERO, {})


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def const_mod_p(value: Fraction, p: int) -> int:
    """Residue of a rational constant mod p; DivisionByZeroModP if p divides
    its denominator."""
    den = value.denominator % p
    if den == 0:
        raise DivisionByZeroModP(f"constant {value} has denominator divisible by {p}")
    return value.numerator % p if value.denominator == 1 else value.numerator * pow(den, -1, p) % p


def eval_mod_p(e: Expr, point: dict[Symbol, int], p: int, *, transcendental=None,
               _memo=None) -> int:
    """Exact value of ``e`` at ``point`` in the field of integers mod p.

    ``point`` must cover every free symbol.  Raises DivisionByZeroModP when
    a denominator or negative-power base lands on 0 mod p, NonRationalExpr
    when a transcendental node is reached and no ``transcendental`` handler
    is given.  The handler, when present, maps a whole Func node to a
    residue (used by the rank engine's rationalization table).
    """
    memo = {} if _memo is None else _memo

    def ev(node: Expr) -> int:
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, Const):
            out = const_mod_p(node.value, p)
        elif isinstance(node, Sym):
            try:
                out = point[node.symbol] % p
            except KeyError:
                raise KeyError(f"no value for symbol {node.symbol.name}") from None
        elif isinstance(node, Add):
            out = sum(ev(t) for t in node.terms) % p
        elif isinstance(node, Mul):
            out = 1
            for f in node.factors:
                out = out * ev(f) % p
        elif isinstance(node, Pow):
            b = ev(node.base)
            if b == 0 and node.exponent < 0:
                raise DivisionByZeroModP(f"base of {to_string(node)} is 0 mod {p}")
            out = pow(b, node.exponent, p)
        else:
            if transcendental is None:
                raise NonRationalExpr(f"transcendental node {to_string(node)}")
            out = transcendental(node) % p
        memo[node] = out
        return out

    return ev(_coerce(e))


def eval_rational(e: Expr, point: dict[Symbol, Fraction]):
    """Exact rational value of ``e`` at ``point``.

    Transcendental nodes are evaluated in floating point (machine
    precision), which makes the result a float; intended for test oracles
    only.  Raises DivisionByZero on vanishing denominators.
    """
    memo: dict[Expr, object] = {}

    def ev(node: Expr):
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, Const):
            out = node.value
        elif isinstance(node, Sym):
            out = point[node.symbol]
        elif isinstance(node, Add):
            out = sum(ev(t) for t in node.terms)
        elif isinstance(node, Mul):
            out = 1
            for f in node.factors:
                out = out * ev(f)
        elif isinstance(node, Pow):
            b = ev(node.base)
            if b == 0 and node.exponent < 0:
                raise DivisionByZero(f"base of {to_string(node)} evaluates to 0")
            out = b ** node.exponent
        else:
            a = float(ev(node.arg))
            out = {"ln": math.log, "exp": math.exp, "sin": math.sin, "cos": math.cos}[node.fname](a)
        memo[node] = out
        return out

    return ev(_coerce(e))


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

def _atom_str(e: Expr) -> str:
    # Render with parentheses unless the node is atomic.
    s = to_string(e)
    if isinstance(e, (Sym, Func)) or (isinstance(e, Const) and e.value >= 0 and e.value.denominator == 1):
        return s
    if isinstance(e, Pow) and e.exponent > 0:
        return s
    return f"({s})"


def _product_str(coeff: Fraction, factors: tuple[Expr, ...]) -> str:
    num_parts: list[str] = []
    den_parts: list[str] = []
    if abs(coeff.numerator) != 1 or not factors:
        num_parts.append(str(abs(coeff.numerator)))
    if coeff.denominator != 1:
        den_parts.append(str(coeff.denominator))
    for f in factors:
        if isinstance(f, Pow) and f.exponent < 0:
            inv = f.base if f.exponent == -1 else _intern(Pow(f.base, -f.exponent))
            den_parts.append(_atom_str(inv))
        else:
            num_parts.append(_atom_str(f))
    if not num_parts:
        num_parts.append("1")
    out = "*".join(num_parts)
    if den_parts:
        out += "/" + (den_parts[0] if len(den_parts) == 1 and "*" not in den_parts[0] else "(" + "*".join(den_parts) + ")")
    if coeff < 0:
        out = "-" + out
    return out


def to_string(e: Expr) -> str:
    """Deterministic text form; re-parses to the same canonical expression."""
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Sym):
        return e.symbol.name
    if isinstance(e, Func):
        return f"{e.fname}({to_string(e.arg)})"
    if isinstance(e, Pow):
        if e.exponent < 0:
            return _product_str(Fraction(1), (e,))
        return f"{_atom_str(e.base)}^{e.exponent}"
    if isinstance(e, Mul):
        coeff, rest = (e.factors[0].value, e.factors[1:]) if isinstance(e.factors[0], Const) \
            else (Fraction(1), e.factors)
        return _product_str(coeff, rest)
    parts = []
    for i, t in enumerate(e.terms):
        s = to_string(t)
        if i == 0:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(" - " + s[1:])
        else:
            parts.append(" + " + s)
    return "".join(parts)


def clear_caches():
    """Drop the intern table (frees memory between runs)."""
    _INTERN.clear()
    for e in (ZERO, ONE, NEG_ONE):
        _INTERN[e.shash] = e
