"""Immutable symbolic expression kernel.

Expressions are hash-consed trees over exact rational constants and typed
symbols (states, parameters, input derivatives, time).  Supported node
kinds: rational constant, symbol, n-ary sum, n-ary product, integer power,
and the unary functions ln/exp/sin/cos.  Quotients are represented as
products with negative integer powers; the printer renders them back with
a '/'.  A symbol node is the variable itself, with its name and kind:
``symbol``, or ``state``, ``param``, ``known_input`` and ``unknown_input``
on top of it, builds it, and a model and its analyses hold that node.

Canonical form is structural: constants folded, nested sums/products
flattened, like terms and like factors merged.  No polynomial expansion is
ever performed — value-level correctness is enforced by evaluation, and
expansion can blow up.

All constants are exact (arbitrary-precision rationals), and evaluation
is exact too: ``eval_mod_p`` computes residues mod p.

Expressions are immutable values, safe to share between threads.  They are
built only by the module-level smart constructors (or the arithmetic
operators), which return canonical nodes; the constructors reject, with
TypeError, a node built through a class constructor.

Identity is the object.  The smart constructors look a node up in the
intern table by its kind and its children (or its constant value, or a
symbol's name, kind, base and order) before they build it, so a canonical
node exists exactly once while anything refers to it, and ``==`` and
``hash`` are those of ``object``.
The table holds its nodes weakly: a node that nothing else refers to is
freed, and leaves the table, with the last reference to it, so no node
outlives the analysis that built it.

A canonical node also gets an intern serial, an int from one process-wide
counter, and the constructors store a sum's terms and a product's factors
in serial order, after a leading constant; that tuple is the node's key in
the table.  That order is cheap but depends on the order in which nodes
were first built, so nothing visible reads it.  Where order shows, in
``to_string``, in the 128-bit blake2b content digest ``Expr.shash`` and in
``first_transcendental``, children are taken in the structural order of
``structural_order``: by kind, then by name and exponent, then by digest.
The digest is computed only where it is read, by that order and by the
rank engine's tags for transcendental nodes.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import weakref
from collections.abc import Callable
from fractions import Fraction

from ._rng import blake2b
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


FUNC_NAMES = ("ln", "exp", "sin", "cos")


# --------------------------------------------------------------------------
# Node classes
# --------------------------------------------------------------------------

_serial = operator.attrgetter("_serial")
_first = operator.itemgetter(0)


class Expr:
    """Base class for expression nodes.

    Nodes are built by the smart constructors, which intern them: a
    canonical node exists once while anything refers to it, so equality
    and hashing are object identity, inherited from ``object``.  Interning
    gives a node its serial, which orders the children of the sums and
    products built after it; a node that no constructor interned has
    serial None.  ``shash`` is a 128-bit blake2b content digest, computed
    only when read: the structural order breaks ties with it, and the rank
    engine names transcendental nodes by it.
    """

    __slots__ = ("_shash", "_rat", "_skey", "_serial", "__weakref__")

    def _init_caches(self):
        self._shash = None
        self._rat = None
        self._skey = None
        self._serial = None

    def _digest(self) -> bytes:
        # Reads the children's digests, which _digest_tree computes first.
        raise NotImplementedError

    @property
    def shash(self) -> bytes:
        h = self._shash
        if h is None:
            h = _digest_tree(self)
        return h

    def __repr__(self):
        return to_string(self)

    # Arithmetic sugar; coerces ints and Fractions.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(NEG_ONE, other))

    def __rsub__(self, other):
        return add(other, mul(NEG_ONE, self))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, k):
        return pow_(self, k)

    def __neg__(self):
        return mul(NEG_ONE, self)


class Const(Expr):
    # _coeff is the value as an int when it is one, else the Fraction: the
    # operand of the constructors' coefficient arithmetic, which then stays
    # in ints for integer constants.
    __slots__ = ("value", "_coeff")

    def __init__(self, value):
        v = value if isinstance(value, Fraction) else Fraction(value)
        self._init_caches()
        self.value = v
        self._coeff = v.numerator if v.denominator == 1 else v

    def _digest(self):
        v = self.value
        return blake2b(b"C%d/%d" % (v.numerator, v.denominator), digest_size=16).digest()


class Symbol(Expr):
    """A variable: a leaf with a name and a fixed kind.

    An input's symbols also carry the input's name, ``base``, and their
    derivative ``order``: ``u''`` is the order-2 derivative symbol of the
    known input ``u``.  Names are unique within a model.
    """

    __slots__ = ("name", "kind", "base", "order")

    def __init__(self, name: str, kind: SymbolKind, base: str, order: int):
        self._init_caches()
        self.name, self.kind, self.base, self.order = name, kind, base, order

    def _digest(self):
        payload = f"S{self.kind.value}|{self.name}|{self.base}|{self.order}".encode()
        return blake2b(payload, digest_size=16).digest()

    def derivative(self, order: int) -> Symbol:
        """The same input, differentiated ``order`` more times."""
        if self.kind not in (SymbolKind.KNOWN_INPUT, SymbolKind.UNKNOWN_INPUT):
            raise ValueError(f"{self.name} is not an input symbol")
        j = self.order + order
        return symbol(_deriv_name(self.base, j), self.kind, self.base, j)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self._init_caches()
        self.terms = tuple(terms)

    def _digest(self):
        return blake2b(b"A" + _joined_digests(self.terms), digest_size=16).digest()


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self._init_caches()
        self.factors = tuple(factors)

    def _digest(self):
        return blake2b(b"M" + _joined_digests(self.factors), digest_size=16).digest()


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self._init_caches()
        self.base = base
        self.exponent = int(exponent)

    def _digest(self):
        return blake2b(b"P%d:" % self.exponent + self.base._shash, digest_size=16).digest()


class Func(Expr):
    __slots__ = ("fname", "arg")

    def __init__(self, fname: str, arg: Expr):
        if fname not in FUNC_NAMES:
            raise ValueError(f"unsupported function {fname!r}")
        self._init_caches()
        self.fname = fname
        self.arg = arg

    def _digest(self):
        return blake2b(b"F" + self.fname.encode() + b":" + self.arg._shash, digest_size=16).digest()


def children(e: Expr) -> tuple[Expr, ...]:
    """An Add's terms, a Mul's factors, a Pow's base or a Func's argument;
    a leaf has none."""
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Func):
        return (e.arg,)
    return ()


def _digest_tree(root: Expr) -> bytes:
    # A new node's children almost always have their digests already.
    try:
        root._shash = root._digest()
        return root._shash
    except TypeError:  # a child's digest is still None
        pass
    # Digests are computed on first read, so a deep tree may have none below
    # its root: compute the missing ones children first, without recursion.
    stack = [root]
    while stack:
        node = stack[-1]
        todo = [c for c in children(node) if c._shash is None]
        if todo:
            stack.extend(todo)
        else:
            stack.pop()
            if node._shash is None:
                node._shash = node._digest()
    return root._shash


# --------------------------------------------------------------------------
# Interning and smart constructors
# --------------------------------------------------------------------------

# Canonical nodes by key: (class, fields), where the fields are a constant's
# value (an int when it is one), a symbol's name, kind, base and order, a
# sum's terms or a product's factors in serial order, a power's base and
# exponent, or a function's name and argument.  Children compare by
# identity, so a lookup runs in C.  The values are weak: a node leaves the
# table when it is freed.  ZERO, ONE, NEG_ONE and TIME stay, so the
# canonical zero and one are those objects.
_INTERN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# The table's own dict of weak references, which ``_node`` reads directly so
# that a lookup stays in C, as ``WeakValueDictionary.get`` reads it.
_REFS: dict = _INTERN.data
# Intern serials, from one process-wide counter that is never reset, so no
# two nodes share one.
_SERIALS = itertools.count()


def _intern(key: tuple) -> Expr:
    """Build and enter the node of a key that is not in the table."""
    node = key[0](*key[1:])
    node._serial = next(_SERIALS)
    _INTERN[key] = node
    return node


def _node(key: tuple) -> Expr:
    # The node of a key whose children are canonical: a Mul's or an Add's
    # at least two, in serial order, a Const only in front; a Pow's base not
    # a Const, Mul or Pow, and its exponent not 0 or 1.
    # A reference whose node is gone reads as absent, as in ``get``.
    ref = _REFS.get(key)
    got = ref() if ref is not None else None
    return got if got is not None else _intern(key)


def const(value) -> Const:
    if type(value) is not int:
        value = value if isinstance(value, Fraction) else Fraction(value)
        if value.denominator == 1:
            value = value.numerator
    return _node((Const, value))


def symbol(name: str, kind: SymbolKind, base: str | None = None, order: int = 0) -> Symbol:
    """The variable of a name and a kind; an input's symbols also name the
    input, ``base`` (default ``name``), and their derivative ``order``."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    return _node((Symbol, name, kind, name if base is None else base, order))


def state(name: str) -> Symbol:
    return symbol(name, SymbolKind.STATE)


def param(name: str) -> Symbol:
    return symbol(name, SymbolKind.PARAM)


def known_input(base: str, order: int = 0) -> Symbol:
    return symbol(_deriv_name(base, order), SymbolKind.KNOWN_INPUT, base, order)


def unknown_input(base: str, order: int = 0) -> Symbol:
    return symbol(_deriv_name(base, order), SymbolKind.UNKNOWN_INPUT, base, order)


ZERO = const(0)
ONE = const(1)
NEG_ONE = const(-1)
TIME = symbol("t", SymbolKind.TIME)


def _canon(x) -> Expr:
    # x as a canonical expression; ints and Fractions are coerced.
    if isinstance(x, Expr):
        if x._serial is None:
            raise TypeError(f"{type(x).__name__} node not built by a smart constructor")
        return x
    if isinstance(x, (int, Fraction)):
        return const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def _fold(consts: list[Const], op) -> Const:
    # The constants folded by op (sum or product); one Const is kept as it is.
    return consts[0] if len(consts) == 1 else const(op(c._coeff for c in consts))


def add(*terms) -> Expr:
    """Canonical sum: flatten, fold constants, merge like terms, order by
    serial.

    A term is merged on its core, the term without its rational
    coefficient: a node, or a tuple of several factors in serial order,
    which need not exist as a node.  A term whose core occurs once is kept
    as it came, and a merged term is built only if its coefficient is not 0.
    """
    return _sum([_canon(t) for t in reversed(terms)])


def _sum(stack: list) -> Expr:
    """``add`` of the terms on ``stack``, the last one first.

    Besides canonical nodes, ``stack`` may hold unbuilt product terms,
    ``_product_term``'s (coefficient, core) pairs, and ``derivative``'s
    pending sums, tuples of such terms and nodes, which are flattened like
    an Add.  A pair is built only if its core occurs once, and a merged core
    only if its coefficient is not 0.
    """
    # core -> [coefficient, the term while its core occurs once]
    acc: dict = {}
    consts: list[Const] = []
    while stack:
        t = stack.pop()
        if type(t) is tuple:
            coeff = t[0]
            if not isinstance(coeff, (int, Fraction)):  # a pending sum
                stack.extend(reversed(t))
                continue
            core, t = t[1], None
        elif isinstance(t, Add):
            stack.extend(reversed(t.terms))
            continue
        elif isinstance(t, Const):
            consts.append(t)
            continue
        elif isinstance(t, Mul):
            fs = t.factors
            if isinstance(fs[0], Const):
                coeff, core = fs[0]._coeff, (fs[1] if len(fs) == 2 else fs[1:])
            else:
                coeff, core = 1, fs
        else:
            coeff, core = 1, t
        got = acc.get(core)
        if got is None:
            acc[core] = [coeff, t]
        else:
            got[0] += coeff
            got[1] = None
    out = []
    for core, (coeff, t) in acc.items():
        if t is None:
            if coeff == 0:
                continue
            t = _term_node(coeff, core)
        out.append(t)
    out.sort(key=_serial)
    if consts:
        c = _fold(consts, sum)
        if c is not ZERO:
            out.insert(0, c)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return _node((Add, tuple(out)))


def _term_node(coeff, core) -> Expr:
    # The term of a nonzero coefficient and a core, split as add splits it.
    if type(core) is not tuple:
        if coeff == 1:
            return core
        core = (core,)
    return _node((Mul, core if coeff == 1 else (const(coeff),) + core))


def mul(*factors) -> Expr:
    """Canonical product: flatten, fold constants, merge same-base powers,
    order by serial.

    A factor whose base occurs once is kept as it came.
    """
    powers: dict[Expr, list] = {}  # base -> [exponent, the factor while the base occurs once]
    consts: list[Const] = []
    stack = [_canon(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
            continue
        if isinstance(f, Const):
            consts.append(f)
            continue
        if isinstance(f, Pow):
            base, e = f.base, f.exponent
        else:
            base, e = f, 1
        got = powers.get(base)
        if got is None:
            powers[base] = [e, f]
        else:
            got[0] += e
            got[1] = None
    c = _fold(consts, math.prod) if consts else ONE
    if c is ZERO:
        return ZERO
    out = []
    for base, (e, f) in powers.items():
        if f is None:
            if e == 0:
                continue
            f = base if e == 1 else _node((Pow, base, e))
        out.append(f)
    out.sort(key=_serial)
    if not out:
        return c
    if c is not ONE:
        out.insert(0, c)
    if len(out) == 1:
        return out[0]
    return _node((Mul, tuple(out)))


def pow_(base, k: int) -> Expr:
    """Canonical integer power.

    Folds constant bases, collapses nested powers, and distributes over
    products ((x*y)^2 -> x^2*y^2, valid for integer exponents).
    """
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    base = _canon(base)
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
    return _node((Pow, base, k))


def div(num, den) -> Expr:
    """Quotient, represented as num * den^-1."""
    den = _canon(den)
    if isinstance(den, Const) and den.value == 0:
        raise DivisionByZero("division by the zero constant")
    return mul(num, pow_(den, -1))


def func(fname: str, arg) -> Expr:
    """Unary transcendental node, folding the exact rational special points."""
    arg = _canon(arg)
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
    return _node((Func, fname, arg))


def ln(arg) -> Expr:
    return func("ln", arg)


def exp(arg) -> Expr:
    return func("exp", arg)


def sin(arg) -> Expr:
    return func("sin", arg)


def cos(arg) -> Expr:
    return func("cos", arg)


def func_factor(node: Func) -> tuple[Expr, int]:
    """(factor, sign) such that d f(a) = sign * factor * da, for a node
    f(a) with f = exp, sin or cos."""
    if node.fname == "exp":
        return node, 1
    if node.fname == "sin":
        return cos(node.arg), 1
    return sin(node.arg), -1


# --------------------------------------------------------------------------
# Structural order
# --------------------------------------------------------------------------

_RANK = {Const: 0, Symbol: 1, Pow: 2, Func: 3, Mul: 4, Add: 5}


def _structural_key(e: Expr) -> tuple:
    # Reads the digest as it is, None while it is not computed.
    k = e._skey
    if k is None:
        if isinstance(e, Const):
            local = (str(e.value), "")
        elif isinstance(e, Symbol):
            local = (e.name, "")
        elif isinstance(e, Pow):
            b = e.base
            local = (b.name if isinstance(b, Symbol) else "", str(e.exponent))
        elif isinstance(e, Func):
            local = (e.fname, "")
        else:
            local = ("", "")
        k = (_RANK[type(e)], local, e._shash)
        if k[2] is not None:
            e._skey = k
    return k


def _sort_key(e: Expr) -> tuple:
    if e._shash is None:
        _digest_tree(e)
    return _structural_key(e)


def _joined_digests(kids: tuple) -> bytes:
    # The children's digests in structural order; a child whose digest is
    # not computed yet raises TypeError, which _digest_tree catches.
    return b"".join(k[2] for k in sorted(map(_structural_key, kids)))


def structural_order(nodes) -> list[Expr]:
    """The nodes in structural order: by kind (constants, symbols, powers,
    functions, products, sums), then by symbol name, exponent or function
    name, then by digest.  It does not depend on the order in which nodes
    were built, so printing, digests and every order that a report or an
    error message can show follow it."""
    return sorted(nodes, key=_sort_key)


# --------------------------------------------------------------------------
# Queries
# --------------------------------------------------------------------------

def is_rational_expr(e: Expr) -> bool:
    """True iff ``e`` contains no transcendental node.

    Power exponents are integers by construction, so this is the only check
    needed for membership in the rational model class.
    """
    r = e._rat
    if r is None:
        r = not isinstance(e, Func) and all(map(is_rational_expr, children(e)))
        e._rat = r
    return r


def first_transcendental(e: Expr) -> Expr | None:
    """Leftmost transcendental node in structural order, or None if the
    expression is rational (a non-rational non-Func has a non-rational child)."""
    if is_rational_expr(e):
        return None
    if isinstance(e, Func):
        return e
    for c in structural_order(children(e)):
        hit = first_transcendental(c)
        if hit is not None:
            return hit


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

# New memo entries between two ``check`` calls of ``derivative``; a_thaliana's
# deepest levels spend 150-180 us per entry, so about 40 ms.
_CHECK_EVERY = 256


def _base_positions(fs: tuple) -> dict[Expr, int]:
    """For the factors of a canonical Mul, the position of each non-constant
    factor by its base."""
    return {(f.base if isinstance(f, Pow) else f): j
            for j, f in enumerate(fs) if not isinstance(f, Const)}


def _product_term(fs: tuple, i: int, df: Expr, where: dict[Expr, int]):
    """``mul(*fs[:i], df, *fs[i + 1:])`` for the factors ``fs`` of a canonical
    Mul and a canonical ``df`` other than ZERO, by merging ``df`` into the
    factors without factor i.

    ``where`` is ``_base_positions(fs)``.  fs is in serial order and its
    bases are distinct, so only ``df``'s constant and factors are new: the
    constant folds into fs's, a factor whose base is in fs adds its exponent
    there, and the others are inserted.  The factors are put in serial order
    again only when one was inserted or changed.

    A term that is a constant or one factor is returned as that node.  A
    product is returned unbuilt, as the (coefficient, core) pair into which
    ``add`` splits its Mul; ``_term_node`` builds ``mul``'s node from it, and
    ``_sum`` does so only if the term survives the like-term merge.  The
    powers of merged bases are built either way.
    """
    out = list(fs)
    out[i] = None
    c = 1  # the coefficient
    if i and isinstance(fs[0], Const):
        c, out[0] = fs[0]._coeff, None
    new = []
    merged = []
    for g in df.factors if isinstance(df, Mul) else (df,):
        if isinstance(g, Const):
            c *= g._coeff
            continue
        base, e = (g.base, g.exponent) if isinstance(g, Pow) else (g, 1)
        j = where.get(base)
        if j is None or j == i:
            new.append(g)
            continue
        f = fs[j]
        out[j] = None
        # Like mul, build the powers in the order that the bases first occur
        # in fs[:i], df, fs[i + 1:].
        merged.append((min(i, j), base, e + (f.exponent if isinstance(f, Pow) else 1)))
    merged.sort(key=_first)
    for _, b, k in merged:
        if k:
            new.append(b if k == 1 else _node((Pow, b, k)))
    out = [f for f in out if f is not None]
    if new:
        out += new
        out.sort(key=_serial)
    if not out:
        return const(c)
    if len(out) > 1:
        return c, tuple(out)
    return out[0] if c == 1 else (c, out[0])


def derivative(e: Expr, rate: Callable[[Symbol], Expr], memo: dict, *,
               check: Callable[[], None] | None = None) -> Expr:
    """Directional derivative of ``e``: the sum over symbols s of
    de/ds * rate(s).

    ``rate`` maps each symbol to its rate of change and returns ZERO for a
    symbol that does not move.  ``memo`` holds the derivative of every node
    walked so far under this same rate; a caller that keeps one memo for a
    fixed rate reuses the derivatives of subtrees shared between calls.
    Factors whose derivative is ZERO are skipped, and each product-rule
    term is merged into its sibling factors (``_product_term``).

    Only the nodes that the result reaches are built.  A product-rule term
    is built only if it survives the merge of like terms.  A product's
    derivative, unless it is one node, stays in the memo as the tuple of its
    terms, which a parent sum flattens; its node is built the first time it
    is read as a node: as a factor, a Pow or Func argument, or the result.
    A memo value may thus be such a tuple, which a caller only passes back.
    The result is canonical.  The walk calls ``check``, if given, every
    ``_CHECK_EVERY`` new memo entries; what it raises stops the walk.
    """

    def node_of(node: Expr) -> Expr:
        # The derivative of node, built if it was a tuple of terms.
        d = walk(node)
        if type(d) is tuple:
            d = memo[node] = _sum(list(reversed(d)))
        return d

    def walk(node: Expr):
        d = memo.get(node)
        if d is not None:
            return d
        if isinstance(node, Const):
            d = ZERO
        elif isinstance(node, Symbol):
            d = rate(node)
        elif isinstance(node, Add):
            parts = [walk(t) for t in node.terms]
            parts.reverse()
            d = _sum(parts)
        elif isinstance(node, Mul):
            parts = []
            fs = node.factors
            where = None
            for i, f in enumerate(fs):
                df = node_of(f)
                if df is not ZERO:
                    if where is None:
                        where = _base_positions(fs)
                    parts.append(_product_term(fs, i, df, where))
            if not parts:
                d = ZERO
            elif len(parts) == 1 and type(parts[0]) is not tuple:
                d = parts[0]
            else:
                d = tuple(parts)
        else:
            da = node_of(node.base if isinstance(node, Pow) else node.arg)
            if da is ZERO:
                d = ZERO
            elif isinstance(node, Pow):
                d = mul(const(node.exponent), pow_(node.base, node.exponent - 1), da)
            elif node.fname == "ln":
                d = div(da, node.arg)
            else:
                factor, sign = func_factor(node)
                d = mul(sign, factor, da)
        memo[node] = d
        if check is not None and len(memo) % _CHECK_EVERY == 0:
            check()
        return d

    try:
        return node_of(_canon(e))
    finally:
        # walk and node_of refer to each other; unbinding them frees the
        # closures, and with them the nodes they reach, without waiting for
        # the cycle collector.
        del walk, node_of


def differentiate(e: Expr, s: Symbol) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``s``.

    All other symbols are treated as independent.  The result is canonical.
    """
    return derivative(e, lambda x: ONE if x is s else ZERO, {})


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


def eval_mod_p(e: Expr, point: dict[Expr, int], p: int, *, _memo=None) -> int:
    """Exact value of ``e`` at ``point`` in the field of integers mod p.

    ``point`` maps every free symbol, and every transcendental (Func) node
    that the evaluation reaches, to its value; a dict subclass whose
    ``__missing__`` computes the value serves as a handler.  Raises
    DivisionByZeroModP when a denominator or negative-power base lands on
    0 mod p, KeyError when a symbol has no value, and NonRationalExpr when
    a transcendental node has none.
    """
    memo = {} if _memo is None else _memo

    def ev(node: Expr) -> int:
        got = memo.get(node)
        if got is not None:
            return got
        if isinstance(node, Const):
            out = const_mod_p(node.value, p)
        elif isinstance(node, (Symbol, Func)):
            try:
                out = point[node] % p
            except KeyError:
                if isinstance(node, Func):
                    raise NonRationalExpr(f"transcendental node {to_string(node)}") from None
                raise KeyError(f"no value for symbol {node.name}") from None
        elif isinstance(node, Add):
            out = sum(ev(t) for t in node.terms) % p
        elif isinstance(node, Mul):
            out = 1
            for f in node.factors:
                out = out * ev(f) % p
        else:  # Pow
            b = ev(node.base)
            if b == 0 and node.exponent < 0:
                raise DivisionByZeroModP(f"base of {to_string(node)} is 0 mod {p}")
            out = pow(b, node.exponent, p)
        memo[node] = out
        return out

    try:
        return ev(_canon(e))
    finally:
        del ev  # ev refers to itself; see derivative


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

def _atom_str(e: Expr) -> str:
    # Render with parentheses unless the node is atomic.
    s = to_string(e)
    if isinstance(e, (Symbol, Func)) or (isinstance(e, Const) and e.value >= 0 and e.value.denominator == 1):
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
            s = _atom_str(f.base)
            den_parts.append(s if f.exponent == -1 else f"{s}^{-f.exponent}")
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
    """Deterministic text form, children in structural order; re-parses to
    the same canonical expression."""
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Func):
        return f"{e.fname}({to_string(e.arg)})"
    if isinstance(e, Pow):
        if e.exponent < 0:
            return _product_str(Fraction(1), (e,))
        return f"{_atom_str(e.base)}^{e.exponent}"
    if isinstance(e, Mul):
        fs = structural_order(e.factors)
        coeff, rest = (fs[0].value, fs[1:]) if isinstance(fs[0], Const) else (Fraction(1), fs)
        return _product_str(coeff, rest)
    parts = []
    for i, t in enumerate(structural_order(e.terms)):
        s = to_string(t)
        if i == 0:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(" - " + s[1:])
        else:
            parts.append(" + " + s)
    return "".join(parts)


def clear_caches():
    """Does nothing.  The intern table holds its nodes weakly, so a node is
    freed with the last reference to it and there is nothing to clear; the
    name stays for callers written when the table had to be emptied."""
