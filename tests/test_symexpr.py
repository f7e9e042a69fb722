import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from identiscope import lie_orc, symexpr as sx
from identiscope.bench import Options, analyze, corpus_dir
from identiscope.errors import (DivisionByZero, DivisionByZeroModP, IdentiscopeError,
                                NonRationalExpr, RetriesExhausted)
from identiscope.ffprob import DEFAULT_PRIMES
from identiscope.model import augment, load_model, parse_model, print_model

import oracles

P = 2147483647

X = sx.state("x")
Y = sx.state("y")
TH = sx.param("th")
xx, yy, th = X, Y, TH


def rand_point(rng, p=P):
    return {X: rng.randrange(1, p), Y: rng.randrange(1, p), TH: rng.randrange(1, p)}


# --------------------------------------------------------------------------
# canonical form
# --------------------------------------------------------------------------

def _construct(e, kids):
    """What the smart constructor of e's kind returns for e's constant,
    symbol, exponent or function name and the children ``kids``."""
    if isinstance(e, sx.Add):
        return sx.add(*kids)
    if isinstance(e, sx.Mul):
        return sx.mul(*kids)
    if isinstance(e, sx.Pow):
        return sx.pow_(kids[0], e.exponent)
    if isinstance(e, sx.Func):
        return sx.func(e.fname, kids[0])
    if isinstance(e, sx.Symbol):
        return sx.symbol(e.name, e.kind, e.base, e.order)
    return sx.const(e.value)


def _canonical(raw):
    """The canonical expression of a raw tree, one built with the node
    classes as plain data: a fold through the smart constructors."""
    return _construct(raw, [_canonical(c) for c in sx.children(raw)])


def test_simplify_additive_identity():
    raw = sx.Add((X, sx.Const(0)))
    assert _canonical(raw) is xx
    assert sx.add(2 * xx, -xx) is xx


def test_simplify_constant_folding():
    raw = sx.Mul((sx.Const(Fraction(2, 4)), X, sx.Const(1)))
    assert _canonical(raw) is sx.mul(sx.const(Fraction(1, 2)), xx)
    assert sx.cos(0) is sx.ONE


def test_simplify_merges_powers():
    e = sx.mul(xx, sx.pow_(xx, 2))
    assert e is sx.pow_(xx, 3)
    # value check via independent mod-p evaluation at x = 3
    lhs = oracles.eval_plain_mod_p(sx.Mul((X, sx.Pow(X, 2))), {X: 3}, P)
    rhs = sx.eval_mod_p(e, {X: 3}, P)
    assert lhs == rhs


def test_simplify_idempotent_on_examples():
    x, y = X, Y
    samples = [
        sx.Add((x, sx.Const(0), sx.Add((y, sx.Const(2))))),
        sx.Mul((sx.Const(3), sx.Pow(x, 2), sx.Mul((x, y)))),
        sx.Pow(sx.Pow(x, 2), 3),
        sx.Func("ln", sx.Mul((x, sx.Const(1)))),
    ]
    for raw in samples:
        once = _canonical(raw)
        assert _canonical(once) is once


def test_pow_distributes_and_collapses():
    assert sx.pow_(sx.mul(xx, yy), 2) == sx.mul(sx.pow_(xx, 2), sx.pow_(yy, 2))
    assert sx.pow_(sx.pow_(xx, 2), 3) == sx.pow_(xx, 6)
    assert sx.pow_(xx, 0) == sx.ONE
    assert sx.pow_(0, 3) is sx.ZERO


def test_div_by_zero_constant_rejected():
    with pytest.raises(DivisionByZero):
        sx.div(xx, sx.ZERO)
    with pytest.raises(DivisionByZero):
        sx.pow_(sx.ZERO, -1)


# --------------------------------------------------------------------------
# differentiate
# --------------------------------------------------------------------------

def test_derivative_product_with_constant():
    assert sx.differentiate(sx.mul(xx, th), X) == th


def test_derivative_ln():
    assert sx.differentiate(sx.ln(xx), X) == sx.div(sx.ONE, xx)


def test_derivative_quotient_against_dual_numbers():
    e = sx.div(xx, sx.add(th, xx))
    d = sx.differentiate(e, TH)
    point = {X: Fraction(2), TH: Fraction(3)}
    _, expected = oracles.eval_dual_rational(e, point, TH)
    assert expected == Fraction(-2, 25)
    assert oracles.eval_rational(d, point) == expected


def test_derivative_of_symbol_free_expression_is_zero():
    assert sx.differentiate(sx.const(5), X) == sx.ZERO
    assert sx.differentiate(yy, X) == sx.ZERO


def test_transcendental_derivatives_by_finite_differences():
    rng = random.Random(7)
    es = [
        sx.ln(sx.add(xx, sx.const(2))),
        sx.exp(sx.mul(sx.const(Fraction(1, 3)), xx)),
        sx.sin(sx.mul(xx, sx.const(2))),
        sx.mul(sx.cos(xx), sx.exp(xx)),
        sx.ln(sx.add(sx.pow_(xx, 2), sx.ONE)),
        sx.sin(sx.cos(xx)),
    ]
    h = Fraction(1, 10**5)
    for e in es:
        d = sx.differentiate(e, X)
        for _ in range(3):
            x0 = Fraction(rng.randrange(1, 200), 100)
            hi = oracles.eval_rational(e, {X: x0 + h})
            lo = oracles.eval_rational(e, {X: x0 - h})
            fd = (hi - lo) / (2 * float(h))
            exact = oracles.eval_rational(d, {X: x0})
            assert abs(fd - exact) <= 1e-6


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def test_eval_mod_p_quotient():
    assert sx.eval_mod_p(sx.div(xx, th), {X: 6, TH: 3}, 7) == 2


def test_eval_mod_p_square():
    assert sx.eval_mod_p(sx.pow_(sx.add(xx, th), 2), {X: 1, TH: 1}, 5) == 4


def test_eval_mod_p_vanishing_denominator():
    e = sx.div(sx.ONE, sx.add(xx, sx.const(-2)))
    for p in (7, 101, P):
        with pytest.raises(DivisionByZeroModP):
            sx.eval_mod_p(e, {X: 2}, p)


def test_eval_mod_p_rejects_transcendental():
    with pytest.raises(NonRationalExpr):
        sx.eval_mod_p(sx.ln(xx), {X: 3}, 7)


def test_eval_mod_p_reads_a_transcendental_node_from_the_point():
    assert sx.eval_mod_p(sx.ln(xx) + xx, {X: 3, sx.ln(xx): 5}, 7) == 1


def test_eval_rational_examples():
    assert oracles.eval_rational(sx.ln(sx.ONE), {}) == 0
    assert oracles.eval_rational(sx.add(sx.const(Fraction(1, 3)), sx.const(Fraction(1, 6))), {}) \
        == Fraction(1, 2)
    assert oracles.eval_rational(sx.add(sx.exp(sx.ZERO), sx.sin(sx.ZERO)), {}) == 1


# --------------------------------------------------------------------------
# identity and interning
# --------------------------------------------------------------------------

def test_shash_values_are_fixed():
    # structural_order breaks ties with these digests and the symbolic
    # engine tags transcendental values with them: a change would reorder
    # printed forms, digests and error messages (canonical forms keep their
    # children in intern serial order) and redraw the residues of every
    # non-rational model.
    pinned = [
        (sx.const(Fraction(-3, 2)), "55d382bb0d2a2473f4d3c5dc0f51a9b7"),
        (xx, "f6f6ab82326fef64cd618cbebdc341e1"),
        (sx.pow_(xx, -2), "89d630c41468ca19550068667f152c8f"),
        (sx.exp(th * xx), "742019f47512ecf97a68b39536e35ecb"),
        (sx.ln(xx + yy), "17b89cb9cc3a9f2f15f67ba3e458b66b"),
        (3 * xx * yy ** 2, "bfdf30904a06004f0b55736bf6cb5698"),
        (xx + 2 * yy + 1, "604435b2b82d672e409f7feeabe0e935"),
    ]
    assert [sx.to_string(e) for e, _ in pinned] == [
        "-3/2", "x", "1/x^2", "exp(th*x)", "ln(x + y)", "3*x*y^2", "1 + x + 2*y"]
    for e, want in pinned:
        assert e.shash.hex() == want


def test_raw_tree_equals_its_canonical_twin():
    # A raw tree is plain data: it is never its canonical twin, though it
    # has the twin's digest and text, and folding it through the smart
    # constructors gives the twin.
    raw = sx.Mul((X, sx.Pow(Y, 2)))
    canon = xx * yy ** 2
    assert raw != canon and raw not in {canon}
    assert raw.shash == canon.shash and sx.to_string(raw) == sx.to_string(canon)
    assert _canonical(raw) is canon
    assert _canonical(raw) is not xx * yy ** 3


def _reversed_raw(e):
    """A raw copy of e, constants too, whose every sum and product lists
    its children in reverse; a symbol is kept."""
    kids = tuple(_reversed_raw(c) for c in reversed(sx.children(e)))
    if isinstance(e, (sx.Add, sx.Mul)):
        return type(e)(kids)
    if isinstance(e, sx.Pow):
        return sx.Pow(kids[0], e.exponent)
    if isinstance(e, sx.Func):
        return sx.Func(e.fname, kids[0])
    return sx.Const(e.value) if isinstance(e, sx.Const) else e


@pytest.mark.parametrize("build", [
    lambda x, y, t: 3 * x * y ** 2 * sx.exp(t),
    lambda x, y, t: x + 2 * y + sx.ln(t) + 1,
    lambda x, y, t: sx.add(x * y, sx.mul(-1, y, t), sx.div(1, x + t)),
], ids=["mul", "add", "nested"])
def test_raw_node_in_any_child_order_is_its_canonical_twin(build):
    # Children are stored in intern-serial order; the constructors given
    # them in any other order return the same node, and a raw copy that
    # lists them in reverse, its own children raw and reversed too, has the
    # same digest and text and folds to that node.
    canon = build(X, Y, TH)
    kids = sx.children(canon)
    for order in [kids[i:] + kids[:i] for i in range(1, len(kids))] + [kids[::-1]]:
        assert _construct(canon, order) is canon
    twin = _reversed_raw(canon)
    assert twin is not canon
    assert twin.shash == canon.shash
    assert sx.to_string(twin) == sx.to_string(canon)
    assert _canonical(twin) is canon
    assert _construct(canon, kids[1:] + kids[1:2]) is not canon  # one child twice, one missing


def test_structural_hash_separates_small_integers():
    # hash(-1) == hash(-2) in Python; the table must still tell -1 from -2,
    # x^-1 from x^-2 and -x*y from -2*x*y.
    nodes = [sx.const(n) for n in range(-20, 21)]
    nodes += [sx.const(Fraction(n, 3)) for n in (-2, -1, 1, 2)]
    nodes += [sx.pow_(xx, k) for k in range(-20, 21) if k not in (0, 1)]
    nodes += [sx.mul(n, xx, yy) for n in (-2, -1, 2)]
    assert len(nodes) == 87
    assert len(set(map(id, nodes))) == len(nodes)


def test_a_variable_is_one_interned_node():
    assert sx.state("x") is X and sx.symbol("x", sx.SymbolKind.STATE) is X
    assert sx.known_input("u").derivative(2) is sx.known_input("u", 2)
    assert sx.known_input("u").derivative(0) is sx.known_input("u")
    assert sx.state("x") is not sx.param("x")
    assert sx.known_input("u", 2).name == "u''" and sx.known_input("u", 4).name == "u^(4)"
    with pytest.raises(ValueError, match="not an input symbol"):
        X.derivative(1)


def test_constructors_reject_a_node_that_no_constructor_interned():
    raw = sx.Mul((X, Y))
    leaf = sx.Symbol("x", sx.SymbolKind.STATE, "x", 0)
    for build in (lambda: sx.add(raw, xx), lambda: sx.mul(yy, raw), lambda: sx.pow_(raw, 2),
                  lambda: sx.ln(raw), lambda: raw + 1, lambda: sx.eval_mod_p(raw, {X: 1, Y: 2}, P),
                  lambda: sx.add(leaf, xx), lambda: sx.mul(yy, leaf),
                  lambda: sx.eval_mod_p(leaf, {X: 1}, P)):
        with pytest.raises(TypeError, match="not built by a smart constructor"):
            build()


@pytest.mark.parametrize("build, error, text", [
    (lambda: sx.func("tan", xx), ValueError, "unsupported function 'tan'"),
    (lambda: sx.symbol("w", sx.SymbolKind.UNKNOWN_INPUT, order=-1), ValueError,
     "derivative order must be nonnegative"),
    (lambda: sx.add(xx, "a"), TypeError, "cannot use str as an expression"),
    (lambda: sx.pow_(xx, 1.5), TypeError, "exponent must be an integer"),
    (lambda: sx.eval_mod_p(xx, {}, 7), KeyError, "no value for symbol x"),
])
def test_library_rejects_bad_input_with_its_text(build, error, text):
    with pytest.raises(error) as exc:
        build()
    assert exc.value.args == (text,)


def test_reflected_operators_build_the_canonical_node():
    assert 3 + xx is sx.add(xx, 3)
    assert 3 - xx is sx.add(3, sx.mul(-1, xx))


def test_rebuilding_an_expression_builds_no_node(monkeypatch):
    A = augment(load_model(corpus_dir() / "gene_p53.idm"))

    def level3():
        phi, memo = A.outputs[0], {}
        for _ in range(3):
            phi = lie_orc.extended_lie_derivative(phi, A, memo)
        return phi

    built = oracles.record_builds(monkeypatch)
    first = level3()
    n = len(built)
    assert n > 0
    # While the nodes of the first walk live, a second one finds them all.
    assert level3() is first
    assert len(built) == n


def test_expression_built_before_clear_caches_equals_its_rebuild():
    def build():
        x, y, t = X, Y, TH
        return sx.div(sx.ln(x * y + t), 3 * x ** 2 + 1)

    before = build()
    sx.clear_caches()  # a no-op
    after = build()
    assert after is before
    # Like terms and like factors still merge with the held node.
    assert sx.add(before, after) is sx.mul(2, after)
    assert sx.mul(before, after) is sx.pow_(after, 2)
    # Once nothing holds it, the node is freed and a rebuild is a new node
    # with the same digest.
    digest, serial = before.shash, before._serial
    del before, after
    again = build()
    assert again._serial > serial and again.shash == digest


def test_analysis_leaves_only_the_models_nodes_in_the_table():
    md = load_model(corpus_dir() / "gene_p53.idm")
    before = set(sx._INTERN.values())
    first = next(sx._SERIALS)
    lie_orc.analyze_symbolic(md)
    assert next(sx._SERIALS) - first > 500  # the nodes the analysis built
    outlived = len(set(sx._INTERN.values()) - before)  # a count: a set diff reports slowly
    assert outlived == 0


# At p = 2 every residue is 1, so both denominators vanish at every point
# and the RetriesExhausted message names whichever the rows read first.
_TWO_POLES = "model two_poles\nstates x\nparams a b c d\nddt x = -a*x\n" \
    "output y = x/(a + b) + x/(c + d)\n"


def _models(names):
    return [load_model(corpus_dir() / f"{name}.idm") for name in names] + [parse_model(_TWO_POLES)]


def _order_free_view(names):
    """What a run shows of each model: its printed text, the digest of every
    node of its first Lie levels (the Func nodes' digests tag their
    residues), both engines' reports or failure messages, and two_poles'
    RetriesExhausted message at p = 2."""
    view = []
    for md in _models(names):
        A = augment(md)
        cache = lie_orc.LieCache(A)
        cache.ensure_level(2)
        funcs, digests, stack = {}, [], [e for level in cache.lies for e in level]
        while stack:
            e = stack.pop()
            digests.append(e.shash)
            if isinstance(e, sx.Func):
                funcs[sx.to_string(e)] = e.shash
            stack.extend(sx.structural_order(sx.children(e)))
        reports = []
        for engine in ("symbolic", "ffprob"):
            try:
                rep = analyze(md, engine, Options(seed=0, primes=DEFAULT_PRIMES))
                reports.append(rep.to_dict(include_timing=False))
            except IdentiscopeError as exc:
                reports.append(str(exc))
        view.append((print_model(md), funcs, digests, reports))
    with pytest.raises(RetriesExhausted) as info:
        lie_orc.analyze_symbolic(parse_model(_TWO_POLES), lie_orc.SymbolicOptions(primes=(2,)))
    view.append(str(info.value))
    return view


def _model_exprs(names):
    return [e for md in _models(names)
            for e in list(md.dynamics.values()) + [h for _, h in md.outputs]]


def _child_digests(exprs):
    return [[c.shash for c in sx.children(e)] for e in exprs]


def test_intern_serial_order_never_shows():
    # Children are kept in the order their nodes were first interned.  Fill
    # the table in another order than a fresh run does (gene_p53's levels
    # 0-3 first, then every model expression rebuilt with its children in
    # reverse), and the text, digests, reports and messages are still those
    # of a fresh run.  The table is weak, so the rebuilt nodes and the
    # LieCache are held until the second view is taken, and the models'
    # own nodes are dropped before the rebuild.
    names = ("toggle_b", "sirs_forced", "hiv2", "competition")
    exprs = _model_exprs(names)
    raws = [_reversed_raw(e) for e in exprs]
    fresh_order = _child_digests(exprs)
    del exprs
    fresh = _order_free_view(names)
    cache = lie_orc.LieCache(augment(load_model(corpus_dir() / "gene_p53.idm")))
    cache.ensure_level(3)
    rebuilt = [_canonical(r) for r in raws]
    assert _child_digests(rebuilt) != fresh_order
    assert _child_digests(_model_exprs(names)) == _child_digests(rebuilt)
    assert len(sx._INTERN) > 300
    assert _order_free_view(names) == fresh


@pytest.mark.parametrize("n", [0, 1, -1, 2, -2, 10**30, -(10**30) - 7])
@pytest.mark.parametrize("int_first", [True, False])
def test_int_constant_is_the_fraction_constant(n, int_first):
    n += int_first  # a large value is new to the table on either path
    first, second = (n, Fraction(n)) if int_first else (Fraction(n), n)
    c = sx.const(first)
    assert sx.const(second) is c
    assert type(c.value) is Fraction and c.value == n


# Bases of the product-rule cases: a Symbol, a Func and an Add, each canonical.
_BASES = (xx, yy, th, sx.add(xx, th), sx.exp(yy))
_COEFFS = (1, -1, 2, Fraction(-3, 2), Fraction(1, 2))


@st.composite
def _products(draw, bases=_BASES):
    """A canonical product of a constant and powers of distinct bases."""
    chosen = draw(st.lists(st.sampled_from(bases), max_size=len(bases), unique=True))
    return sx.mul(draw(st.sampled_from(_COEFFS)),
                  *(sx.pow_(b, draw(st.integers(-3, 3))) for b in chosen))


def _built_term(fs, i, df, where):
    # _product_term returns a product as an unbuilt (coefficient, core) pair.
    term = sx._product_term(fs, i, df, where)
    return sx._term_node(*term) if type(term) is tuple else term


def _check_product_terms(node, df, product_first):
    # Each product-rule term, once built, is the node mul gives, and neither
    # way of building it builds a node the other does not.
    fs = node.factors
    where = sx._base_positions(fs)
    for i in range(len(fs)):
        with pytest.MonkeyPatch.context() as mp:
            built = oracles.record_builds(mp)
            if product_first:
                got = _built_term(fs, i, df, where)
                n = len(built)
                want = sx.mul(*fs[:i], df, *fs[i + 1:])
            else:
                want = sx.mul(*fs[:i], df, *fs[i + 1:])
                n = len(built)
                got = _built_term(fs, i, df, where)
        assert got is want, (node, i, df)
        assert len(built) == n


@pytest.mark.parametrize("node, df", [
    # Leading constants; x's exponents sum to 0 and y's to 1, or, where x or
    # y is the removed factor, df's power of it is inserted.
    (sx.mul(3, xx, yy ** 2, sx.exp(yy)), sx.mul(-2, xx ** -1, yy ** -1, th)),
    (sx.mul(Fraction(1, 2), xx, yy), sx.mul(2, xx)),  # the constants fold to 1
    (sx.mul(xx, sx.add(xx, th)), sx.add(xx, th)),     # an Add base shared
    (sx.mul(xx, yy), yy),
    (sx.mul(xx, yy ** -1), sx.ONE),
])
def test_product_term_is_the_mul_node(node, df):
    _check_product_terms(node, df, True)


@settings(max_examples=300, deadline=None)
@given(_products(), st.one_of(_products(), st.sampled_from(_BASES)), st.booleans())
def test_product_term_is_the_mul_node_for_random_products(node, df, product_first):
    assume(isinstance(node, sx.Mul) and df is not sx.ZERO)
    _check_product_terms(node, df, product_first)


def test_digest_of_a_deep_tree():
    e = xx
    for _ in range(5000):
        e = sx.exp(e)
    assert len(e.shash) == 16


def test_is_rational_expr():
    assert sx.is_rational_expr(sx.div(xx, sx.add(th, xx)))
    assert not sx.is_rational_expr(sx.ln(xx))
    assert sx.is_rational_expr(sx.pow_(xx, 3))


# --------------------------------------------------------------------------
# property tests
# --------------------------------------------------------------------------

SYMS = (X, Y, TH)


def _rand_raw_expr(rng, depth):
    """Random *raw* rational expression tree (no smart constructors)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return sx.Const(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)))
        return rng.choice(SYMS)
    kind = rng.randrange(4)
    if kind == 0:
        return sx.Add(tuple(_rand_raw_expr(rng, depth - 1)
                            for _ in range(rng.randrange(2, 4))))
    if kind == 1:
        return sx.Mul(tuple(_rand_raw_expr(rng, depth - 1)
                            for _ in range(rng.randrange(2, 4))))
    if kind == 2:
        return sx.Pow(_rand_raw_expr(rng, depth - 1), rng.choice((-2, -1, 2, 3)))
    return sx.Add((_rand_raw_expr(rng, depth - 1), sx.Const(rng.randrange(-3, 4))))


def _canonical_or_discard(raw):
    # Trees that fold to 0^(-k) are rejected by pow_ (division by the zero
    # constant); they are not interesting for these properties.
    try:
        return _canonical(raw)
    except DivisionByZero:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_simplify_preserves_value_mod_p(seed):
    rng = random.Random(seed)
    raw = _rand_raw_expr(rng, 3)
    simp = _canonical_or_discard(raw)
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 200:
        attempts += 1
        point = rand_point(rng)
        try:
            want = oracles.eval_plain_mod_p(raw, point, P)
        except ZeroDivisionError:
            continue  # resample: the raw tree hit a vanishing denominator
        got = sx.eval_mod_p(simp, point, P)
        assert got == want
        checked += 1
    assert checked > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_simplify_idempotent(seed):
    rng = random.Random(seed)
    raw = _rand_raw_expr(rng, 3)
    once = _canonical_or_discard(raw)
    assert _canonical(once) is once


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_intern_table_holds_each_structure_once(seed):
    # Every live node in the table is what its smart constructor returns
    # from its own children, so no structure is held twice.
    rng = random.Random(seed)
    e = _canonical_or_discard(_rand_raw_expr(rng, 3))
    d = sx.differentiate(sx.ln(e), rng.choice(SYMS))
    sx.to_string(d)
    nodes = list(sx._INTERN.values())
    assert e in nodes and d in nodes
    for n in nodes:
        assert _construct(n, sx.children(n)) is n


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(SYMS))
def test_differentiate_matches_dual_numbers_mod_p(seed, wrt):
    rng = random.Random(seed)
    e = _canonical_or_discard(_rand_raw_expr(rng, 3))
    d = sx.differentiate(e, wrt)
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 200:
        attempts += 1
        point = rand_point(rng)
        try:
            _, want = oracles.eval_dual_mod_p(e, point, wrt, P)
        except (ZeroDivisionError, ValueError):
            continue
        try:
            got = sx.eval_mod_p(d, point, P)
        except DivisionByZeroModP:
            continue  # derivative denominator degenerate at this point
        assert got == want
        checked += 1
    assert checked > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_derivative_matches_dual_numbers_mod_p(seed):
    # derivative(e, rate) = sum_s de/ds * rate(s); each rate is ZERO, a
    # constant or a small expression over the same symbols.
    rng = random.Random(seed)
    e = _canonical_or_discard(_rand_raw_expr(rng, 3))
    rates = {}
    for s in SYMS:
        kind = rng.randrange(3)
        rates[s] = (sx.ZERO if kind == 0
                    else sx.const(rng.randrange(-5, 6)) if kind == 1
                    else _canonical_or_discard(_rand_raw_expr(rng, 1)))
    d = sx.derivative(e, rates.__getitem__, {})
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 200:
        attempts += 1
        point = rand_point(rng)
        try:
            want = sum(oracles.eval_dual_mod_p(e, point, s, P)[1]
                       * oracles.eval_plain_mod_p(rates[s], point, P) for s in SYMS) % P
        except (ZeroDivisionError, ValueError):
            continue
        try:
            got = sx.eval_mod_p(d, point, P)
        except DivisionByZeroModP:
            continue  # derivative denominator degenerate at this point
        assert got == want
        checked += 1
    assert checked > 0


def test_derivative_memo_reuses_shared_subtrees():
    memo = {}
    s = xx * yy + th
    rate = {X: sx.ONE, Y: sx.ZERO, TH: sx.ZERO}.__getitem__
    first = sx.derivative(sx.ln(s), rate, memo)
    assert memo[s] == yy
    n = len(memo)
    second = sx.derivative(s ** 2 + sx.ln(s), rate, memo)
    assert len(memo) == n + 2  # only s^2 and the new sum are new nodes
    assert second == sx.add(sx.mul(2, s, yy), first)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_to_string_reparses_to_same_expression(seed):
    from identiscope.model import parse_model

    rng = random.Random(seed)
    e = _canonical_or_discard(_rand_raw_expr(rng, 3))
    text = (
        "model roundtrip\nstates x y\nparams th\n"
        "ddt x = 0\nddt y = 0\n"
        f"output y1 = {sx.to_string(e)}\n"
    )
    md = parse_model(text)
    assert md.outputs[0][1] is e
