"""ODE model definitions, the .idm text format, and system augmentation.

A model file declares states, parameters, known and unknown inputs, one
``ddt`` line per state, at least one ``output``, and optional ``ic`` lines::

    model decay          # '#' starts a comment
    states x
    params k
    ddt x = -k*x
    output y = x

Expressions use + - * / ^INT, the functions ln/exp/sin/cos, parentheses,
and integer or a/b rational literals.  Exponents must be integers; a
fractional exponent is rejected with a pointer to the usual convention of
rounding it to the closest integer.  The time symbol ``t`` is reserved and
may only occur inside sin/cos/exp (time-dependent forcing), which makes
such models non-rational.

``augment`` builds the extended system used by both analysis engines: the
state vector is extended with the parameters (zero dynamics) and, for each
unknown input ``w`` of truncation order s, the derivative chain
w, w', ..., w^(s) with shift dynamics and w^(s+1) = 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from . import symexpr as sx
from ._linalg import MAX_COLS
from .errors import (
    DivisionByZero,
    DuplicateDeclaration,
    MissingDynamics,
    ModelError,
    ModelSyntaxError,
    NonIntegerExponent,
    UndeclaredSymbol,
)
from .symexpr import Expr, Symbol, SymbolKind

RESERVED = {
    "model", "states", "params", "inputs", "unknown_inputs", "ddt", "output",
    "ic", "constant", "order", "ln", "exp", "sin", "cos", "t",
}

DEFAULT_UNKNOWN_INPUT_ORDER = 1

GENERIC = "generic"
CONSTANT = "constant"


@dataclass(frozen=True)
class InputSpec:
    """A known input; ``constant`` mode pins all its derivatives to zero."""
    symbol: Symbol
    mode: str = GENERIC


@dataclass(frozen=True)
class UnknownInputSpec:
    """An unknown input with derivative-chain truncation order s (w^(s+1) = 0)."""
    symbol: Symbol
    order: int = DEFAULT_UNKNOWN_INPUT_ORDER


@dataclass(frozen=True)
class ModelDef:
    name: str
    states: tuple[Symbol, ...]
    params: tuple[Symbol, ...]
    known_inputs: tuple[InputSpec, ...]
    unknown_inputs: tuple[UnknownInputSpec, ...]
    dynamics: dict[Symbol, Expr]
    outputs: tuple[tuple[str, Expr], ...]
    ics: dict[Symbol, Expr] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def p(self) -> int:
        return len(self.params)

    @property
    def q(self) -> int:
        return len(self.known_inputs)

    @property
    def q_w(self) -> int:
        return len(self.unknown_inputs)

    @property
    def m(self) -> int:
        return len(self.outputs)

    def is_rational(self) -> bool:
        return all(map(sx.is_rational_expr, (*self.dynamics.values(),
                                             *(h for _, h in self.outputs))))

    def unknown_input_warning(self) -> str:
        """The report warning for the model's unknown inputs, whose
        derivative chains both engines truncate."""
        orders = ", ".join(f"{s.symbol.base}^({s.order + 1})=0" for s in self.unknown_inputs)
        return (f"unknown-input derivative chains truncated ({orders}), "
                "including any direct output feedthrough")

    def ic_warning(self) -> str:
        """The report warning for the model's ``ic`` lines, which both
        engines ignore."""
        ics = ", ".join(f"ic {s.name}" for s in self.ics)
        return f"initial conditions ignored ({ics}): verdicts hold for generic initial states"


@dataclass(frozen=True)
class AugmentedSystem:
    """The extended state z = states ++ params ++ unknown-input chains."""
    model: ModelDef
    z: tuple[Symbol, ...]
    F: tuple[Expr, ...]
    outputs: tuple[Expr, ...]
    index: dict[Symbol, int]

    @property
    def n_z(self) -> int:
        return len(self.z)


def augment(md: ModelDef) -> AugmentedSystem:
    """Extended system: parameters become constant states, unknown inputs
    become truncated derivative chains (the chain top has zero derivative)."""
    z: list[Symbol] = list(md.states)
    F: list[Expr] = [md.dynamics[s] for s in md.states]
    for th in md.params:
        z.append(th)
        F.append(sx.ZERO)
    for spec in md.unknown_inputs:
        chain = [spec.symbol.derivative(j) for j in range(spec.order + 1)]
        for j, w in enumerate(chain):
            z.append(w)
            F.append(chain[j + 1] if j < spec.order else sx.ZERO)
    index = {s: i for i, s in enumerate(z)}
    return AugmentedSystem(
        model=md,
        z=tuple(z),
        F=tuple(F),
        outputs=tuple(h for _, h in md.outputs),
        index=index,
    )


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<decimal>\d+\.\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<op>[-+*/^()=])"
    r"|(?P<bad>\S)"
)


class _Tok(NamedTuple):
    kind: str  # ident | int | decimal | op | end
    text: str
    line: int
    col: int

    def __str__(self) -> str:
        """The token as a message shows it: its quoted text, or ``end of line``."""
        return "end of line" if self.kind == "end" else repr(self.text)


def _tokenize(text: str) -> list[list[_Tok]]:
    """The tokens of each non-empty line, ending with an ``end`` token.
    Whitespace matches no token and ``finditer`` skips it; any other
    character that starts no token is ``bad``."""
    stmts: list[list[_Tok]] = []
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks: list[_Tok] = []
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind == "bad":
                raise ModelSyntaxError(f"unexpected character {m.group()!r}", ln_no, m.start() + 1)
            toks.append(_Tok(kind, m.group(), ln_no, m.start() + 1))
        if toks:
            toks.append(_Tok("end", "", ln_no, len(line) + 1))
            stmts.append(toks)
    return stmts


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _ExprParser:
    """Recursive-descent parser for the expression sublanguage."""

    def __init__(self, toks: list[_Tok], start: int, symbols: dict[str, Symbol],
                 allow_time: bool):
        self.toks = toks
        self.i = start
        self.symbols = symbols
        self.allow_time = allow_time
        self.func_depth = 0  # nesting inside sin/cos/exp, where t is legal

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.take()
        if t.kind != "op" or t.text != op:
            raise ModelSyntaxError(f"expected {op!r}, found {t}", t.line, t.col)

    def parse(self) -> Expr:
        try:
            e = self.expr()
        except RecursionError:
            head = self.toks[0]
            raise ModelSyntaxError("expression nested too deeply", head.line, head.col) from None
        t = self.peek()
        if t.kind != "end":
            raise ModelSyntaxError(f"unexpected {t.text!r} after expression", t.line, t.col)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take()
            rhs = self.unary()
            e = e * rhs if op.text == "*" else _exact(op, sx.div, e, rhs)
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            op = self.take()
            return _exact(op, sx.pow_, base, self.exponent())
        return base

    def exponent(self) -> int:
        t = self.peek()
        sign = 1
        if t.kind == "op" and t.text == "-":
            self.take()
            sign = -1
            t = self.peek()
        if t.kind == "int":
            self.take()
            return sign * int(t.text)
        if t.kind == "decimal":
            raise _non_integer(t.text, t.line, t.col)
        if t.kind == "op" and t.text == "(":
            mark = (t.line, t.col)
            self.take()
            e = self.expr()
            self.expect_op(")")
            if isinstance(e, sx.Const):
                v = e.value
                if v.denominator == 1:
                    return sign * v.numerator
                raise _non_integer(v, *mark)
            raise ModelSyntaxError("exponent must be an integer literal", *mark)
        raise ModelSyntaxError(f"expected integer exponent, found {t}", t.line, t.col)

    def atom(self) -> Expr:
        t = self.take()
        if t.kind == "int":
            return sx.const(int(t.text))
        if t.kind == "decimal":
            raise ModelSyntaxError(
                f"decimal literal {t.text} not supported; write it as a rational a/b",
                t.line, t.col)
        if t.kind == "op" and t.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if t.kind == "ident":
            name = t.text
            if name in sx.FUNC_NAMES:
                self.expect_op("(")
                self.func_depth += 1
                arg = self.expr()
                self.func_depth -= 1
                self.expect_op(")")
                return sx.func(name, arg)
            if name == "t":
                if not self.allow_time:
                    raise ModelSyntaxError("time symbol 't' is not allowed here", t.line, t.col)
                if self.func_depth == 0:
                    raise ModelSyntaxError(
                        "time symbol 't' may only appear inside sin/cos/exp", t.line, t.col)
                return sx.TIME
            s = self.symbols.get(name)
            if s is None:
                raise UndeclaredSymbol(
                    f"line {t.line}, col {t.col}: undeclared symbol {name!r}")
            return s
        raise ModelSyntaxError(f"unexpected {t}", t.line, t.col)


def _exact(op: _Tok, build, *args) -> Expr:
    """build(*args), with an exact division by zero reported at the token op."""
    try:
        return build(*args)
    except DivisionByZero as exc:
        raise ModelSyntaxError(str(exc), op.line, op.col) from None


def _non_integer(exponent, line: int, col: int) -> NonIntegerExponent:
    return NonIntegerExponent(
        f"line {line}, col {col}: exponent {exponent} is not an integer; round it to the "
        "closest integer (the usual convention for rational-model analysis)")


def _ident(tok: _Tok, *, what: str = "identifier") -> str:
    if tok.kind != "ident":
        raise ModelSyntaxError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
    if tok.text in RESERVED:
        raise ModelSyntaxError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
    return tok.text


def parse_model(text: str) -> ModelDef:
    """Parse and validate a model file; see the module docstring for the grammar."""
    stmts = _tokenize(text)
    if not stmts:
        raise ModelSyntaxError("empty model file", 1, 1)

    name: str | None = None
    states: list[Symbol] = []
    params: list[Symbol] = []
    known: list[InputSpec] = []
    unknown: list[UnknownInputSpec] = []
    declared: dict[str, Symbol] = {}

    def declare(sym: Symbol, tok: _Tok):
        if sym.name in declared:
            raise DuplicateDeclaration(
                f"line {tok.line}, col {tok.col}: {sym.name!r} declared twice")
        declared[sym.name] = sym

    # Pass 1: declarations (any statement order is accepted).
    for toks in stmts:
        head = toks[0]
        if head.kind != "ident":
            raise ModelSyntaxError(f"expected statement keyword, found {head.text!r}",
                                   head.line, head.col)
        kw = head.text
        if kw == "model":
            if name is not None:
                raise DuplicateDeclaration(
                    f"line {head.line}, col {head.col}: duplicate 'model' statement")
            if len(toks) != 3:  # model IDENT end
                raise ModelSyntaxError("expected: model NAME", head.line, head.col)
            name = _ident(toks[1], what="model name")
        elif kw in ("states", "params"):
            make, into = (sx.state, states) if kw == "states" else (sx.param, params)
            for tok in toks[1:-1]:
                into.append(make(_ident(tok)))
                declare(into[-1], tok)
        elif kw == "inputs":
            i = 1
            while toks[i].kind != "end":
                tok = toks[i]
                s = sx.known_input(_ident(tok))
                i += 1
                mode = GENERIC
                if toks[i].kind == "ident" and toks[i].text == "constant":
                    mode = CONSTANT
                    i += 1
                declare(s, tok)
                known.append(InputSpec(s, mode))
        elif kw == "unknown_inputs":
            i = 1
            while toks[i].kind != "end":
                tok = toks[i]
                s = sx.unknown_input(_ident(tok))
                i += 1
                order = DEFAULT_UNKNOWN_INPUT_ORDER
                if toks[i].kind == "ident" and toks[i].text == "order":
                    i += 1
                    if toks[i].kind != "int":
                        raise ModelSyntaxError("expected integer after 'order'",
                                               toks[i].line, toks[i].col)
                    order = int(toks[i].text)
                    i += 1
                declare(s, tok)
                unknown.append(UnknownInputSpec(s, order))
        elif kw in ("ddt", "output", "ic"):
            continue
        else:
            raise ModelSyntaxError(f"unknown statement {kw!r}", head.line, head.col)

    if name is None:
        raise ModelSyntaxError("missing 'model NAME' statement", 1, 1)
    if not states:
        raise ModelSyntaxError("model declares no states", 1, 1)
    n_z = len(states) + len(params) + sum(w.order + 1 for w in unknown)
    if n_z > MAX_COLS:
        raise ModelError(f"model {name!r} has n_z = {n_z} (states, params and unknown-input "
                         f"chains), above the engines' limit of {MAX_COLS}")

    # Pass 2: equations.
    dynamics: dict[Symbol, Expr] = {}
    outputs: list[tuple[str, Expr]] = []
    output_names: set[str] = set()
    ics: dict[Symbol, Expr] = {}
    params_only = {s.name: s for s in params}

    for toks in stmts:
        head = toks[0]
        kw = head.text
        if kw not in ("ddt", "output", "ic"):
            continue
        if len(toks) < 4 or toks[2].kind != "op" or toks[2].text != "=":
            raise ModelSyntaxError(f"expected: {kw} NAME = expression", head.line, head.col)
        target = toks[1]
        if kw == "output":
            oname = _ident(target, what="output name")
            if oname in declared or oname in output_names:
                raise DuplicateDeclaration(
                    f"line {target.line}, col {target.col}: output name {oname!r} "
                    "collides with an existing declaration")
            e = _ExprParser(toks, 3, declared, allow_time=True).parse()
            output_names.add(oname)
            outputs.append((oname, e))
            continue
        tname = target.text
        target_sym = declared.get(tname)
        if target_sym is None or target_sym.kind is not SymbolKind.STATE:
            raise UndeclaredSymbol(
                f"line {target.line}, col {target.col}: {tname!r} is not a declared state")
        if kw == "ddt":
            if target_sym in dynamics:
                raise DuplicateDeclaration(
                    f"line {target.line}, col {target.col}: duplicate ddt for {tname!r}")
            e = _ExprParser(toks, 3, declared, allow_time=True).parse()
            dynamics[target_sym] = e
        else:  # ic
            if target_sym in ics:
                raise DuplicateDeclaration(
                    f"line {target.line}, col {target.col}: duplicate ic for {tname!r}")
            e = _ExprParser(toks, 3, params_only, allow_time=False).parse()
            ics[target_sym] = e

    for s in states:
        if s not in dynamics:
            raise MissingDynamics(f"state {s.name!r} has no ddt line")
    if not outputs:
        raise ModelSyntaxError("model declares no outputs", 1, 1)

    return ModelDef(
        name=name,
        states=tuple(states),
        params=tuple(params),
        known_inputs=tuple(known),
        unknown_inputs=tuple(unknown),
        dynamics=dynamics,
        outputs=tuple(outputs),
        ics=ics,
    )


def load_model(path) -> ModelDef:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


# --------------------------------------------------------------------------
# Printer
# --------------------------------------------------------------------------

def print_model(md: ModelDef) -> str:
    """Canonical text form; parse(print_model(md)) == md."""
    lines = [f"model {md.name}"]
    if md.states:
        lines.append("states " + " ".join(s.name for s in md.states))
    if md.params:
        lines.append("params " + " ".join(s.name for s in md.params))
    if md.known_inputs:
        parts = []
        for spec in md.known_inputs:
            parts.append(spec.symbol.name + (" constant" if spec.mode == CONSTANT else ""))
        lines.append("inputs " + " ".join(parts))
    if md.unknown_inputs:
        parts = [f"{spec.symbol.name} order {spec.order}" for spec in md.unknown_inputs]
        lines.append("unknown_inputs " + " ".join(parts))
    for s in md.states:
        lines.append(f"ddt {s.name} = {sx.to_string(md.dynamics[s])}")
    for oname, h in md.outputs:
        lines.append(f"output {oname} = {sx.to_string(h)}")
    for s in md.states:
        if s in md.ics:
            lines.append(f"ic {s.name} = {sx.to_string(md.ics[s])}")
    return "\n".join(lines) + "\n"
