import pytest

from identiscope import symexpr as sx
from identiscope._linalg import MAX_COLS
from identiscope.errors import (
    DuplicateDeclaration,
    MissingDynamics,
    ModelError,
    ModelSyntaxError,
    NonIntegerExponent,
    UndeclaredSymbol,
)
from identiscope.model import augment, load_model, parse_model, print_model
from identiscope.bench import corpus_dir

MINIMAL = "model m\nstates x\nparams k\nddt x = -k*x\noutput y = x\n"


def test_parse_minimal_model():
    md = parse_model(MINIMAL)
    assert (md.n, md.p, md.m) == (1, 1, 1)
    assert md.name == "m"
    x = md.states[0]
    assert sx.to_string(md.dynamics[x]) == "-k*x"


def test_parse_c2m_a_dimensions():
    md = load_model(corpus_dir() / "c2m_a.idm")
    assert (md.n, md.p, md.q, md.q_w, md.m) == (2, 4, 1, 0, 1)
    # y = x1/V
    assert sx.to_string(md.outputs[0][1]) == "x1/V"


def test_undeclared_symbol_in_output():
    src = "model m\nstates x\nddt x = -x\noutput y = z\n"
    with pytest.raises(UndeclaredSymbol):
        parse_model(src)


def test_undeclared_symbol_reports_position():
    src = "model m\nstates x\nddt x = -x\noutput y = z\n"
    with pytest.raises(UndeclaredSymbol, match=r"line 4, col 12"):
        parse_model(src)


def test_duplicate_declaration():
    with pytest.raises(DuplicateDeclaration):
        parse_model("model m\nstates x x\nddt x = -x\noutput y = x\n")
    with pytest.raises(DuplicateDeclaration):
        parse_model("model m\nstates x\nparams x\nddt x = -x\noutput y = x\n")
    with pytest.raises(DuplicateDeclaration):
        parse_model("model m\nstates x\nddt x = -x\nddt x = x\noutput y = x\n")


def test_missing_dynamics():
    with pytest.raises(MissingDynamics, match="'z'"):
        parse_model("model m\nstates x z\nddt x = -x\noutput y = x\n")


def test_non_integer_exponent_decimal():
    src = "model m\nstates x\nddt x = -x^1.5\noutput y = x\n"
    with pytest.raises(NonIntegerExponent, match="closest integer"):
        parse_model(src)


def test_non_integer_exponent_fraction():
    src = "model m\nstates x\nddt x = -x^(1/2)\noutput y = x\n"
    with pytest.raises(NonIntegerExponent):
        parse_model(src)


def test_integer_valued_parenthesized_exponent_ok():
    md = parse_model("model m\nstates x\nddt x = -x^(4/2)\noutput y = x\n")
    x = md.states[0]
    assert md.dynamics[x] == -sx.pow_(x, 2)


def test_decimal_literal_rejected_outside_exponent():
    with pytest.raises(ModelSyntaxError, match="rational"):
        parse_model("model m\nstates x\nddt x = -0.5*x\noutput y = x\n")


def test_syntax_error_carries_location():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("model m\nstates x\nddt x = (x\noutput y = x\n")
    assert err.value.line == 3


def test_unexpected_character_reports_its_column():
    # Whitespace before the character and a comment after it.
    src = "model m\nstates x\nparams k\nddt x = -k*x   $ # note\noutput y = x\n"
    with pytest.raises(ModelSyntaxError, match=r"^line 4, col 16: unexpected character '\$'$") as err:
        parse_model(src)
    assert (err.value.line, err.value.col) == (4, 16)


def test_reserved_word_rejected_as_name():
    with pytest.raises(ModelSyntaxError, match="reserved"):
        parse_model("model m\nstates ln\nddt ln = 1\noutput y = ln\n")


def test_time_only_inside_transcendental():
    with pytest.raises(ModelSyntaxError, match="sin/cos/exp"):
        parse_model("model m\nstates x\nddt x = t*x\noutput y = x\n")
    md = parse_model("model m\nstates x\nparams w\nddt x = sin(w*t) - x\noutput y = x\n")
    assert not md.is_rational()


def test_constant_input_mode():
    md = parse_model(
        "model m\nstates x\ninputs u constant v\nddt x = u + v - x\noutput y = x\n")
    assert md.known_inputs[0].mode == "constant"
    assert md.known_inputs[1].mode == "generic"


def test_ic_lines_are_params_only_metadata():
    md = parse_model(
        "model m\nstates x\nparams k x0\nddt x = -k*x\noutput y = x\nic x = 2*x0\n")
    x = md.states[0]
    assert sx.to_string(md.ics[x]) == "2*x0"
    with pytest.raises(UndeclaredSymbol):
        parse_model("model m\nstates x z\nddt x = -x\nddt z = x\noutput y = x\nic x = z\n")


# --------------------------------------------------------------------------
# augment
# --------------------------------------------------------------------------

def test_augment_minimal():
    md = parse_model(MINIMAL)
    A = augment(md)
    assert [s.name for s in A.z] == ["x", "k"]
    assert A.n_z == 2
    assert sx.to_string(A.F[0]) == "-k*x"
    assert A.F[1] is sx.ZERO


def test_augment_c2m_c_chain():
    md = load_model(corpus_dir() / "c2m_c.idm")
    A = augment(md)
    # 2 states + 4 params + chain (w, w') of default order 1
    assert A.n_z == 8
    assert [s.name for s in A.z[-2:]] == ["w", "w'"]
    assert A.F[-2] == A.z[-1]  # d/dt w = w'
    assert A.F[-1] is sx.ZERO          # d/dt w' = 0 (truncation)


def test_augment_two_order_zero_unknown_inputs():
    src = ("model m\nstates x\nparams k\nunknown_inputs w1 order 0 w2 order 0\n"
           "ddt x = -k*x + w1 + w2\noutput y = x\n")
    md = parse_model(src)
    A = augment(md)
    assert A.n_z == md.n + md.p + 2
    assert A.F[-1] is sx.ZERO and A.F[-2] is sx.ZERO


def test_augment_deterministic_and_total(corpus_entries):
    for entry in corpus_entries:
        md = load_model(entry.path)
        A = augment(md)
        chain = sum(spec.order + 1 for spec in md.unknown_inputs)
        assert A.n_z == md.n + md.p + chain
        assert len(A.F) == A.n_z
        for th in md.params:
            assert A.F[A.index[th]] is sx.ZERO


# --------------------------------------------------------------------------
# printing / round-trip
# --------------------------------------------------------------------------

def test_print_contains_one_ddt_per_state():
    md = load_model(corpus_dir() / "hiv2.idm")
    printed = print_model(md)
    assert printed.count("ddt ") == md.n


def test_print_parse_roundtrip_minimal():
    md = parse_model(MINIMAL)
    again = parse_model(print_model(md))
    assert again == md
    assert print_model(again) == print_model(md)


def test_print_parse_roundtrip_all_statement_kinds():
    src = (
        "model full\n"
        "states x1 x2\n"
        "params k a0\n"
        "inputs u constant v\n"
        "unknown_inputs w order 2\n"
        "ddt x1 = -k*x1 + u + w - x2/(1 + x1)\n"
        "ddt x2 = v*x1 - x2^2 + sin(k*t)\n"
        "output y1 = x1/a0\n"
        "ic x1 = 2*a0\n"
    )
    md = parse_model(src)
    printed = print_model(md)
    again = parse_model(printed)
    assert again == md
    assert print_model(again) == printed
    assert "inputs u constant v" in printed
    assert "unknown_inputs w order 2" in printed
    assert "ic x1 = 2*a0" in printed


def test_roundtrip_all_corpus_files(corpus_entries):
    for entry in corpus_entries:
        md = load_model(entry.path)
        again = parse_model(print_model(md))
        assert again == md, entry.name


# --------------------------------------------------------------------------
# error paths
# --------------------------------------------------------------------------

def _swap(old, new):
    assert old in MINIMAL
    return MINIMAL.replace(old, new)


def _add(*lines):
    return MINIMAL + "".join(f"{line}\n" for line in lines)


DEEP = "ddt x = " + "(1+x*" * 1000 + "k" + ")" * 1000

# text, exception class, (line, col) at the head of the message or None,
# and words of the message.  MINIMAL's line 4 is "ddt x = -k*x".
PARSE_ERRORS = [
    pytest.param(_swap("-k*x\n", "-k*x $\n"), ModelSyntaxError, (4, 14), "unexpected character",
                 id="bad-character"),
    pytest.param(_swap("-k*x\n", "sin x\n"), ModelSyntaxError, (4, 13), "expected '('",
                 id="function-without-paren"),
    pytest.param(_swap("ddt x = -k*x", DEEP), ModelSyntaxError, (4, 1), "nested too deeply",
                 id="deep-nesting"),
    pytest.param(_swap("-k*x\n", "-k*x )\n"), ModelSyntaxError, (4, 14), "after expression",
                 id="trailing-token"),
    pytest.param(_swap("-k*x\n", "-x^1.5\n"), NonIntegerExponent, (4, 12), "closest integer",
                 id="decimal-exponent"),
    pytest.param(_swap("-k*x\n", "-x^(1/2)\n"), NonIntegerExponent, (4, 12), "exponent 1/2",
                 id="fraction-exponent"),
    pytest.param(_swap("-k*x\n", "-x^(k)\n"), ModelSyntaxError, (4, 12), "integer literal",
                 id="symbolic-exponent"),
    pytest.param(_swap("-k*x\n", "-x^k\n"), ModelSyntaxError, (4, 12),
                 "expected integer exponent", id="bare-symbol-exponent"),
    pytest.param(_swap("-k*x\n", "-0.5*x\n"), ModelSyntaxError, (4, 10), "decimal literal",
                 id="decimal-literal"),
    pytest.param(_add("ic x = t"), ModelSyntaxError, (6, 8), "not allowed here",
                 id="time-in-ic"),
    pytest.param(_swap("-k*x\n", "t*x\n"), ModelSyntaxError, (4, 9), "sin/cos/exp",
                 id="bare-time"),
    pytest.param(_swap("y = x", "y = z"), UndeclaredSymbol, (5, 12), "undeclared symbol 'z'",
                 id="undeclared"),
    pytest.param(_swap("-k*x\n", "*x\n"), ModelSyntaxError, (4, 9), "unexpected '*'",
                 id="missing-operand"),
    pytest.param(_swap("-k*x\n", "x +\n"), ModelSyntaxError, (4, 12),
                 "unexpected end of line", id="line-ends-after-plus"),
    pytest.param(_swap("-k*x\n", "-\n"), ModelSyntaxError, (4, 10),
                 "unexpected end of line", id="line-ends-after-minus"),
    pytest.param(_swap("-k*x\n", "(x\n"), ModelSyntaxError, (4, 11),
                 "expected ')', found end of line", id="line-ends-in-parens"),
    pytest.param(_swap("-k*x\n", "x^(2\n"), ModelSyntaxError, (4, 13),
                 "expected ')', found end of line", id="line-ends-in-exponent"),
    pytest.param(_swap("-k*x\n", "x^\n"), ModelSyntaxError, (4, 11),
                 "expected integer exponent, found end of line", id="line-ends-after-caret"),
    pytest.param(_swap("-k*x\n", "-k*x/0\n"), ModelSyntaxError, (4, 13),
                 "division by the zero constant", id="zero-divisor"),
    pytest.param(_swap("y = x", "y = x*(1-1)^-1"), ModelSyntaxError, (5, 19),
                 "0 raised to a negative power", id="zero-to-negative-power"),
    pytest.param(_swap("states x", "states 1"), ModelSyntaxError, (2, 8),
                 "expected identifier", id="number-as-name"),
    pytest.param(_swap("params k", "params ln"), ModelSyntaxError, (3, 8), "reserved word",
                 id="reserved-name"),
    pytest.param("# only a comment\n\n", ModelSyntaxError, (1, 1), "empty model file",
                 id="empty"),
    pytest.param(_swap("states x", "states x x"), DuplicateDeclaration, (2, 10),
                 "declared twice", id="name-twice"),
    pytest.param(_add("= x"), ModelSyntaxError, (6, 1), "expected statement keyword",
                 id="no-keyword"),
    pytest.param(_add("model n"), DuplicateDeclaration, (6, 1), "duplicate 'model'",
                 id="model-twice"),
    pytest.param(_swap("model m", "model m n"), ModelSyntaxError, (1, 1), "model NAME",
                 id="model-two-names"),
    pytest.param(_add("unknown_inputs w order x"), ModelSyntaxError, (6, 24),
                 "expected integer after 'order'", id="order-not-integer"),
    pytest.param(_add("fit x"), ModelSyntaxError, (6, 1), "unknown statement 'fit'",
                 id="unknown-statement"),
    pytest.param(_swap("model m\n", ""), ModelSyntaxError, (1, 1), "missing 'model NAME'",
                 id="no-model"),
    pytest.param("model m\nparams k\noutput y = k\n", ModelSyntaxError, (1, 1), "no states",
                 id="no-states"),
    pytest.param(_swap("x = -k*x", "x -k*x"), ModelSyntaxError, (4, 1),
                 "expected: ddt NAME = expression", id="ddt-without-equals"),
    pytest.param(_swap("y = x", "x = x"), DuplicateDeclaration, (5, 8), "collides",
                 id="output-named-as-state"),
    pytest.param(_add("output y = k*x"), DuplicateDeclaration, (6, 8), "collides",
                 id="output-twice"),
    pytest.param(_add("ddt k = 1"), UndeclaredSymbol, (6, 5), "'k' is not a declared state",
                 id="ddt-of-parameter"),
    pytest.param(_add("ddt x = x"), DuplicateDeclaration, (6, 5), "duplicate ddt",
                 id="ddt-twice"),
    pytest.param(_add("ic x = k", "ic x = 2*k"), DuplicateDeclaration, (7, 4),
                 "duplicate ic", id="ic-twice"),
    pytest.param(_swap("states x", "states x z"), MissingDynamics, None, "'z' has no ddt line",
                 id="no-ddt"),
    pytest.param(_swap("output y = x\n", ""), ModelSyntaxError, (1, 1), "no outputs",
                 id="no-outputs"),
    pytest.param(_add(f"unknown_inputs w order {MAX_COLS - 2}"), ModelError, None,
                 f"has n_z = {MAX_COLS + 1} (states, params and unknown-input chains), "
                 f"above the engines' limit of {MAX_COLS}", id="wider-than-the-engines"),
]


@pytest.mark.parametrize("text, cls, where, words", PARSE_ERRORS)
def test_parse_error_names_its_class_and_place(text, cls, where, words):
    with pytest.raises(ModelError) as err:
        parse_model(text)
    message = str(err.value)
    assert type(err.value) is cls and words in message, message
    if where is None:
        assert not message.startswith("line "), message
    else:
        assert message.startswith("line {}, col {}: ".format(*where)), message
    if cls is ModelSyntaxError:
        assert (err.value.line, err.value.col) == where


def test_a_model_as_wide_as_the_engines_take_parses():
    # n_z = 1 state + 1 param + (order + 1) chain entries; parsing builds
    # no chain, so this stays cheap.
    md = parse_model(_add(f"unknown_inputs w order {MAX_COLS - 3}"))
    assert md.n + md.p + md.unknown_inputs[0].order + 1 == MAX_COLS


def test_nesting_below_the_limit_parses():
    md = parse_model(_swap("ddt x = -k*x", "ddt x = -k*x + " + "(1+x*" * 100 + "k" + ")" * 100))
    assert md.n == 1
