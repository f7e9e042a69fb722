"""Structural local identifiability and observability analysis for ODE models.

Two independent engines answer the same question — which states,
parameters, and unknown inputs of an ODE model can be recovered from its
outputs:

* ``lie_orc``  — symbolic observability-rank-condition engine built on
  extended Lie derivatives; handles non-rational models and unknown inputs.
* ``ffprob``   — probabilistic finite-field engine for rational models,
  built on truncated power-series solutions and exact modular rank.

``bench`` ships a 25-model benchmark corpus and a differential-testing
harness that cross-checks the engines; ``cli`` exposes everything as the
``identiscope`` command.
"""

from .errors import (
    DivisionByZero,
    DivisionByZeroModP,
    DuplicateDeclaration,
    EngineTimeout,
    IdentiscopeError,
    MissingDynamics,
    ModelError,
    ModelSyntaxError,
    NonIntegerExponent,
    NonRationalExpr,
    RetriesExhausted,
    UndeclaredSymbol,
)
from .ffprob import FfprobOptions, analyze_ffprob
from .lie_orc import (
    LieCache,
    SymbolicOptions,
    analyze_symbolic,
    extended_lie_derivative,
)
from .model import (
    AugmentedSystem,
    InputSpec,
    ModelDef,
    UnknownInputSpec,
    augment,
    load_model,
    parse_model,
    print_model,
)
from .report import AnalysisReport
from .symexpr import (
    Expr,
    Symbol,
    SymbolKind,
    differentiate,
    eval_mod_p,
    is_rational_expr,
    to_string,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "AugmentedSystem", "DivisionByZero", "DivisionByZeroModP",
    "DuplicateDeclaration", "EngineTimeout", "Expr", "FfprobOptions",
    "IdentiscopeError", "InputSpec", "LieCache", "MissingDynamics", "ModelDef",
    "ModelError", "ModelSyntaxError", "NonIntegerExponent", "NonRationalExpr",
    "RetriesExhausted", "Symbol", "SymbolKind", "SymbolicOptions",
    "UndeclaredSymbol", "UnknownInputSpec", "analyze_ffprob", "analyze_symbolic",
    "augment", "differentiate", "eval_mod_p", "extended_lie_derivative",
    "is_rational_expr", "load_model", "parse_model", "print_model", "to_string",
]
