"""Exception hierarchy shared across the package, and the one clock of a run."""

import time
from dataclasses import dataclass, field


class IdentiscopeError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(IdentiscopeError):
    """Exact evaluation hit a zero denominator."""


class DivisionByZeroModP(IdentiscopeError):
    """A denominator (or negative-power base) evaluated to 0 mod p.

    Callers performing randomized evaluation should resample the point.
    """


class NonRationalExpr(IdentiscopeError):
    """A transcendental node was found where only rational expressions are allowed."""


class RetriesExhausted(IdentiscopeError):
    """Every resampled evaluation point hit a vanishing denominator.

    Usually a sign that the model is structurally degenerate at the chosen
    prime, or that the prime is too small.
    """


class EngineTimeout(IdentiscopeError):
    """An analysis exceeded its wall-clock deadline."""


def deadline_after(timeout_s: float | None) -> float | None:
    """The ``time.monotonic()`` deadline ``timeout_s`` from now; None for none."""
    return None if timeout_s is None else time.monotonic() + timeout_s


@dataclass(frozen=True)
class RunContext:
    """The clock of one analysis: its deadline, an absolute
    ``time.monotonic()`` bound or None for an unbounded run, and its start."""

    deadline: float | None = None
    start: float = field(default_factory=time.perf_counter, init=False, repr=False)

    def check(self) -> None:
        """Raise EngineTimeout once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise EngineTimeout("analysis exceeded its wall-clock bound")

    def elapsed_ms(self) -> float:
        return (time.perf_counter() - self.start) * 1e3


class ModelError(IdentiscopeError):
    """Base class for model-file problems."""


class ModelSyntaxError(ModelError):
    """Malformed model text. Carries 1-based line/column of the offending token."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class UndeclaredSymbol(ModelError):
    """An expression references a name that was never declared."""


class DuplicateDeclaration(ModelError):
    """The same name was declared (or defined) twice."""


class MissingDynamics(ModelError):
    """A declared state has no ddt line."""


class NonIntegerExponent(ModelError):
    """A power with a non-integer exponent.

    Only integer exponents are supported; round fractional exponents to the
    closest integer before analysis (the usual convention for this class of
    tools).
    """
