"""Exception taxonomy shared by every module in the package.

Three failure channels are distinguished because the CLI maps them to
different exit codes: violated mathematical hypotheses (exit 1), points or
parameters outside an evaluator's validity domain (also exit 1, they are a
form of input validation), and numerical non-convergence within resource
limits (exit 2).
"""

from __future__ import annotations


class NearOneError(Exception):
    """Base class for all package-specific errors.

    ``index`` is the position of the offending point when a batch
    evaluation raised the error, and None otherwise.
    """

    index: int | None = None


class HypothesisError(NearOneError):
    """A named hypothesis of one of the implemented statements fails.

    ``condition`` is a stable machine-readable identifier (for example
    "T2-window"); the message carries the numbers that broke it.
    """

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(f"{condition}: {message}")


class DomainError(NearOneError):
    """Evaluation requested outside the supported domain."""


class ConvergenceError(NearOneError):
    """An iterative scheme could not reach the requested tolerance."""


class NoCrossoverError(NearOneError):
    """The compared bounds never cross on the searched range."""
