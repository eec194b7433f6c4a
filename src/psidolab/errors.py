"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input and violated
preconditions exit with 2, failed numerical checks exit with 1.
"""


class InvalidInputError(ValueError):
    """Malformed or out-of-range argument (wrong shape, bad exponent, ...)."""


class PreconditionError(InvalidInputError):
    """A documented operation precondition does not hold for the given data."""


class SymbolEvaluationError(RuntimeError):
    """A symbol value, or an operator's result on finite input, is not
    finite; the message names the symbol and, where known, (x, xi)."""


class InfeasibleBudgetError(RuntimeError):
    """The integer smoothness-budget system has no solution; message lists
    the binding constraints."""
