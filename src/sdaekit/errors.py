"""Exception types shared across the toolkit.

The hierarchy mirrors how failures are handled: input problems (bad files,
bad expressions) are distinct from method preconditions (a solver refusing a
problem it cannot treat), which are distinct from runtime failures inside an
otherwise legal computation.
"""

from __future__ import annotations

import copyreg


class SdaeError(Exception):
    """Base class for all toolkit errors; each survives a pickle round trip."""

    def __reduce__(self):  # rebuilt from args and attributes; a subclass's __init__ differs
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ExpressionError(SdaeError):
    """Base class for expression DSL errors."""


class ExpressionParseError(ExpressionError):
    """Raised on malformed expression text; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class MissingBindingError(ExpressionError):
    """Evaluation hit a variable with no bound value."""

    def __init__(self, name: str):
        super().__init__(f"no value bound for variable '{name}'")
        self.name = name


class EvaluationDomainError(ExpressionError):
    """Evaluation left the real domain (log of non-positive, division by zero, ...)."""

    def __init__(self, message: str, node=None):
        if node is not None:
            message = f"{message} in '{node}'"
        super().__init__(message)
        self.node = node


class ProblemFormatError(SdaeError):
    """Problem file does not follow the expected section format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionMismatchError(SdaeError):
    """Declared dimensions and supplied arrays disagree."""


class UnknownBuiltinError(SdaeError):
    """Requested builtin problem is not registered."""

    def __init__(self, name: str, available):
        avail = ", ".join(sorted(available))
        super().__init__(f"unknown builtin '{name}'; available: {avail}")
        self.available = tuple(sorted(available))


class MethodPreconditionError(SdaeError):
    """A solver or check was invoked on a problem it does not apply to."""


class InapplicableError(MethodPreconditionError):
    """The requested verdict is undefined for this problem class."""


class SpecInvalidError(MethodPreconditionError):
    """A user-supplied characteristic map failed validation."""


class SingularReductionError(SdaeError):
    """A reduction's Jacobian is numerically singular at the requested point."""


class SingularJacobianError(SdaeError):
    """Newton iteration hit a singular Jacobian."""


class NewtonDivergenceError(SdaeError):
    """Newton iteration exhausted its budget without converging."""

    def __init__(self, iterations: int, last_residual: float):
        super().__init__(
            f"Newton iteration did not converge after {iterations} steps "
            f"(last residual {last_residual:.3e})"
        )
        self.iterations = iterations
        self.last_residual = last_residual


class NonConvergenceError(SdaeError):
    """Fixed-point iteration exhausted its budget without converging."""

    def __init__(self, iterations: int, last_delta: float):
        super().__init__(
            f"iteration did not converge after {iterations} sweeps "
            f"(last delta {last_delta:.3e})"
        )
        self.iterations = iterations
        self.last_delta = last_delta
