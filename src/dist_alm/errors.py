"""Exception types shared across the solver stack."""


class StructureError(ValueError):
    """Shapes or block layout of the inputs do not match the problem."""


class EvaluationError(ArithmeticError):
    """A user evaluator returned a non-finite value.

    Carries the offending agent index in ``agent`` (``None`` for the
    coupling term).
    """

    def __init__(self, message, agent=None):
        super().__init__(message)
        self.agent = agent


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class ConfigurationError(ValueError):
    """Inconsistent or incomplete solver configuration."""


class ConvergenceError(RuntimeError):
    """An iterative subroutine hit its iteration cap above tolerance."""


class RefusalError(ValueError):
    """A brute-force oracle refused to run (too large or empty search set)."""
