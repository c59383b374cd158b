"""Exception types shared across the package."""


class SingradarError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(SingradarError):
    """An argument violates a documented precondition."""


class DivisionByZero(SingradarError):
    """Division by an exact zero scalar."""


class EvaluationSingular(SingradarError):
    """Negative exponent evaluated at a zero coordinate."""


class SingularExponentMatrix(SingradarError):
    """Exponent matrix is singular; no normal form / solution count."""


class NotApplicable(SingradarError):
    """Binomial solve requested on a degenerate (zero) right-hand side."""


class OverflowRisk(SingradarError):
    """Integer entries grew beyond the guarded range during reduction."""


class SingularJacobian(SingradarError):
    """Jacobian numerically singular at the requested point."""


class NoConvergence(SingradarError):
    """Newton iteration failed to reach tolerance within the iteration cap."""


class StepUnderflow(SingradarError):
    """Continuation step fell below the configured minimum."""


class BranchJump(SingradarError):
    """Circle sampling returned to a different branch after a full loop."""


class InconclusiveRadar(SingradarError):
    """No singularity estimate converged during the pole sweep."""
