"""Exception types shared across the package.

Input-validation problems raise ValueError subclasses; failures that occur
during numerical work (bad conditioning, non-convergence, degenerate
statistics) raise NumericalError subclasses so callers can map them to a
distinct exit code.
"""


class ConfigError(ValueError):
    """A scenario or sweep description is invalid or inconsistent."""


class NumericalError(RuntimeError):
    """A numerical procedure failed despite valid inputs."""


class ConvergenceError(NumericalError):
    """An iterative routine failed to converge within its budget."""


class IllConditionedError(NumericalError):
    """A linear system is too ill-conditioned to invert reliably."""


class DegenerateEstimateError(NumericalError):
    """An estimator collapsed to zero energy and cannot be normalized."""
