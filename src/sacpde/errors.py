"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A parameter or configuration value is outside its admissible range.

    The message always names the offending key(s).
    """


class ConfigError(ValidationError):
    """Raised while parsing or merging run configuration (bad key, bad value)."""


class SolverError(RuntimeError):
    """A linear or nonlinear solve failed to meet its accuracy contract."""


class StepFailure(SolverError):
    """The implicit time step did not converge.

    The batched steps name the failing batch row in the message and in
    `row`, and `residual` keeps that row's last residual norm, so harness
    callers can produce machine-readable failure reports.
    """

    def __init__(self, message, residual=None, row=None):
        super().__init__(message)
        self.residual = residual
        self.row = row


class ContractError(RuntimeError):
    """A numerical contract (coupling, determinism, tolerance) was violated."""
