"""Exception types shared across the package."""


class KsdiffError(Exception):
    """Base class for all ksdiff errors."""


class DataValidationError(KsdiffError):
    """Invalid input data: malformed files, non-finite values, shape mismatches."""


class SolverLimitError(KsdiffError):
    """Problem size exceeds the configured limit of an exact solver."""


class ConfigFieldError(DataValidationError):
    """A parameter failed validation; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field} {message}")
        self.field = field
