"""Exception types shared across the package."""


class PressgapError(Exception):
    """Base class for all package errors."""


class ValidationError(PressgapError):
    """A configuration value is out of its admissible range."""

    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class BranchSolveError(PressgapError):
    """An inverse-branch root solve failed to converge."""


class NodeCapError(PressgapError):
    """A cylinder enumeration would exceed the configured node cap."""


class MixingCapError(PressgapError):
    """No covering time was found below the configured cap."""


class GluingError(PressgapError):
    """Orbit gluing found an empty intersection at the configured depth."""


class ConvergenceError(PressgapError):
    """The transfer-operator eigensolver did not converge."""


class CoverError(PressgapError):
    """A greedy cover cannot reach the requested mass."""
