"""Exception types shared across the package."""


class FockbandError(Exception):
    """Base class for all package-specific errors."""


class InputError(FockbandError):
    """Malformed or inconsistent input data."""


class CapacityError(FockbandError):
    """A requested depth is past the level budget, or a word space past its size cap."""


class DomainError(FockbandError):
    """Input lies outside the mathematical domain of the operation."""


class ConvergenceError(FockbandError):
    """An iterative or truncation-based computation failed to converge."""
