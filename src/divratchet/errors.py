"""Exception types shared across the package."""


class DivRatchetError(Exception):
    """Base class for all package errors."""


class ValidationError(DivRatchetError):
    """A parameter or configuration value violates a model constraint."""


class ParseError(DivRatchetError):
    """A config file could not be read or parsed."""


class NoConvergence(DivRatchetError):
    """An iteration failed to reach its tolerance within the cap, produced a
    non-finite update, or stopped on a rung whose complementarity defect
    (then in `residual`) exceeds the certificate's bound."""

    def __init__(self, message, iterations=None, update_norm=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.update_norm = update_norm
        self.residual = residual


class DomainTooSmall(DivRatchetError):
    """The switching boundary ran past 0.8*L; the x-grid must be extended."""


class RateOutOfRange(ValidationError):
    """A queried dividend rate lies outside [c_floor, c_bar]."""


class CacheError(DivRatchetError):
    """A surface cache file is missing, corrupt, or from a different run."""
