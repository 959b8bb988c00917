"""Exception types shared across the package."""


class KcbsimError(Exception):
    """Base class for all package errors."""


class ZeroVector(KcbsimError):
    """A state was constructed from (numerically) all-zero amplitudes."""


class NonFinite(KcbsimError):
    """A NaN or infinite value was passed where a finite number is required."""


class NotUnit(KcbsimError):
    """A direction vector is not unit length."""


class ClosureFailure(KcbsimError):
    """The constructed basis cycle does not close back onto its first state."""


class ConventionMismatch(KcbsimError):
    """Two independent constructions of the same state disagree beyond phase."""


class InsufficientData(KcbsimError):
    """Too few kept shots to form an estimate."""


class ConfigError(KcbsimError):
    """A configuration value is missing, malformed, or out of range."""
