"""Exception types shared across the package; each maps to one CLI exit code."""


class CdeError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(CdeError, ValueError):
    """An argument, name or configuration is invalid, or its estimate is
    undefined (exit code 3)."""


class CapacityError(CdeError):
    """The request exceeds a hard enumeration or alphabet-size cap (exit code 4)."""
