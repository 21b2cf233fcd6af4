"""Exception hierarchy shared across the package."""


class CurvedWorkError(Exception):
    """Base class for all package errors."""


class InputError(CurvedWorkError):
    """Invalid user-supplied data or arguments."""


class ConfigError(InputError):
    """Malformed or inconsistent scenario configuration."""


class DomainError(CurvedWorkError):
    """Evaluation point outside the trusted validity region of an expansion."""


class GeometryError(CurvedWorkError):
    """Degenerate or untrustworthy metric data at the evaluation point."""


class NumericError(CurvedWorkError):
    """Numerical failure: non-finite values, no usable support."""


class ConvergenceError(NumericError):
    """A resolution or truncation guard tripped; the run must be repeated with more resources."""
