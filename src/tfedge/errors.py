"""Exception types shared across the package.

Every failure mode that callers are expected to handle has its own class so
that the CLI can map them to readable messages and tests can assert on the
exact condition rather than on strings.
"""


class TfedgeError(Exception):
    """Base class for all package errors."""


class DomainError(TfedgeError):
    """Arguments lie outside the region where a formula is valid."""


class GridError(TfedgeError):
    """Spatial truncation too short to confine the state being computed."""


class WindowViolation(TfedgeError):
    """Momentum window fails the spectral confinement test at an endpoint."""


class OverflowGuard(TfedgeError):
    """Requested value exceeds double range; use the log-value pathway."""


class SignChange(TfedgeError):
    """Trace changes sign inside the fit window; slope fit is meaningless."""


class ConfigError(TfedgeError):
    """Configuration value rejected; message names the key and constraint."""
