"""Exception classes shared by all simulation modules.

Every class derives from ``CqedError`` directly, so the CLI maps any
simulation failure to one exit path: code 3, with the class name on
stderr.  Invalid inputs raise ``ValueError`` (exit 2) instead.
"""


class CqedError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CqedError):
    """Operands have incompatible dimensions."""


class NoMinimum(CqedError):
    """Potential has no local minimum for the requested bias."""


class StepUnstable(CqedError):
    """A row at a node: a pair number too close to 0 for its phase to be determined."""


class TruncationTooSmall(CqedError):
    """Basis truncation is inadequate for the requested state or sweep."""


class FitFailed(CqedError):
    """Envelope fit could not be performed (too few usable extrema)."""
