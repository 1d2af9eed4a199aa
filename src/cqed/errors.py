"""Exception hierarchy shared by all simulation modules.

``CqedError`` is the common base so callers (notably the CLI) can map any
simulation failure to a single exit path.  ``NumericalError`` groups the
failures that arise from numerics (inadequate truncation, failed fits) as
opposed to invalid inputs.
"""


class CqedError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CqedError):
    """Operands have incompatible dimensions."""


class NotUnitAxis(CqedError):
    """Rotation axis is not a unit vector."""


class NoMinimum(CqedError):
    """Potential has no local minimum for the requested bias."""


class StepUnstable(CqedError):
    """ODE integration left the physically valid domain."""


class NumericalError(CqedError):
    """Base class for numerical failures (CLI exit code 3)."""


class TruncationTooSmall(NumericalError):
    """Basis truncation is inadequate for the requested state or sweep."""


class FitFailed(NumericalError):
    """Envelope fit could not be performed (too few usable extrema)."""
