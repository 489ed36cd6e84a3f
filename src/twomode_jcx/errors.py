"""Exception types shared across the package."""


class TwoModeJcxError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(TwoModeJcxError):
    """Operator dimensions are incompatible."""


class LeakageError(TwoModeJcxError):
    """An operator mixes charge sectors beyond tolerance."""


class NonIntegerError(TwoModeJcxError):
    """Group labels do not map back to integer physical quantum numbers."""


class ConvergenceError(TwoModeJcxError):
    """A matrix-function algorithm failed its own error bound."""


class TailError(TwoModeJcxError):
    """Truncated series tail mass exceeds the requested tolerance."""


class SectorMismatchError(TwoModeJcxError):
    """Sector charge kind is incompatible with the requested model."""


class EdgeStateError(TwoModeJcxError):
    """Requested quantum numbers have no partner component of this form."""


class DomainError(TwoModeJcxError):
    """Parameters drive a radicand negative or leave the validated domain."""


class DegenerateCouplingError(TwoModeJcxError):
    """|f| = |g| makes the hyperbolic tilting angle diverge."""


class NotConvergedError(TwoModeJcxError):
    """Cutoff doubling moved the requested eigenvalues beyond tolerance (for
    sector spectra, the move plus the bisection error bound)."""


class SingularParameterError(TwoModeJcxError):
    """Closed-form parameters sit on a singular ray (e.g. zeta in {0, 1})."""


class QuadratureError(TwoModeJcxError):
    """A quadrature rule moved under node doubling or would exceed its node cap."""
