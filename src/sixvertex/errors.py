"""Exception types shared across the package."""


class SixVertexError(Exception):
    """Base class for all package errors."""


class PhaseDomainError(SixVertexError, ValueError):
    """Parameters violate the defining inequalities of the requested phase."""


class DomainError(SixVertexError, ValueError):
    """Argument outside the mathematical domain of a special function."""


class PrecisionExhaustedError(SixVertexError, ArithmeticError):
    """Two runs at different precision never agreed; rerun with more bits."""


class CutoffTooSmallError(SixVertexError, ValueError):
    """Truncated sum's tail bound exceeds the requested tolerance."""


class QuadratureError(SixVertexError, ArithmeticError):
    """Numerical integration failed to reach its target tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class DegenerateGeometryError(SixVertexError, ValueError):
    """Saddle geometry degenerates (zeta at the phase boundary)."""


class InsufficientDataError(SixVertexError, ValueError):
    """Not enough data points for the requested fit."""
