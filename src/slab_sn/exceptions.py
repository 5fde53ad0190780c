"""Exception types raised across the package."""


class TransportError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TransportError):
    """Problem file could not be parsed; message carries section/field context."""


class ValidationError(TransportError):
    """A constructed object violates one of its invariants."""


class DefectiveMatrixError(TransportError):
    """Eigenvector matrix is numerically singular (nearly defective matrix)."""


class ExponentOverflowError(TransportError):
    """Matrix-exponential argument exceeds the overflow guard.

    Raised only by direct exp_block / phi_block calls: the solvers anchor
    every block so that its exponents stay at or below zero.
    """


class MeshAlignmentError(TransportError):
    """Source-mesh edges do not line up with region interfaces."""


class SingularSystemError(TransportError):
    """Global boundary/continuity system is numerically singular."""


class PointOutOfDomainError(TransportError):
    """Flux evaluation point lies outside the slab."""


class ShiftAtEigenvalueError(TransportError):
    """Wielandt shift coincides with the current k estimate."""


class NonpositiveIntegralError(TransportError):
    """Fission integrals must be positive to update the eigenvalue."""


class MaxInnerIterationsError(TransportError):
    """Source iteration did not converge within the inner iteration budget."""


class MaxOuterIterationsError(TransportError):
    """Power iteration did not converge within the outer iteration budget."""


class ZeroFluxError(TransportError):
    """Flux field integrates to zero and cannot be normalized."""
