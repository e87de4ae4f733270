"""Error taxonomy shared by all kreinkit modules.

Every failure mode that carries mathematical meaning gets its own class so
callers (and the CLI report generator) can tag failures precisely instead of
parsing messages.  All of them derive from :class:`KreinKitError`.
"""


class KreinKitError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(KreinKitError):
    """Input expected to be Hermitian is not, beyond tolerance."""


class NotUnitary(KreinKitError):
    """Input expected to be unitary is not, beyond tolerance."""


class NumericalFailure(KreinKitError):
    """A backend decomposition failed or a residual check did not converge."""


class _Positioned(KreinKitError):
    """position is the flat index of the first failing entry of an array."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


class SingularMatrix(_Positioned):
    """Linear solve hit a (numerically) singular matrix."""


class RankDeficientInput(KreinKitError):
    """Columns expected to be independent are not."""


class UnitEigenvalue(KreinKitError):
    """A Cayley transform has eigenvalue 1: the inverse transform is not a
    (single-valued) self-adjoint operator."""


class NotAnExtension(KreinKitError):
    """Matrix does not agree with the reference on the restricted domain."""


class SpectralParameter(_Positioned):
    """The spectral parameter z sits on (or too close to) a spectrum."""


class NotInvariant(KreinKitError):
    """A subspace expected to be invariant under an operator is not."""


class NotRelativelyPrime(KreinKitError):
    """The extension pair is degenerate for the requested operation (the
    half-line boundary angle alpha2 is pi/2 mod pi, where the closed forms
    in tan(alpha2) have their pole)."""


class SingularDenominator(KreinKitError):
    """A denominator of a closed-form or fractional-linear expression is
    (numerically) zero, e.g. z at a bound state."""


class RealParameter(KreinKitError):
    """z is real where a non-real spectral parameter is required."""


class BranchCut(KreinKitError):
    """z lies on the branch cut [0, +inf) of the upper square root."""


class GridTooCoarse(KreinKitError):
    """Quadrature self-check residual exceeded the grid's tolerance."""


class BadDimensions(KreinKitError):
    """Scenario or CLI input violates the documented size constraints."""
