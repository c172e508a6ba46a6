"""Exception types shared across the package.

Every error raised by the library derives from EigenSphereError, so callers
can catch one base class.  Most types also inherit the closest builtin
(ValueError, RuntimeError, ...) to stay friendly to generic handlers.
"""

from __future__ import annotations


class EigenSphereError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(EigenSphereError, ValueError):
    """Operands or inputs disagree on the number of ambient variables."""


class ZeroPolynomial(EigenSphereError, ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


class DivisionByZeroPolynomial(EigenSphereError, ZeroDivisionError):
    """Exact division by the zero polynomial."""


class IndexOutOfRange(EigenSphereError, IndexError):
    """A 1-based variable or pole index lies outside 1..nvars."""


class ParseError(EigenSphereError, SyntaxError):
    """Malformed polynomial expression; `pos` is the 0-based offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class VariableOutOfRange(ParseError):
    """Variable reference outside the declared ambient dimension."""


class NegativeExponent(ParseError):
    """Exponent after '^' must be a non-negative integer literal."""


class SphereDimensionTooSmall(EigenSphereError, ValueError):
    """Sphere dimension n must be at least 2."""


class MixedDegrees(EigenSphereError, ValueError):
    """Family members are individually valid but have different degrees."""


class NotAnEigenfunction(EigenSphereError, ValueError):
    """Precondition failure: the input does not satisfy the eigenfunction
    conditions; carries the verification report when available."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NonConvergence(EigenSphereError, RuntimeError):
    """Newton projection did not reach the tolerance within maxiter."""


class SingularJacobian(EigenSphereError, RuntimeError):
    """Constraint Jacobian is rank deficient at the point of interest."""


class InsufficientYield(EigenSphereError, RuntimeError):
    """Sampling produced too few converged points; carries the partial cloud."""

    def __init__(self, message: str, cloud=None):
        super().__init__(message)
        self.cloud = cloud


class OffVariety(EigenSphereError, ValueError):
    """Point does not satisfy the constraints within tolerance."""


class PoleSingularity(EigenSphereError, ValueError):
    """Stereographic projection evaluated at (or too close to) the pole."""


class ZeroLine(EigenSphereError, ValueError):
    """Line coefficients (a, b) must not both vanish."""


class BothZero(EigenSphereError, ValueError):
    """Surface exponents (n, m) must not both vanish."""


class EmptyFiber(EigenSphereError, RuntimeError):
    """No point of the fiber was found on the sphere."""


class SingularFiber(EigenSphereError, RuntimeError):
    """Every located fiber point failed the regularity threshold."""


class BudgetExceeded(EigenSphereError, MemoryError):
    """The work or memory an input needs is over a fixed budget."""
