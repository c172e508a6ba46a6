"""Float reference implementations that the tests compare the package against.

None of these is part of the package: no command runs them, and the exact
layer never depends on them.  Each is a second, independent path to a value
that the package computes another way.

  * unit_sphere_points: seeded unit vectors for the finite-difference
    checks in test_eigen and test_acceptance (crit 2).
  * laplace_beltrami_fd, tangential_square_fd (through gradient_fd):
    finite-difference spherical Laplacian and bilinear tangential square,
    touching only Polynomial.evaluate, never the symbolic derivative
    operators; test_eigen and test_acceptance (crit 2) check lambda and mu
    against them.
  * cone_mean_curvature and DegeneratePoint: the Euclidean level-set mean
    curvature of a real polynomial, a second float path that
    test_geometry compares with geometry.mean_curvature.
  * coefficients_of, residual_norm_of, polynomial_of: conversions between a
    Polynomial and a coefficient vector of search.ResidualSystem, with which
    test_search checks the residual map against the symbolic operators.
"""

from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from eigensphere.calculus import gradient, hess_grad_grad, laplacian
from eigensphere.errors import EigenSphereError
from eigensphere.geometry import EPS_REG, CompiledPolys
from eigensphere.polynomial import GaussianRational, Polynomial
from eigensphere.search import ResidualSystem

# ---------------------------------------------------------------------------
# Finite-difference oracles.  These touch only Polynomial.evaluate, never the
# symbolic derivative operators, so they are independent witnesses.


def unit_sphere_points(nvars: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the unit sphere in R^nvars (Gaussian normalization)."""
    points = rng.standard_normal((count, nvars))
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    # a zero draw has probability zero; regenerate defensively anyway
    while np.any(norms < 1e-8):
        points = rng.standard_normal((count, nvars))
        norms = np.linalg.norm(points, axis=1, keepdims=True)
    return points / norms


def laplace_beltrami_fd(P: Polynomial, x: Sequence[float], h: float = 1e-2) -> complex:
    """Finite-difference spherical Laplacian of P|_S at a unit vector x.

    Uses the degree-zero homogeneous extension g(y) = P(y/|y|), for which the
    flat Laplacian at |x| = 1 equals the intrinsic spherical Laplacian of the
    restriction.  Fourth-order five-point stencils keep the truncation error
    near 1e-8 at h = 1e-2.
    """
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        raise ValueError("finite-difference oracle requires a unit vector")

    def g(y: np.ndarray) -> complex:
        return P.evaluate(y / np.linalg.norm(y))

    center = g(x)
    total = 0j
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        total += (
            -g(x + 2 * step)
            + 16 * g(x + step)
            - 30 * center
            + 16 * g(x - step)
            - g(x - 2 * step)
        ) / (12 * h * h)
    return total


def gradient_fd(P: Polynomial, x: Sequence[float], h: float = 1e-4) -> np.ndarray:
    """Fourth-order central-difference flat gradient (complex components)."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros(x.size, dtype=complex)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (
            -P.evaluate(x + 2 * step)
            + 8 * P.evaluate(x + step)
            - 8 * P.evaluate(x - step)
            + P.evaluate(x - 2 * step)
        ) / (12 * h)
    return grad


def tangential_square_fd(P: Polynomial, x: Sequence[float], h: float = 1e-4) -> complex:
    """Bilinear square of the tangential gradient of P|_S at unit x, by FD.

    Projects the finite-difference flat gradient tangentially to the sphere
    and takes the complex-bilinear (unconjugated) square.  For a degree-k
    eigenfunction this equals -k^2 * P(x)^2.
    """
    x = np.asarray(x, dtype=float)
    grad = gradient_fd(P, x, h)
    radial = np.dot(x, grad)  # bilinear; x is real
    tangential = grad - radial * x
    return complex(np.sum(tangential * tangential))


# ---------------------------------------------------------------------------
# Cone mean curvature


class DegeneratePoint(EigenSphereError, ValueError):
    """Gradient too small for a level-set curvature evaluation."""


def cone_mean_curvature(P: Polynomial, x: Sequence[float]) -> float:
    """Euclidean level-set mean curvature div(grad P / |grad P|) at x.

    Equals (lap(P)|grad P|^2 - HessP(gradP,gradP)) / |grad P|^3.  For a
    harmonic P on its own zero set this is -HessP(gradP,gradP)/|grad P|^3,
    whose vanishing is exactly the minimality criterion for the cone.
    Raises DegeneratePoint when |grad P| <= EPS_REG.
    """
    if not P.is_real():
        raise ValueError("cone mean curvature is defined for real polynomials")
    forms = [laplacian(P), hess_grad_grad(P), *gradient(P)]
    lap, q, *grad = CompiledPolys(P.nvars, forms, (len(forms),))(x)
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm <= EPS_REG:
        raise DegeneratePoint(f"|grad P| = {grad_norm:.3e} <= {EPS_REG:.1e}")
    return float((lap * grad_norm**2 - q) / grad_norm**3)


# ---------------------------------------------------------------------------
# Coefficient vectors of the search's residual system


def coefficients_of(P: Polynomial, basis: Sequence[Tuple[int, ...]]) -> np.ndarray:
    """Extract the complex coefficient vector of P over a monomial basis."""
    return np.array([complex(P.coefficient(e)) for e in basis])


def residual_norm_of(system: ResidualSystem, coefficients: np.ndarray) -> float:
    t = np.concatenate([coefficients.real, coefficients.imag])
    return float(np.linalg.norm(system.residual(t)))


def polynomial_of(system: ResidualSystem, coefficients: Sequence[complex]) -> Polynomial:
    terms = {}
    for exps, value in zip(system.basis, coefficients):
        terms[exps] = GaussianRational(Fraction(value.real), Fraction(value.imag))
    return Polynomial(system.nvars, terms)
