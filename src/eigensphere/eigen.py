"""Verification of complex eigenfunctions on round spheres.

A homogeneous polynomial P of degree k on R^{n+1} restricts to a function on
the unit sphere S^n satisfying

    Delta_S (P|_S) = lambda * P|_S      with lambda = -k(k+n-1)
    (grad_S P, grad_S P) = mu * P^2     with mu = -k^2

(complex-bilinear products throughout) if and only if P is harmonic and the
flat bilinear square kappa(P, P) vanishes identically; the latter is
equivalent to harmonicity of P^2.  This module checks those exact symbolic
conditions, fills in lambda and mu, and cross-validates them against
finite-difference oracles that touch only floating-point point evaluation.

Sign convention: Delta = div(grad), so sphere eigenvalues are non-positive.
The exact conditions (Delta P = 0, Delta P^2 = 0, kappa(P,P) = 0) do not
depend on the convention; only the sign of the reported lambda does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .calculus import kappa, laplacian
from .errors import (
    DimensionMismatch,
    MixedDegrees,
    NotAnEigenfunction,
    SphereDimensionTooSmall,
    ZeroPolynomial,
)
from .polynomial import Polynomial


@dataclass(frozen=True)
class ConditionFailure:
    """Which exact condition failed, with its symbolic residual."""

    condition: str  # "homogeneity" | "laplacian_P" | "laplacian_P2"
    residual: Polynomial

    def to_json(self) -> dict:
        from .parsing import render

        return {"condition": self.condition, "residual": render(self.residual)}


@dataclass(frozen=True)
class EigenReport:
    is_eigen: bool
    k: Optional[int]
    n: int
    lam: Optional[Fraction]
    mu: Optional[Fraction]
    failure: Optional[ConditionFailure]

    def to_json(self) -> dict:
        def number(q: Optional[Fraction]):
            if q is None:
                return None
            return int(q) if q.denominator == 1 else str(q)

        return {
            "is_eigen": self.is_eigen,
            "k": self.k,
            "n": self.n,
            "lambda": number(self.lam),
            "mu": number(self.mu),
            "failure": self.failure.to_json() if self.failure else None,
        }


def _flat_conditions(P: Polynomial) -> Tuple[Optional[int], Optional[ConditionFailure]]:
    """Exact flat checks: homogeneous, harmonic, harmonic square.

    Returns (degree, None) on success and (degree or None, failure) otherwise.
    These conditions are independent of the sphere dimension.
    """
    if P.is_zero():
        raise ZeroPolynomial("the zero polynomial is excluded")
    k = P.homogeneity()
    if k is None:
        top = P.degree()
        mixed = P - Polynomial(P.nvars, {e: c for e, c in P.items() if sum(e) == top})
        return None, ConditionFailure("homogeneity", mixed)
    lap = laplacian(P)
    if not lap.is_zero():
        return k, ConditionFailure("laplacian_P", lap)
    lap_sq = laplacian(P * P)
    kap = kappa(P, P)
    # With laplacian(P) = 0 the product rule forces laplacian(P^2) = 2*kappa(P,P);
    # computing both guards the implementation against itself.
    if lap_sq != 2 * kap:
        raise AssertionError("product-rule cross-check failed; calculus layer is broken")
    if not lap_sq.is_zero():
        return k, ConditionFailure("laplacian_P2", lap_sq)
    return k, None


def check_sphere_dimension(P: Polynomial, n: int) -> None:
    """Require S^n with n >= 2 and P in its n+1 ambient variables."""
    if n < 2:
        raise SphereDimensionTooSmall(f"sphere dimension must be >= 2, got {n}")
    if P.nvars != n + 1:
        raise DimensionMismatch(
            f"polynomial has {P.nvars} variables; the sphere S^{n} needs {n + 1}"
        )


def verify_eigenfunction(P: Polynomial, n: int) -> EigenReport:
    """Full exact check that P restricts to an eigenfunction of S^n.

    Requires P in n+1 variables, n >= 2.  On success lambda = -k(k+n-1)
    and mu = -k^2 exactly.
    """
    check_sphere_dimension(P, n)
    k, failure = _flat_conditions(P)
    if failure is not None:
        return EigenReport(False, k, n, None, None, failure)
    lam = Fraction(-k * (k + n - 1))
    mu = Fraction(-k * k)
    return EigenReport(True, k, n, lam, mu, None)


def require_eigenfunction(P: Polynomial, n: int) -> EigenReport:
    """verify_eigenfunction, raising NotAnEigenfunction (carrying the report) on failure."""
    report = verify_eigenfunction(P, n)
    if not report.is_eigen:
        raise NotAnEigenfunction(
            f"input fails the {report.failure.condition} condition", report=report
        )
    return report


@dataclass(frozen=True)
class FamilyReport:
    is_family: bool
    k: Optional[int]
    n: int
    lam: Optional[Fraction]
    mu: Optional[Fraction]
    member_reports: Tuple[EigenReport, ...]
    failing_pair: Optional[Tuple[int, int]]
    pair_residual: Optional[Polynomial]

    def to_json(self) -> dict:
        from .parsing import render

        payload = {
            "is_family": self.is_family,
            "k": self.k,
            "n": self.n,
            "lambda": None if self.lam is None else int(self.lam),
            "mu": None if self.mu is None else int(self.mu),
            "members": [r.to_json() for r in self.member_reports],
        }
        if self.failing_pair is not None:
            payload["failing_pair"] = list(self.failing_pair)
            payload["pair_residual"] = render(self.pair_residual)
        return payload


def verify_eigenfamily(Ps: Sequence[Polynomial], n: int) -> FamilyReport:
    """Pairwise eigenfamily check.

    Every member must pass verify_eigenfunction with one common degree k, and
    every pair must satisfy the bilinear relation on the sphere.  Since each
    member is harmonic and homogeneous of degree k, the sphere relation
    (grad_S Pi, grad_S Pj) = mu*Pi*Pj reduces exactly to the flat identity
    kappa(Pi, Pj) = 0: the tangential correction -(E Pi)(E Pj)/r^2 already
    contributes the whole -k^2*Pi*Pj on the unit sphere.
    """
    if not Ps:
        raise ZeroPolynomial("an eigenfamily needs at least one member")
    reports = tuple(verify_eigenfunction(P, n) for P in Ps)
    if not all(r.is_eigen for r in reports):
        return FamilyReport(False, None, n, None, None, reports, None, None)
    degrees = {r.k for r in reports}
    if len(degrees) > 1:
        raise MixedDegrees(
            f"members are individually valid but have degrees {sorted(degrees)}"
        )
    k = degrees.pop()
    for i in range(len(Ps)):
        for j in range(i + 1, len(Ps)):
            residual = kappa(Ps[i], Ps[j])
            if not residual.is_zero():
                return FamilyReport(False, k, n, None, None, reports, (i, j), residual)
    return FamilyReport(
        True, k, n, Fraction(-k * (k + n - 1)), Fraction(-k * k), reports, None, None
    )


def power_harmonicity_check(P: Polynomial, mmax: int) -> bool:
    """All powers P^m, 2 <= m <= mmax, are harmonic.

    Requires P to pass the flat eigen conditions first; this is the
    inductive consequence of the product rule, checked symbolically.
    """
    k, failure = _flat_conditions(P)
    if failure is not None:
        report = EigenReport(False, k, max(P.nvars - 1, 1), None, None, failure)
        raise NotAnEigenfunction(
            f"input fails the {failure.condition} condition", report=report
        )
    power = P * P
    for m in range(2, mmax + 1):
        if not laplacian(power).is_zero():
            return False
        if m < mmax:
            power = power * P
    return True


def mu_relation_check(
    P: Polynomial, n: int, rng_seed: int = 0, npoints: int = 20, tol: float = 1e-5
) -> bool:
    """Consistency of mu with the eigenvalue of the squared restriction.

    With lambda_1 = -k(k+n-1) for P and lambda_2 = -2k(2k+n-1) for the
    degree-2k restriction of P^2, the exact arithmetic identity
    lambda_2/2 - lambda_1 = -k^2 = mu must hold, and the finite-difference
    spherical Laplacian of P^2 must match lambda_2 * P^2 at random points.
    """
    report = require_eigenfunction(P, n)
    k = report.k
    lam1 = Fraction(-k * (k + n - 1))
    lam2 = Fraction(-2 * k * (2 * k + n - 1))
    if lam2 / 2 - lam1 != report.mu or lam1 != report.lam:
        return False
    square = P * P
    rng = np.random.default_rng([rng_seed, 0x5EED])
    for x in unit_sphere_points(P.nvars, npoints, rng):
        fd = laplace_beltrami_fd(square, x)
        expected = float(lam2) * square.evaluate(x)
        scale = max(abs(expected), abs(square.evaluate(x)), 1e-3)
        if abs(fd - expected) > tol * scale:
            return False
    return True


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
