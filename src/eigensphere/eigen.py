"""Verification of complex eigenfunctions on round spheres.

A homogeneous polynomial P of degree k on R^{n+1} restricts to a function on
the unit sphere S^n satisfying

    Delta_S (P|_S) = lambda * P|_S      with lambda = -k(k+n-1)
    (grad_S P, grad_S P) = mu * P^2     with mu = -k^2

(complex-bilinear products throughout) if and only if P is harmonic and the
flat bilinear square kappa(P, P) vanishes identically; the latter is
equivalent to harmonicity of P^2.  This module alone states those exact
conditions and lambda, mu (other modules call verify_eigenfunction or its
raising forms, require_harmonic checking the harmonic half only).

Sign convention: Delta = div(grad), so sphere eigenvalues are non-positive.
The exact conditions (Delta P = 0, Delta P^2 = 0, kappa(P,P) = 0) do not
depend on the convention; only the sign of the reported lambda does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .calculus import kappa, laplacian
from .errors import (
    DimensionMismatch,
    MixedDegrees,
    NotAnEigenfunction,
    SphereDimensionTooSmall,
    ZeroPolynomial,
)
from .parsing import render
from .polynomial import Polynomial


@dataclass(frozen=True)
class ConditionFailure:
    """Which exact condition failed, with its symbolic residual."""

    condition: str  # "homogeneity" | "laplacian_P" | "laplacian_P2"
    residual: Polynomial

    def to_json(self) -> dict:
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
        return {
            "is_eigen": self.is_eigen,
            "k": self.k,
            "n": self.n,
            "lambda": None if self.lam is None else int(self.lam),
            "mu": None if self.mu is None else int(self.mu),
            "failure": self.failure.to_json() if self.failure else None,
        }


def _harmonic_conditions(P: Polynomial) -> Tuple[Optional[int], Optional[ConditionFailure]]:
    """The harmonic half of the gate: P nonzero, homogeneous and harmonic.

    Returns (degree, None) on success and (degree or None, failure) otherwise.
    Independent of the sphere dimension.
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
    return k, None


def _square_condition(P: Polynomial) -> Optional[ConditionFailure]:
    """The square step for harmonic P: laplacian(P^2) vanishes, or its failure."""
    lap_sq = laplacian(P * P)
    kap = kappa(P, P)
    # With laplacian(P) = 0 the product rule forces laplacian(P^2) = 2*kappa(P,P).
    # The two sides share no operator: the left squares P (the diagonal branch
    # of Polynomial._dot) and takes one pass over the square's terms, the right
    # multiplies the D+- derivatives of P built from partials (its general
    # branch).  So each guards the other.
    if lap_sq != 2 * kap:
        raise AssertionError("product-rule cross-check failed; calculus layer is broken")
    if not lap_sq.is_zero():
        return ConditionFailure("laplacian_P2", lap_sq)
    return None


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
    k, failure = _harmonic_conditions(P)
    if failure is None:
        failure = _square_condition(P)
    if failure is not None:
        return EigenReport(False, k, n, None, None, failure)
    return EigenReport(True, k, n, Fraction(-k * (k + n - 1)), Fraction(-k * k), None)


def _refuse(report: EigenReport) -> None:
    raise NotAnEigenfunction(
        f"input fails the {report.failure.condition} condition", report=report)


def require_eigenfunction(P: Polynomial, n: int) -> EigenReport:
    """verify_eigenfunction, raising NotAnEigenfunction (carrying the report) on failure."""
    report = verify_eigenfunction(P, n)
    if not report.is_eigen:
        _refuse(report)
    return report


def require_harmonic(P: Polynomial, n: int) -> int:
    """The degree of P if it is homogeneous and harmonic on S^n.

    The harmonic half of verify_eigenfunction, without the square step;
    raises NotAnEigenfunction, carrying the report, on failure.
    """
    check_sphere_dimension(P, n)
    k, failure = _harmonic_conditions(P)
    if failure is not None:
        _refuse(EigenReport(False, k, n, None, None, failure))
    return k


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
    return FamilyReport(True, k, n, reports[0].lam, reports[0].mu, reports, None, None)
