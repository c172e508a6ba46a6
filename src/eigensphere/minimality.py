"""Minimality decision procedures for level sets of eigenfunctions.

Two geometric situations are covered:

  * codimension 1: the preimage of a line a*Re F + b*Im F = 0 intersected
    with the sphere.  Minimality is equivalent to the vanishing of
    Q = Hess P(grad P, grad P) on the fiber, where P is the line pullback.
    The decision ladder tries exact certificates first (Q identically zero,
    or P divides Q exactly, which forces Q to vanish on {P = 0}) and falls
    back to sampling the normalized criterion q = Q/|grad P|^3, which is the
    cone mean curvature and therefore dimensionless.

  * codimension 2: the full zero fiber {Re F = Im F = 0} on the sphere,
    verified by the mean-curvature components of the geometry layer.

Verdicts are graded: ExactMinimal needs a symbolic certificate; NumericMinimal
needs the full sample quota below tol; NotMinimal needs a reliable witness
above the reject threshold; everything else is Inconclusive.  The gap between
tol (1e-8) and reject (1e-3) keeps borderline noise from flapping verdicts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isfinite, pi
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .calculus import gradient, hess_grad_grad, kappa, laplacian
from .eigen import check_sphere_dimension, require_eigenfunction
from .errors import (
    BothZero,
    EmptyFiber,
    InsufficientYield,
    NotAnEigenfunction,
    SingularFiber,
    ZeroLine,
    ZeroPolynomial,
)
from .geometry import CompiledPolys, VarietySpec, _projections, mean_curvature, sample

# not called here: the name stays importable because the benchmark tracer's
# alias test patches and restores it in this module
from .geometry import newton_project  # noqa: F401
from .polynomial import Polynomial, complex_variable

EXACT_MINIMAL = "ExactMinimal"
NUMERIC_MINIMAL = "NumericMinimal"
NOT_MINIMAL = "NotMinimal"
INCONCLUSIVE = "Inconclusive"

DEFAULT_SAMPLES = 200
DEFAULT_TOL = 1e-8
DEFAULT_REJECT = 1e-3


@dataclass
class MinimalityVerdict:
    status: str
    certificate: Optional[str] = None  # ExactMinimal: "Q ≡ 0" or the exact quotient
    samples: Optional[int] = None
    max_residual: Optional[float] = None  # max |normalized criterion| over samples
    witness: Optional[Dict] = None  # NotMinimal: point, residual, criterion
    reason: Optional[str] = None  # Inconclusive: what blocked the decision
    diagnostics: Dict = field(default_factory=dict)

    def is_minimal(self) -> bool:
        return self.status in (EXACT_MINIMAL, NUMERIC_MINIMAL)

    def to_json(self) -> dict:
        payload: Dict = {"status": self.status}
        if self.certificate is not None:
            payload["certificate"] = self.certificate
        if self.samples is not None:
            payload["samples"] = self.samples
        if self.max_residual is not None:
            payload["max_residual"] = self.max_residual
        if self.witness is not None:
            payload["witness"] = self.witness
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.diagnostics:
            payload["diagnostics"] = self.diagnostics
        return payload


class LawsonType(enum.Enum):
    SPHERE = "Sphere"
    TORUS = "Torus"
    KLEIN_BOTTLE = "KleinBottle"


def line_pullback(F: Polynomial, a, b) -> Polynomial:
    """The real polynomial a*Re F + b*Im F, with (a, b) scaled canonically.

    (a, b) is normalized by a positive rational factor to a coprime integer
    pair, which the minimality criterion cannot see (it is invariant under
    positive rescaling of the line direction).  No square roots are taken.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 and b == 0:
        raise ZeroLine("line direction (0, 0) does not define a line")
    common_denom = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    ai = int(a * common_denom)
    bi = int(b * common_denom)
    g = gcd(abs(ai), abs(bi))
    ai //= g
    bi //= g
    u, v = F.real_imag_parts()
    return ai * u + bi * v


def _check_thresholds(tol: float, reject: float) -> None:
    """Refuse thresholds that cannot separate the verdicts: need 0 < tol < reject."""
    if not (isfinite(tol) and isfinite(reject) and 0 < tol < reject):
        raise ValueError(
            f"thresholds must be finite with 0 < tol < reject, got tol {tol!r} "
            f"and reject {reject!r}"
        )


def check_minimal_codim1(
    F: Polynomial,
    a,
    b,
    n: int,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    reject: float = DEFAULT_REJECT,
    rng_seed: int = 0,
    cross_check: bool = False,
) -> MinimalityVerdict:
    """Decide minimality of {a*Re F + b*Im F = 0} in S^n.

    Ladder: exact certificate (criterion identically zero, or exact
    divisibility by the pullback), then numeric sampling of the normalized
    criterion.  cross_check=True additionally runs the numeric stage even
    when an exact certificate was found, recording the sampled maximum.
    """
    _check_thresholds(tol, reject)
    # homogeneous, harmonic and kappa(F,F) = 0: exactly the conditions under
    # which every line preimage of F is a minimal cone candidate
    degree = require_eigenfunction(F, n).k
    P = line_pullback(F, a, b)
    if P.is_zero():
        raise ZeroPolynomial(
            "the line pullback vanishes identically; the fiber is not a hypersurface"
        )
    Q = hess_grad_grad(P)

    if Q.is_zero():
        verdict = MinimalityVerdict(EXACT_MINIMAL, certificate="Q ≡ 0")
        if cross_check and degree >= 1:
            _attach_numeric(verdict, P, Q, n, samples, tol, reject, rng_seed)
        return verdict

    quotient = Q.exact_divide(P)
    if quotient is not None:
        from .parsing import render

        verdict = MinimalityVerdict(EXACT_MINIMAL, certificate=render(quotient))
        if cross_check:
            _attach_numeric(verdict, P, Q, n, samples, tol, reject, rng_seed)
        return verdict

    verdict = MinimalityVerdict(INCONCLUSIVE)
    _attach_numeric(verdict, P, Q, n, samples, tol, reject, rng_seed, decide=True)
    return verdict


def _attach_numeric(
    verdict: MinimalityVerdict,
    P: Polynomial,
    Q: Polynomial,
    n: int,
    samples: int,
    tol: float,
    reject: float,
    rng_seed: int,
    decide: bool = False,
) -> None:
    """Sample the fiber and evaluate the normalized criterion q = Q/|grad P|^3.

    Each sample carries a first-order reliability bound: the Newton residual
    |P(x)| displaces the point from the exact fiber by about |P|/|grad P|,
    which perturbs Q by |grad Q| times that, and evaluation roundoff adds
    about machine epsilon times the coefficient mass of Q.  Samples whose
    bound exceeds tol/10 cannot attest |q| < tol and are discarded; this is
    also what enforces the submersion hypothesis, since the bound blows up
    exactly where |grad P| degenerates.
    """
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    spec = VarietySpec(P.nvars, [P])
    q_forms = CompiledPolys(P.nvars, [Q, *gradient(Q)], (P.nvars + 1,))
    mass_q = Q.coefficient_l1_float()
    newton_tol = min(1e-13, tol * 1e-5)

    reliable: List[Tuple[np.ndarray, float, float]] = []
    tallies = {"converged": 0, "no_convergence": 0, "singular": 0, "unreliable": 0}
    max_attempts = 30 * samples
    projections = _projections(spec, rng_seed, max_attempts, tallies, tol=newton_tol, maxiter=60)
    for _attempt, x in projections:
        p_val = abs(spec.values(x)[1])  # row 0 is the sphere
        gp = np.linalg.norm(spec.jacobian(x)[1])
        q_val, *grad_q = q_forms(x)
        gq = np.linalg.norm(grad_q)
        criterion = q_val / gp**3
        error_bound = (gq * (p_val / gp) + 8e-16 * mass_q) / gp**3
        if error_bound > tol / 10:
            tallies["unreliable"] += 1
            continue
        reliable.append((x, criterion, error_bound))
        if len(reliable) == samples:
            break

    attempts = tallies["converged"] + tallies["no_convergence"] + tallies["singular"]
    verdict.diagnostics["sampling"] = dict(tallies, attempts=attempts)
    if not reliable:
        if decide:
            raise InsufficientYield(
                f"no reliable fiber samples in {max_attempts} attempts "
                f"(outcomes: {tallies})"
            )
        verdict.diagnostics["numeric_cross_check"] = "no reliable samples"
        return

    criterion_values = np.array([c for _x, c, _e in reliable])
    max_abs = float(np.max(np.abs(criterion_values)))
    verdict.samples = len(reliable)
    verdict.max_residual = max_abs

    if not decide:
        return

    worst = int(np.argmax(np.abs(criterion_values)))
    if max_abs > reject:
        x, criterion, _err = reliable[worst]
        verdict.status = NOT_MINIMAL
        verdict.witness = {
            "point": [float(v) for v in x],
            "residual": float(spec.residual(x)),
            "criterion": float(criterion),
        }
    elif max_abs < tol and len(reliable) >= samples:
        verdict.status = NUMERIC_MINIMAL
    elif max_abs < tol:
        verdict.status = INCONCLUSIVE
        verdict.reason = (
            f"criterion below tolerance, but only {len(reliable)} of {samples} "
            f"requested reliable samples were collected"
        )
    else:
        verdict.status = INCONCLUSIVE
        verdict.reason = (
            f"max |criterion| = {max_abs:.3e} lies between tol {tol:.1e} "
            f"and reject {reject:.1e}"
        )


def check_minimal_codim2(
    F: Polynomial,
    n: int,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    reject: float = DEFAULT_REJECT,
    rng_seed: int = 0,
) -> MinimalityVerdict:
    """Verify minimality of the full zero fiber {F = 0} in S^n.

    Preconditions are structural: F homogeneous and harmonic (this is what
    makes both real constraints restrict to sphere eigenfunctions).  Whether
    the bilinear square kappa(F,F) also vanishes is echoed in diagnostics;
    minimality is expected exactly in that isotropic case, so running the
    check on other harmonic F is a genuine test, not a tautology.
    Transversality failures surface as SingularFiber, an empty intersection
    as EmptyFiber.
    """
    _check_thresholds(tol, reject)
    if F.is_zero():
        raise ZeroPolynomial("the zero polynomial is excluded")
    check_sphere_dimension(F, n)
    k = F.homogeneity()
    if k is None:
        raise NotAnEigenfunction("input fails the homogeneity condition")
    lap = laplacian(F)
    if not lap.is_zero():
        raise NotAnEigenfunction("input fails the laplacian_P condition")
    kappa_zero = kappa(F, F).is_zero()

    u, v = F.real_imag_parts()
    spec = VarietySpec(F.nvars, [u, v])
    try:
        cloud = sample(spec, samples, rng_seed)
        shortfall_note = None
    except InsufficientYield as err:
        cloud = err.cloud
        outcomes = cloud.metadata["outcomes"]
        if len(cloud) == 0:
            if outcomes["singular"] > 0:
                raise SingularFiber(
                    "every located fiber point fails the regularity threshold "
                    f"(outcomes: {outcomes})"
                ) from err
            raise EmptyFiber(
                f"no point of the fiber was found on the sphere (outcomes: {outcomes})"
            ) from err
        shortfall_note = str(err)

    worst_normal = 0.0
    worst_point: Optional[np.ndarray] = None
    radial_errors = []
    expected_radial = -(F.nvars - 1 - 2)
    for x in cloud.points:
        curvature = mean_curvature(spec, x)
        local = float(np.max(np.abs(curvature.normal_components)))
        radial_errors.append(abs(curvature.radial_component - expected_radial))
        if local > worst_normal:
            worst_normal = local
            worst_point = x

    verdict = MinimalityVerdict(
        INCONCLUSIVE,
        samples=len(cloud),
        max_residual=worst_normal,
        diagnostics={
            "kappa_zero": kappa_zero,
            "degree": k,
            "fiber_dimension": F.nvars - 1 - 2,
            "max_radial_error": float(max(radial_errors)) if radial_errors else None,
            "sampling": cloud.metadata["outcomes"],
        },
    )
    flat = _flat_section_residuals(F, cloud.points)
    if flat is not None:
        verdict.diagnostics["flat_section_max_residual"] = float(np.max(flat)) if flat.size else 0.0

    if worst_normal > reject:
        verdict.status = NOT_MINIMAL
        verdict.witness = {
            "point": [float(c) for c in worst_point],
            "residual": float(spec.residual(worst_point)),
            "criterion": worst_normal,
        }
    elif worst_normal < tol and len(cloud) >= samples:
        verdict.status = NUMERIC_MINIMAL
    elif worst_normal < tol:
        verdict.reason = shortfall_note or (
            f"only {len(cloud)} of {samples} requested samples converged"
        )
    else:
        verdict.reason = (
            f"max normal component {worst_normal:.3e} lies between tol {tol:.1e} "
            f"and reject {reject:.1e}"
        )
    return verdict


def _flat_section_residuals(F: Polynomial, points: np.ndarray) -> Optional[np.ndarray]:
    """For F = z1^k + z2^k: distance of samples to the nearest flat section.

    The fiber of z1^k + z2^k lies on the union of complex planes
    {z1 = zeta*z2} over k-th roots zeta of -1; returns per-point
    min_zeta |z1 - zeta*z2|, or None when F is not of this shape.
    """
    if F.nvars < 4 or F.is_zero():
        return None
    k = F.degree()
    if k < 1:
        return None
    model = complex_variable(F.nvars, 1) ** k + complex_variable(F.nvars, 2) ** k
    if F != model:
        return None
    return flat_section_residuals(points, k)


def flat_section_residuals(points: np.ndarray, k: int) -> np.ndarray:
    """Per-point min over k-th roots zeta of -1 of |z1 - zeta*z2|."""
    roots = np.exp(1j * (pi + 2 * pi * np.arange(k)) / k)
    out = []
    for x in points:
        z1 = complex(x[0], x[1])
        z2 = complex(x[2], x[3])
        out.append(min(abs(z1 - zeta * z2) for zeta in roots))
    return np.array(out)


@dataclass(frozen=True)
class ConformalityReport:
    """Exact first-order conformality data of a complex polynomial.

    difference = kappa(u,u) - kappa(v,v) and cross = kappa(u,v) for
    F = u + i*v; both vanish identically exactly when kappa(F,F) = 0,
    i.e. when F is horizontally conformal with equal eigenvalues.
    """

    difference: Polynomial
    cross: Polynomial

    @property
    def horizontally_conformal(self) -> bool:
        return self.difference.is_zero() and self.cross.is_zero()

    def to_json(self) -> dict:
        from .parsing import render

        return {
            "difference": render(self.difference),
            "cross": render(self.cross),
            "horizontally_conformal": self.horizontally_conformal,
        }


def conformality_diagnostics(F: Polynomial) -> ConformalityReport:
    u, v = F.real_imag_parts()
    return ConformalityReport(difference=kappa(u, u) - kappa(v, v), cross=kappa(u, v))


def classify_lawson(n: int, m: int) -> LawsonType:
    """Topological type of the surface Im(z1^n * conj(z2)^m) = 0 in S^3.

    n = 0 or m = 0 gives a sphere; otherwise the parity of n*m decides
    between torus (odd) and Klein bottle (even).
    """
    if n < 0 or m < 0:
        raise ValueError(f"exponents must be non-negative, got ({n}, {m})")
    if n == 0 and m == 0:
        raise BothZero("exponents (0, 0) do not define a surface")
    if n == 0 or m == 0:
        return LawsonType.SPHERE
    return LawsonType.TORUS if (n * m) % 2 == 1 else LawsonType.KLEIN_BOTTLE


def lawson_polynomial(n: int, m: int) -> Polynomial:
    """z1^n * conj(z2)^m expanded over the real variables x1..x4."""
    if n == 0 and m == 0:
        raise BothZero("exponents (0, 0) do not define a surface")
    return complex_variable(4, 1) ** n * complex_variable(4, 2).conjugate() ** m
