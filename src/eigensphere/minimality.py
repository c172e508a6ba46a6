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

Both checks draw their samples through geometry._quota, the one loop that
also serves geometry.sample, each with its own measure of a chunk of
converged points, one float row per point, where nan drops the point:
codimension 1 evaluates the reliable criterion on the whole chunk at once
(nan where its bound fails), codimension 2 its mean-curvature components
in one call of geometry._curvature_components, mean_curvature without the
guards that Newton's stop already passed.
Both read the kept points from _quota's PointCloud and the kept rows as one
array, and one function grades the sampled values for both.  Verdicts are
graded: ExactMinimal needs a symbolic certificate; NumericMinimal needs the
full sample quota below tol; NotMinimal needs a reliable witness above the
reject threshold; everything else is Inconclusive.  The gap between tol
(1e-8) and reject (1e-3) keeps borderline noise from flapping verdicts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import gcd, isfinite, pi
from typing import Dict, Optional, Tuple

import numpy as np

from .calculus import gradient, hess_grad_grad, kappa
from .eigen import require_eigenfunction, require_harmonic
from .errors import (
    BothZero,
    EmptyFiber,
    InsufficientYield,
    SingularFiber,
    ZeroLine,
    ZeroPolynomial,
)
from .geometry import CompiledPolys, VarietySpec, _curvature_components, _quota

# not called here: the name stays importable because the benchmark tracer's
# alias test patches and restores it in this module
from .geometry import newton_project  # noqa: F401
from .parsing import render
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
        """The fields in declaration order, leaving out unset ones (None) and
        empty diagnostics; set falsy values such as max_residual 0.0 stay."""
        return {f.name: value for f in fields(self)
                if (value := getattr(self, f.name)) is not None and value != {}}


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


def _check_thresholds(samples: int, tol: float, reject: float) -> None:
    """Refuse a sample count below 1 and thresholds that cannot separate the
    verdicts: need 0 < tol < reject, both finite."""
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
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
    A constant F with a nonzero pullback has no fiber and raises EmptyFiber.
    """
    _check_thresholds(samples, tol, reject)
    # homogeneous, harmonic and kappa(F,F) = 0: exactly the conditions under
    # which every line preimage of F is a minimal cone candidate
    degree = require_eigenfunction(F, n).k
    P = line_pullback(F, a, b)
    if P.is_zero():
        raise ZeroPolynomial(
            "the line pullback vanishes identically; the fiber is not a hypersurface"
        )
    if degree == 0:
        raise EmptyFiber("the line pullback is a nonzero constant; its fiber is empty")
    Q = hess_grad_grad(P)

    if Q.is_zero():
        certificate = "Q ≡ 0"
    elif (quotient := Q.exact_divide(P)) is not None:
        certificate = render(quotient)
    else:
        certificate = None
    verdict = MinimalityVerdict(
        INCONCLUSIVE if certificate is None else EXACT_MINIMAL, certificate=certificate)
    if certificate is None or cross_check:
        _attach_numeric(verdict, P, Q, samples, tol, reject, rng_seed)
    return verdict


def _attach_numeric(
    verdict: MinimalityVerdict,
    P: Polynomial,
    Q: Polynomial,
    samples: int,
    tol: float,
    reject: float,
    rng_seed: int,
) -> None:
    """Sample the fiber and evaluate the normalized criterion q = Q/|grad P|^3.

    The criterion and its bound are evaluated on each chunk of converged
    points at once, one call per compiled table.  Each sample carries a
    first-order reliability bound: the Newton residual |P(x)| displaces the
    point from the exact fiber by about |P|/|grad P|, which perturbs Q by
    |grad Q| times that, and evaluation roundoff adds at most
    gamma * sum_a |c_a| |x^a| for Q = sum_a c_a x^a, the dot-product bound
    with gamma = (deg Q + number of terms) * 2^-53.  Samples whose bound
    exceeds tol/10 cannot attest |q| < tol, read nan, are not kept by _quota
    and are tallied unreliable (converged minus kept); this is also what
    enforces the submersion hypothesis, since the bound blows up exactly
    where |grad P| degenerates.  A verdict without a certificate is graded
    from the samples; a certified one only records the sampled maximum.
    """
    spec = VarietySpec(P.nvars, [P])
    q_forms = CompiledPolys(P.nvars, [Q, *gradient(Q)], (P.nvars + 1,))
    # sum_a |c_a| x^a: Q's own table with its coefficients made absolute (Q is real)
    q_magnitude = CompiledPolys(P.nvars, [Q], ())
    np.abs(q_magnitude.coefficients, out=q_magnitude.coefficients)
    # Q = 0 (a linear P) evaluates exactly: no roundoff term, and no degree
    gamma = 0.0 if Q.is_zero() else (Q.degree() + Q.num_terms()) * 2.0**-53
    # Newton cannot push |P| below P's own roundoff, at most gamma_P * sum_a |c_a|
    # on the sphere (every |x^a| <= 1); the floor can bind only for tol < 1e-8
    # a float sum: P's coefficients compiled above, and a sum past the float range is inf
    p_mass = sum(abs(re) for _exps, re in P.real_float_items())
    p_roundoff = (P.degree() + P.num_terms()) * 2.0**-53 * p_mass
    newton_tol = min(1e-13, max(tol * 1e-5, 4 * p_roundoff))

    def reliable_criterion(x: np.ndarray) -> np.ndarray:
        p_val = np.abs(spec.values(x)[:, 1])  # column 0 is the sphere
        gp = np.linalg.norm(spec.jacobian(x)[:, 1], axis=1)
        forms = q_forms(x)
        gq = np.linalg.norm(forms[:, 1:], axis=1)
        error_bound = (gq * (p_val / gp) + gamma * q_magnitude(np.abs(x))) / gp**3
        return np.where(error_bound > tol / 10, np.nan, forms[:, 0] / gp**3)

    max_attempts = 30 * samples
    cloud, values, _shortfall = _quota(
        spec, samples, rng_seed, max_attempts, reliable_criterion, tol=newton_tol, maxiter=60)
    tallies = cloud.metadata["outcomes"]
    outcomes = dict(tallies, unreliable=tallies["converged"] - len(cloud))
    verdict.diagnostics["sampling"] = dict(outcomes, attempts=sum(tallies.values()))
    if not len(cloud):
        if verdict.certificate is None:
            raise InsufficientYield(
                f"no reliable fiber samples in {max_attempts} attempts (outcomes: {outcomes})")
        verdict.diagnostics["numeric_cross_check"] = "no reliable samples"
        return
    if verdict.certificate is None:
        _decide(
            verdict, cloud.points, cloud.residuals, values, samples, tol, reject,
            "max |criterion| =",
            f"criterion below tolerance, but only {len(cloud)} of {samples} "
            f"requested reliable samples were collected",
        )
    else:
        verdict.samples = len(cloud)
        verdict.max_residual = float(np.max(np.abs(values)))


def _decide(
    verdict: MinimalityVerdict,
    points: np.ndarray,
    residuals: np.ndarray,
    values: np.ndarray,
    quota: int,
    tol: float,
    reject: float,
    quantity: str,
    shortfall: Optional[str],
) -> None:
    """Grade sampled criterion values; sets samples, max_residual, status, witness, reason.

    NotMinimal needs one value above reject, whose point becomes the witness
    with its residual, Newton's max |g_a| at the step that converged;
    NumericMinimal needs the full quota below tol; anything else is
    Inconclusive, with the shortfall reason when every value is below tol
    and the quota is not full.  points (k, N), residuals and values (k,)
    must not be empty.
    """
    magnitudes = np.abs(values)
    worst = int(np.argmax(magnitudes))
    max_abs = float(magnitudes[worst])
    verdict.samples = len(points)
    verdict.max_residual = max_abs
    if max_abs > reject:
        verdict.status = NOT_MINIMAL
        verdict.witness = {
            "point": [float(c) for c in points[worst]],
            "residual": float(residuals[worst]),
            "criterion": float(values[worst]),
        }
    elif max_abs < tol and len(points) >= quota:
        verdict.status = NUMERIC_MINIMAL
    else:
        verdict.status = INCONCLUSIVE
        verdict.reason = shortfall if max_abs < tol else (
            f"{quantity} {max_abs:.3e} lies between tol {tol:.1e} and reject {reject:.1e}"
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

    Preconditions are structural: F homogeneous and harmonic, the harmonic
    half of the eigen gate (this is what makes both real constraints
    restrict to sphere eigenfunctions).  Whether
    the bilinear square kappa(F,F) also vanishes is echoed in diagnostics;
    minimality is expected exactly in that isotropic case, so running the
    check on other harmonic F is a genuine test, not a tautology.
    Transversality failures surface as SingularFiber, an empty intersection
    as EmptyFiber.  Both are raised before any attempt when F alone decides
    them: SingularFiber for a complex multiple of a real polynomial (the two
    constraints are proportional, or one of them is zero, so their gradients
    are parallel everywhere), EmptyFiber for a nonzero constant F.  The points
    come from geometry._quota exactly as geometry.sample draws them: at most
    10*samples attempts, the default Newton settings and the same shortfall
    message, with one _curvature_components call per chunk as the measure
    (mean_curvature without its off-variety and regularity guards, which
    Newton's stop already passed); a sample whose components contain nan is
    dropped, not graded.
    """
    _check_thresholds(samples, tol, reject)
    k = require_harmonic(F, n)
    if k == 0:
        raise EmptyFiber("a nonzero constant has no zero on the sphere")
    u, v = F.real_imag_parts()
    # Re F and Im F are linearly dependent exactly when F times the conjugate
    # of its leading coefficient is real
    if (F * F.leading_term()[1].conjugate()).is_real():
        if u.is_zero() or v.is_zero():
            detail = (f"the {'real' if u.is_zero() else 'imaginary'} part of F vanishes "
                      "identically; its gradient is zero")
        else:
            detail = "Re F and Im F are proportional; their gradients are parallel"
        raise SingularFiber(
            f"{detail} everywhere, so no fiber point meets the regularity threshold")
    kappa_zero = kappa(F, F).is_zero()

    spec = VarietySpec(F.nvars, [u, v])

    # Newton kept only points with residual < 1e-12 < OFF_VARIETY_TOL and a
    # smallest singular value >= EPS_REG, so mean_curvature's guards would pass
    cloud, components, shortfall = _quota(
        spec, samples, rng_seed, 10 * samples, lambda points: _curvature_components(spec, points))
    tallies = cloud.metadata["outcomes"]
    if not len(cloud):
        if tallies["singular"] > 0:
            raise SingularFiber(
                "every located fiber point fails the regularity threshold "
                f"(outcomes: {tallies})"
            )
        raise EmptyFiber(f"no point of the fiber was found on the sphere (outcomes: {tallies})")

    # components (k, 3): the radial component, then the two normal ones
    dimension = F.nvars - 1 - 2
    verdict = MinimalityVerdict(
        INCONCLUSIVE,
        diagnostics={
            "kappa_zero": kappa_zero,
            "degree": k,
            "fiber_dimension": dimension,
            # the radial component is -dim M on the sphere
            "max_radial_error": float(np.max(np.abs(components[:, 0] + dimension))),
            "sampling": tallies,
        },
    )
    if F == complex_variable(F.nvars, 1) ** k + complex_variable(F.nvars, 2) ** k:
        verdict.diagnostics["flat_section_max_residual"] = float(
            np.max(flat_section_residuals(cloud.points, k)))
    _decide(verdict, cloud.points, cloud.residuals, np.max(np.abs(components[:, 1:]), axis=1),
            samples, tol, reject, "max normal component", shortfall)
    return verdict


def flat_section_residuals(points: np.ndarray, k: int) -> np.ndarray:
    """Distance of each of the points (B, N) to the nearest flat section of z1^k + z2^k.

    The fiber of z1^k + z2^k lies on the union of complex planes
    {z1 = zeta*z2} over the k-th roots zeta of -1; returns per-point
    min_zeta |z1 - zeta*z2|.
    """
    roots = np.exp(1j * (pi + 2 * pi * np.arange(k)) / k)
    z1 = points[:, 0] + 1j * points[:, 1]
    z2 = points[:, 2] + 1j * points[:, 3]
    return np.min(np.abs(z1[:, None] - roots * z2[:, None]), axis=1)


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
        return {
            "difference": render(self.difference),
            "cross": render(self.cross),
            "horizontally_conformal": self.horizontally_conformal,
        }


def conformality_diagnostics(F: Polynomial) -> ConformalityReport:
    # kappa(F,F) = kappa(u,u) - kappa(v,v) + 2i*kappa(u,v) for real u, v
    difference, twice_cross = kappa(F, F).real_imag_parts()
    return ConformalityReport(difference=difference, cross=twice_cross * Fraction(1, 2))


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


@dataclass(frozen=True)
class LawsonSurface:
    """The surface Im(z1^n * conj(z2)^m) = 0 in S^3 and its components.

    With g = gcd(n, m), z1^n * conj(z2)^m = w^g for w = z1^(n/g) * conj(z2)^(m/g),
    and w^g is real exactly on g lines through 0 in the w-plane.  So the
    surface is g phase-rotated copies of the one of the reduced pair
    (n/g, m/g), which meet only where w = 0: on the circle z1 = 0 when
    n > 0 and on z2 = 0 when m > 0.  `type` is classify_lawson(n, m), the
    parity rule, which reads the whole surface as one and so is right only
    when g == 1; `reduced_type` is the type of each component.
    """

    type: LawsonType
    components: int
    reduced_pair: Tuple[int, int]
    reduced_type: LawsonType
    singular_circles: int

    def to_json(self) -> dict:
        return {
            "type": self.type.value,
            "components": self.components,
            "reduced_pair": list(self.reduced_pair),
            "reduced_type": self.reduced_type.value,
            "singular_circles": self.singular_circles,
        }


def lawson_surface(n: int, m: int) -> LawsonSurface:
    """classify_lawson(n, m) together with the components of the surface."""
    surface_type = classify_lawson(n, m)
    g = gcd(n, m)
    reduced = (n // g, m // g)
    # every component contains the circles where w vanishes
    shared = (n > 0) + (m > 0) if g > 1 else 0
    return LawsonSurface(surface_type, g, reduced, classify_lawson(*reduced), shared)


def lawson_polynomial(n: int, m: int) -> Polynomial:
    """z1^n * conj(z2)^m expanded over the real variables x1..x4."""
    if n == 0 and m == 0:
        raise BothZero("exponents (0, 0) do not define a surface")
    return complex_variable(4, 1) ** n * complex_variable(4, 2).conjugate() ** m
