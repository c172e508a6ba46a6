"""Numerical geometry of polynomial varieties intersected with the sphere.

This is the floating-point layer.  Everything symbolic (constraints, their
gradients and Hessians) is prepared exactly once per VarietySpec and
compiled into CompiledPolys tables, which are the only way this layer
evaluates polynomials; Polynomial.evaluate stays as the independent witness
of the finite-difference oracles and the tests.  The numerics are Newton
projection with a rank-revealing least-squares step, seeded Gaussian
sampling (one attempt loop, shared by every sampler), and the level-set
second-fundamental-form trace that yields mean-curvature components of the
cut-out submanifold.

Conventions:
  * the sphere constraint is g0 = (|x|^2 - 1)/2, so grad g0 = x exactly;
  * the normal frame comes from one complete QR factorization
    J^T = Q R of the constraint Jacobian: the first m columns of Q, signed
    by diag(R), are the Gram-Schmidt normals nu_b of the gradient rows, so
    nu_0 is the position vector, and the remaining columns are an
    orthonormal tangent basis {e_i};
  * <H, nu_b> = -sum_i (sum_a C_ba Hess g_a)(e_i, e_i), where
    nu_b = sum_a C_ba grad g_a, i.e. C = sign(diag R) R^-T; the radial
    component (b = 0) always equals -dim M on the sphere.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import isfinite
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .calculus import gradient, hess_grad_grad, hessian, laplacian
from .errors import (
    DegeneratePoint,
    DimensionMismatch,
    InsufficientYield,
    NonConvergence,
    OffVariety,
    PoleSingularity,
    SingularJacobian,
)
from .polynomial import Polynomial, r_squared

DEFAULT_TOL = 1e-12
DEFAULT_EPS_REG = 1e-8
DEFAULT_MAXITER = 50


def sphere_constraint(nvars: int) -> Polynomial:
    """g0 = (x1^2 + ... + xN^2 - 1)/2; gradient is the position vector."""
    from fractions import Fraction

    return (r_squared(nvars) - 1) * Fraction(1, 2)


class CompiledPolys:
    """Real polynomials compiled to one shared monomial table.

    Evaluation at a point x is coefficients @ prod(x ** exponents, axis=1),
    reshaped to `shape` (row-major over the polynomials as listed).
    """

    def __init__(self, nvars: int, polys: Sequence[Polynomial], shape: Tuple[int, ...]):
        index: Dict[Tuple[int, ...], int] = {}
        for p in polys:
            for exps, _coeff in p.items():
                index.setdefault(exps, len(index))
        # reshape with nvars, not -1: an all-zero list has an empty table
        self.exponents = np.array(list(index), dtype=int).reshape(len(index), nvars)
        self.coefficients = np.zeros((len(polys), len(index)))
        for row, p in enumerate(polys):
            for exps, coeff in p.items():
                self.coefficients[row, index[exps]] = float(coeff.re)
        self.shape = shape

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.exponents.shape[1:]:
            raise DimensionMismatch(
                f"point has shape {x.shape}, expected ({self.exponents.shape[1]},)")
        monomials = np.prod(x ** self.exponents, axis=1)
        return (self.coefficients @ monomials).reshape(self.shape)


class VarietySpec:
    """Real polynomial constraints, optionally intersected with the sphere.

    Gradients and Hessians of every constraint are computed symbolically at
    construction and compiled into three CompiledPolys tables (values,
    Jacobian, Hessians), through which all later evaluation goes.
    """

    def __init__(self, nvars: int, constraints: Sequence[Polynomial], include_sphere: bool = True):
        constraints = tuple(constraints)
        for g in constraints:
            if g.nvars != nvars:
                raise DimensionMismatch(
                    f"constraint in {g.nvars} variables inside a {nvars}-variable spec"
                )
            if not g.is_real():
                raise ValueError(
                    "variety constraints must be real polynomials; "
                    "split complex conditions into real and imaginary parts"
                )
        if include_sphere and len(constraints) + 1 > nvars - 1:
            raise DimensionMismatch(
                f"{len(constraints)} constraints plus the sphere leave no positive "
                f"dimension in {nvars} variables"
            )
        self.nvars = nvars
        self.constraints = constraints
        self.include_sphere = include_sphere
        full = ([sphere_constraint(nvars)] if include_sphere else []) + list(constraints)
        m = len(full)
        self._values = CompiledPolys(nvars, full, (m,))
        self._jacobian = CompiledPolys(
            nvars, [d for g in full for d in gradient(g)], (m, nvars))
        self._hessians = CompiledPolys(
            nvars, [e for g in full for row in hessian(g) for e in row], (m, nvars, nvars))

    @property
    def num_equations(self) -> int:
        return self._values.shape[0]

    def codimension(self) -> int:
        """Number of constraints beyond the sphere."""
        return len(self.constraints)

    def values(self, x: np.ndarray) -> np.ndarray:
        return self._values(x)

    def residual(self, x: np.ndarray) -> float:
        values = self.values(x)
        return float(np.max(np.abs(values))) if values.size else 0.0

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._jacobian(x)

    def hessian_at(self, x: np.ndarray) -> np.ndarray:
        """Numeric Hessians of every equation, shape (m, N, N); 0 = sphere when included."""
        return self._hessians(x)


def newton_project(
    spec: VarietySpec,
    seed: Sequence[float],
    tol: float = DEFAULT_TOL,
    maxiter: int = DEFAULT_MAXITER,
    eps_reg: float = DEFAULT_EPS_REG,
) -> np.ndarray:
    """Project a seed onto the variety by least-squares Newton iteration.

    Each step solves the local linearization in the minimum-norm sense via a
    singular-value cutoff, so rank-deficient Jacobians do not blow up the
    step; they either still converge (then the converged point is checked
    for regularity and SingularJacobian is raised if it fails) or stall into
    NonConvergence.
    """
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    x = np.asarray(seed, dtype=float).copy()
    if x.shape != (spec.nvars,):
        raise DimensionMismatch(f"seed has shape {x.shape}, expected ({spec.nvars},)")

    for _ in range(maxiter):
        values = spec.values(x)
        if np.max(np.abs(values)) < tol:
            sigma_min = np.linalg.svd(spec.jacobian(x), compute_uv=False)[-1]
            if sigma_min < eps_reg:
                raise SingularJacobian(
                    f"converged to a point with smallest singular value "
                    f"{sigma_min:.3e} < {eps_reg:.1e}"
                )
            return x
        jac = spec.jacobian(x)
        u, s, vt = np.linalg.svd(jac, full_matrices=False)
        cutoff = max(eps_reg * 1e-4, s[0] * 1e-14) if s.size else 0.0
        inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
        step = vt.T @ (inv * (u.T @ values))
        # backtracking: accept the first damped step that reduces the residual
        base = np.max(np.abs(values))
        scale = 1.0
        for _halving in range(25):
            candidate = x - scale * step
            if np.max(np.abs(spec.values(candidate))) < base:
                x = candidate
                break
            scale *= 0.5
        else:
            x = x - step  # no improvement found; let the iteration budget decide
    raise NonConvergence(f"no convergence to {tol:.1e} within {maxiter} iterations")


@dataclass
class PointCloud:
    """Converged, regular samples with per-point diagnostics."""

    points: np.ndarray  # (k, N)
    residuals: np.ndarray  # (k,) max |g_a(x)|
    regularity: np.ndarray  # (k,) smallest singular value of the Jacobian
    stereo: Optional[np.ndarray] = None  # (k, 3) when filled
    metadata: Dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.points.shape[0]


def _projections(
    spec: VarietySpec, rng_seed: int, max_attempts: int, tallies: Dict[str, int], **newton_kwargs
) -> Iterator[Tuple[int, np.ndarray]]:
    """Seeded Newton attempts; yields (attempt, point) for each converged one.

    Attempt i projects the normalized draw of default_rng([rng_seed, i]), so
    results do not depend on execution order.  Every attempt is counted in
    tallies as converged, no_convergence (a draw of norm below 1e-12
    included) or singular.  Attempts run lazily: a caller whose quota is
    full leaves the loop and no further attempt is made.
    """
    for attempt in range(max_attempts):
        seed = np.random.default_rng([rng_seed, attempt]).standard_normal(spec.nvars)
        norm = np.linalg.norm(seed)
        if norm < 1e-12:
            tallies["no_convergence"] += 1
            continue
        try:
            point = newton_project(spec, seed / norm, **newton_kwargs)
        except NonConvergence:
            tallies["no_convergence"] += 1
            continue
        except SingularJacobian:
            tallies["singular"] += 1
            continue
        tallies["converged"] += 1
        yield attempt, point


def sample(
    spec: VarietySpec,
    count: int,
    rng_seed: int,
    tol: float = DEFAULT_TOL,
    maxiter: int = DEFAULT_MAXITER,
    eps_reg: float = DEFAULT_EPS_REG,
) -> PointCloud:
    """Draw Gaussian seeds, project, and keep converged regular points.

    Deterministic in rng_seed: attempt i uses its own substream
    default_rng([rng_seed, i]), so results do not depend on execution order.
    Raises InsufficientYield (carrying the partial cloud) when fewer than
    count/2 attempts converge within 10*count attempts; a yield between
    count/2 and count returns the partial cloud with a shortfall note.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    kept_points: List[np.ndarray] = []
    kept_residuals: List[float] = []
    kept_regularity: List[float] = []
    seed_indices: List[int] = []
    tallies = {"converged": 0, "no_convergence": 0, "singular": 0}
    max_attempts = 10 * count
    projections = _projections(
        spec, rng_seed, max_attempts, tallies, tol=tol, maxiter=maxiter, eps_reg=eps_reg)
    for attempt, point in projections:
        kept_points.append(point)
        kept_residuals.append(spec.residual(point))
        kept_regularity.append(float(np.linalg.svd(spec.jacobian(point), compute_uv=False)[-1]))
        seed_indices.append(attempt)
        if len(kept_points) == count:
            break

    metadata = {
        "rng_seed": rng_seed,
        "tol": tol,
        "eps_reg": eps_reg,
        "maxiter": maxiter,
        "requested": count,
        "attempts": sum(tallies.values()),
        "outcomes": tallies,
        "seed_indices": seed_indices,
    }
    cloud = PointCloud(
        points=np.array(kept_points) if kept_points else np.zeros((0, spec.nvars)),
        residuals=np.array(kept_residuals),
        regularity=np.array(kept_regularity),
        metadata=metadata,
    )
    if len(cloud) < count:
        metadata["shortfall"] = count - len(cloud)
        if len(cloud) < count / 2:
            raise InsufficientYield(
                f"only {len(cloud)} of {count} requested points converged "
                f"in {max_attempts} attempts "
                f"(no_convergence={tallies['no_convergence']}, singular={tallies['singular']})",
                cloud=cloud,
            )
    return cloud


@dataclass(frozen=True)
class CurvatureSample:
    """Mean-curvature components of the cut-out submanifold at one point."""

    point: np.ndarray
    normal_components: np.ndarray  # <H, nu_b> for b = 1..c (sphere-intrinsic)
    radial_component: float  # <H, nu_0>, always -dim M on the sphere
    frame_condition: float  # smallest singular value of the constraint Jacobian


def mean_curvature(
    spec: VarietySpec,
    x: Sequence[float],
    tol: float = DEFAULT_TOL,
    eps_reg: float = DEFAULT_EPS_REG,
) -> CurvatureSample:
    """Mean-curvature components at an on-variety point.

    The frame is nu_0 = x (sphere normal, exactly the gradient of g0),
    followed by the Gram-Schmidt normals of the remaining constraint
    gradients, all read off one QR factorization of the Jacobian; the
    tangent space is the orthogonal complement.  Minimality of the cut-out
    submanifold inside the sphere is the vanishing of all components for
    b >= 1; the radial component is the dimension check -dim M.
    """
    if not spec.include_sphere:
        raise ValueError("mean_curvature is defined for sphere-intersected varieties")
    x = np.asarray(x, dtype=float)
    residual = spec.residual(x)
    if residual > 10 * tol:
        raise OffVariety(f"point residual {residual:.3e} exceeds {10 * tol:.1e}")

    jac = spec.jacobian(x)  # rows: grad g0 = x, grad g1, ..., grad gc
    sigma = np.linalg.svd(jac, compute_uv=False)
    if sigma[-1] < eps_reg:
        raise SingularJacobian(
            f"smallest singular value {sigma[-1]:.3e} below {eps_reg:.1e}"
        )
    m = spec.num_equations
    q, r = np.linalg.qr(jac.T, mode="complete")
    pivots = np.diag(r)
    if np.min(np.abs(pivots)) < 1e-14:
        raise SingularJacobian("constraint gradients are numerically dependent")
    tangent = q[:, m:]
    traces = np.einsum("ni,anm,mi->a", tangent, spec.hessian_at(x), tangent)
    components = -np.sign(pivots) * np.linalg.solve(r[:m].T, traces)

    return CurvatureSample(
        point=x,
        normal_components=components[1:],
        radial_component=float(components[0]),
        frame_condition=float(sigma[-1]),
    )


def cone_mean_curvature(P: Polynomial, x: Sequence[float], eps_reg: float = DEFAULT_EPS_REG) -> float:
    """Euclidean level-set mean curvature div(grad P / |grad P|) at x.

    Equals (lap(P)|grad P|^2 - HessP(gradP,gradP)) / |grad P|^3.  For a
    harmonic P on its own zero set this is -HessP(gradP,gradP)/|grad P|^3,
    whose vanishing is exactly the minimality criterion for the cone.
    """
    if not P.is_real():
        raise ValueError("cone mean curvature is defined for real polynomials")
    forms = [laplacian(P), hess_grad_grad(P), *gradient(P)]
    lap, q, *grad = CompiledPolys(P.nvars, forms, (len(forms),))(x)
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm <= eps_reg:
        raise DegeneratePoint(f"|grad P| = {grad_norm:.3e} <= {eps_reg:.1e}")
    return float((lap * grad_norm**2 - q) / grad_norm**3)


def stereographic(x: Sequence[float], pole: int, eps: float = 1e-8) -> np.ndarray:
    """Stereographic projection of a sphere point from the pole e_pole.

    pole is a 1-based coordinate index; the image keeps the remaining
    coordinates in order, y_i = x_i / (1 - x_pole).
    """
    x = np.asarray(x, dtype=float)
    if not 1 <= pole <= x.size:
        raise IndexError(f"pole index {pole} outside 1..{x.size}")
    denom = 1.0 - x[pole - 1]
    if abs(denom) <= eps**2 / 2 or np.linalg.norm(x - _pole_vector(x.size, pole)) <= eps:
        raise PoleSingularity(f"point is within {eps:.1e} of the projection pole")
    return np.delete(x, pole - 1) / denom


def _pole_vector(nvars: int, pole: int) -> np.ndarray:
    v = np.zeros(nvars)
    v[pole - 1] = 1.0
    return v


def add_stereo(cloud: PointCloud, pole: int, eps: float = 1e-8) -> PointCloud:
    """Return a copy of the cloud with stereographic coordinates attached."""
    stereo = np.array([stereographic(p, pole, eps) for p in cloud.points]) if len(cloud) else (
        np.zeros((0, max(cloud.points.shape[1] - 1, 0)))
    )
    return PointCloud(
        points=cloud.points,
        residuals=cloud.residuals,
        regularity=cloud.regularity,
        stereo=stereo,
        metadata=dict(cloud.metadata, stereo_pole=pole),
    )


def export_cloud(cloud: PointCloud, path: str) -> None:
    """Write the cloud as CSV with 17-significant-digit floats.

    Header: x1..xN, then s1..s3 when stereo is present, then residual and
    regularity.  Row order is generation order, so output is deterministic.
    """
    nvars = cloud.points.shape[1]
    header = [f"x{i + 1}" for i in range(nvars)]
    if cloud.stereo is not None:
        header += [f"s{i + 1}" for i in range(cloud.stereo.shape[1])]
    header += ["residual", "regularity"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row_index in range(len(cloud)):
            row = [_fmt17(v) for v in cloud.points[row_index]]
            if cloud.stereo is not None:
                row += [_fmt17(v) for v in cloud.stereo[row_index]]
            row.append(_fmt17(cloud.residuals[row_index]))
            row.append(_fmt17(cloud.regularity[row_index]))
            writer.writerow(row)


def read_cloud(path: str) -> PointCloud:
    """Read a CSV produced by export_cloud (17 digits round-trip exactly)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [list(map(float, row)) for row in reader]
    n_stereo = sum(1 for name in header if name.startswith("s") and name[1:].isdigit())
    nvars = len(header) - n_stereo - 2
    data = np.array(rows) if rows else np.zeros((0, len(header)))
    stereo = data[:, nvars:nvars + n_stereo] if n_stereo else None
    return PointCloud(
        points=data[:, :nvars],
        residuals=data[:, -2] if rows else np.zeros(0),
        regularity=data[:, -1] if rows else np.zeros(0),
        stereo=stereo,
        metadata={"source": path},
    )


def _fmt17(value: float) -> str:
    return "%.17g" % value
