"""Numerical geometry of polynomial varieties intersected with the unit sphere.

This is the floating-point layer.  Everything symbolic (constraints, their
gradients and Hessians) is prepared exactly once per VarietySpec and
compiled into CompiledPolys tables, which are the only way this layer
evaluates polynomials, at one point or at a batch of points.  A table forms
the powers x_v^k by repeated multiplication and each monomial as a product
over its variables of nonzero exponent only, so a degree-d monomial is
rounded at most d - 1 times; the roundoff factor (deg + terms) * 2^-53 of
minimality's reliability bound rests on that.  Newton evaluates each point
once: a step carries the values of the point it moved to into the next step.
The numerics are Newton projection with a rank-revealing least-squares step,
seeded Gaussian sampling, and the level-set second-fundamental-form trace
that yields mean-curvature components of the cut-out submanifold.  The
seeded attempt loop exists once, as _quota: it runs Newton on a chunk of
attempts at once (_newton_batch, of which newton_project is the batch of
one), calls an optional measure once per chunk on the chunk's converged
points, tallies each attempt in order, keeps the points whose value is not
None, and stops at its quota.  `sample` and both minimality checks take
their points through it.  The residual and regularity of a sampled point are
those of the Newton step at which it converged.

Every caller uses the same thresholds, so they are module constants:
  * EPS_REG = 1e-8: a point is regular when the smallest singular value of
    its constraint Jacobian is at least EPS_REG (Newton's "singular" outcome,
    sample's regularity, mean_curvature);
  * OFF_VARIETY_TOL = 10 * DEFAULT_TOL: the largest residual max |g_a| that
    mean_curvature accepts;
  * POLE_EPS = 1e-8: stereographic refuses points this close to its pole.
Newton's tol and maxiter stay parameters (DEFAULT_TOL, DEFAULT_MAXITER).

Conventions:
  * the sphere constraint is g0 = (|x|^2 - 1)/2, so grad g0 = x exactly;
  * the normal frame at each point comes from one complete QR factorization
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
from math import ceil, isfinite
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .calculus import gradient, hessian
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    InsufficientYield,
    NonConvergence,
    OffVariety,
    PoleSingularity,
    SingularJacobian,
)
from .polynomial import Polynomial, r_squared

DEFAULT_TOL = 1e-12
DEFAULT_MAXITER = 50
EPS_REG = 1e-8
OFF_VARIETY_TOL = 10 * DEFAULT_TOL
POLE_EPS = 1e-8
# floats in about 256 KB: the cap on any temporary of a batched evaluation
CHUNK_FLOATS = 2**15


def sphere_constraint(nvars: int) -> Polynomial:
    """g0 = (x1^2 + ... + xN^2 - 1)/2; gradient is the position vector."""
    from fractions import Fraction

    return (r_squared(nvars) - 1) * Fraction(1, 2)


class CompiledPolys:
    """Real polynomials compiled to one shared monomial table.

    Evaluation at a point x of shape (N,) is coefficients @ monomials(x),
    reshaped to `shape` (row-major over the polynomials as listed); a batch
    of shape (B, N) gives (B, *shape), one row per point.  The power table
    x_v^0 .. x_v^D of every variable is built by multiplication, x_v^0 = 1
    and x_v^k = x_v^(k-1) * x_v, and each monomial is the product, in
    variable order, of its factors x_v^e with e > 0 only, read from that
    table; a monomial with fewer such factors than the widest one is padded
    with entries x_v^0 = 1, which multiply exactly.  So a monomial of degree
    d rounds at most d - 1 times, which the roundoff factor (deg + terms) *
    2^-53 of minimality's reliability bound assumes; a float power x**k
    gives no such bound.  A batch is evaluated in blocks of rows so that no
    temporary exceeds CHUNK_FLOATS floats.  A coefficient past float range
    is BudgetExceeded.
    """

    def __init__(self, nvars: int, polys: Sequence[Polynomial], shape: Tuple[int, ...]):
        # columns in first-seen order of the monomials over all polynomials
        index: Dict[Tuple[int, ...], int] = {}
        rows, columns, values = [], [], []
        try:
            for row, p in enumerate(polys):
                if not p:
                    continue  # most Hessian entries of a large spec are zero
                for exps, coeff in p.real_float_items():
                    rows.append(row)
                    columns.append(index.setdefault(exps, len(index)))
                    values.append(coeff)
        except OverflowError:
            raise BudgetExceeded("a coefficient is past the float range (about "
                                 "1.8e308) that the numeric layer needs") from None
        # reshape with nvars, not -1: an all-zero list has an empty table
        self.exponents = np.array(list(index), dtype=int).reshape(len(index), nvars)
        self.coefficients = np.zeros((len(polys), len(index)))
        self.coefficients[rows, columns] = values
        self.shape = shape
        self._top = int(self.exponents.max(initial=0))
        # per monomial, the positions of x_v^e in the flattened (N, D + 1)
        # power table: the variables with e > 0 in order, then as many with
        # e = 0 (x_v^0 = 1) as pad the row to the widest monomial's count
        width = int(np.count_nonzero(self.exponents, axis=1).max(initial=0))
        variables = np.argsort(self.exponents == 0, axis=1, kind="stable")[:, :width]
        self._factor_index = (variables * (self._top + 1)
                              + np.take_along_axis(self.exponents, variables, axis=1))
        # floats in the largest temporary that evaluating one point allocates
        self.point_floats = max(self._factor_index.size, len(polys), nvars * (self._top + 1))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        nvars = self.exponents.shape[1]
        if x.ndim not in (1, 2) or x.shape[-1] != nvars:
            raise DimensionMismatch(
                f"point has shape {x.shape}, expected ({nvars},) or (B, {nvars})")
        rows = max(1, CHUNK_FLOATS // self.point_floats)
        if x.ndim == 2 and len(x) > rows:
            return np.concatenate([self(x[i:i + rows]) for i in range(0, len(x), rows)])
        powers = np.empty(x.shape + (self._top + 1,))
        powers[..., 0] = 1.0
        # cumprod multiplies in order: column k is (...(x * x) ...) * x, k factors
        np.cumprod(np.broadcast_to(x[..., None], x.shape + (self._top,)), axis=-1,
                   out=powers[..., 1:])
        powers = powers.reshape(x.shape[:-1] + (nvars * (self._top + 1),))
        monomials = np.multiply.reduce(powers.take(self._factor_index, axis=-1), axis=-1)
        return (monomials @ self.coefficients.T).reshape(x.shape[:-1] + self.shape)


class VarietySpec:
    """Real polynomial constraints intersected with the unit sphere.

    Gradients and Hessians of every constraint are computed symbolically at
    construction and compiled into three CompiledPolys tables (values,
    Jacobian, Hessians), through which all later evaluation goes; values
    and jacobian take one point (N,) or a batch (B, N).
    """

    def __init__(self, nvars: int, constraints: Sequence[Polynomial]):
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
        if len(constraints) + 1 > nvars - 1:
            raise DimensionMismatch(
                f"{len(constraints)} constraints plus the sphere leave no positive "
                f"dimension in {nvars} variables"
            )
        self.nvars = nvars
        full = [sphere_constraint(nvars), *constraints]
        m = len(full)
        self._values = CompiledPolys(nvars, full, (m,))
        self._jacobian = CompiledPolys(
            nvars, [d for g in full for d in gradient(g)], (m, nvars))
        self._hessians = CompiledPolys(
            nvars, [e for g in full for row in hessian(g) for e in row], (m, nvars, nvars))

    @property
    def num_equations(self) -> int:
        return self._values.shape[0]

    def values(self, x: np.ndarray) -> np.ndarray:
        return self._values(x)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._jacobian(x)

    def hessian_at(self, x: np.ndarray) -> np.ndarray:
        """Numeric Hessians of every equation, (m, N, N) or (B, m, N, N); row 0 is the sphere."""
        return self._hessians(x)


def newton_project(
    spec: VarietySpec,
    seed: Sequence[float],
    tol: float = DEFAULT_TOL,
    maxiter: int = DEFAULT_MAXITER,
) -> np.ndarray:
    """Project a seed onto the variety by least-squares Newton iteration.

    Each step solves the local linearization in the minimum-norm sense via a
    singular-value cutoff, so rank-deficient Jacobians do not blow up the
    step; they either still converge (then SingularJacobian is raised when
    the smallest singular value of the Jacobian there is below EPS_REG) or
    stall into NonConvergence.  This is _newton_batch on a batch of one seed.
    """
    x = np.asarray(seed, dtype=float)
    if x.shape != (spec.nvars,):
        raise DimensionMismatch(f"seed has shape {x.shape}, expected ({spec.nvars},)")
    points, outcomes, _residual, sigma_min = _newton_batch(spec, x[None], tol, maxiter)
    if outcomes[0] == "singular":
        raise SingularJacobian(
            f"converged to a point with smallest singular value "
            f"{sigma_min[0]:.3e} < {EPS_REG:.1e}"
        )
    if outcomes[0] == "no_convergence":
        raise NonConvergence(f"no convergence to {tol:.1e} within {maxiter} iterations")
    return points[0]


def _newton_batch(
    spec: VarietySpec, seeds: np.ndarray, tol: float, maxiter: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Newton projection of every row of seeds (B, N) at once.

    Row by row this is the iteration newton_project documents: a row stops
    once its residual is below tol, and is then "singular" when the smallest
    singular value of its Jacobian is below EPS_REG and "converged"
    otherwise; a row that never stops within maxiter steps is
    "no_convergence".  Returns the final points, the outcome of each row, and
    its residual max |g_a| and smallest singular value at the stop (both nan
    when it did not stop).

    Each point is evaluated once: the seeds' values before the first step,
    then each candidate of the line search.  A row carries into its next
    step the values of the candidate it accepted, or, when no halving
    reduced its residual, those of the full step x - step, which was its
    first candidate.
    """
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    x = np.array(seeds, dtype=float)
    outcomes = np.full(len(x), "no_convergence", dtype=object)
    residual = np.full(len(x), np.nan)
    sigma_min = np.full(len(x), np.nan)
    live = np.arange(len(x))
    values = spec.values(x)
    for _ in range(maxiter):
        x_live = x[live]
        base = np.max(np.abs(values), axis=1)
        done = base < tol
        if done.any():
            sigma = np.linalg.svd(spec.jacobian(x_live[done]), compute_uv=False)[:, -1]
            residual[live[done]] = base[done]
            sigma_min[live[done]] = sigma
            outcomes[live[done]] = np.where(sigma < EPS_REG, "singular", "converged")
            live, x_live, values, base = live[~done], x_live[~done], values[~done], base[~done]
        if not live.size:
            break
        u, s, vt = np.linalg.svd(spec.jacobian(x_live), full_matrices=False)
        cutoff = np.maximum(EPS_REG * 1e-4, s[:, :1] * 1e-14)
        inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
        coords = inv * np.einsum("bmk,bm->bk", u, values)
        step = np.einsum("bkn,bk->bn", vt, coords)
        # backtracking: each row accepts its first damped step that reduces its residual
        pending = np.arange(len(live))
        scale = 1.0
        for halving in range(25):
            candidate = x_live[pending] - scale * step[pending]
            found = spec.values(candidate)
            if not halving:
                full_step = found  # every row's x - step, in the order of live
            better = np.max(np.abs(found), axis=1) < base[pending]
            x_live[pending[better]] = candidate[better]
            values[pending[better]] = found[better]
            pending = pending[~better]
            if not pending.size:
                break
            scale *= 0.5
        # no improvement found; let the iteration budget decide
        x_live[pending] -= step[pending]
        values[pending] = full_step[pending]
        x[live] = x_live
    return x, outcomes, residual, sigma_min


@dataclass
class PointCloud:
    """Converged, regular samples with per-point diagnostics."""

    points: np.ndarray  # (k, N)
    residuals: np.ndarray  # (k,) max |g_a(x)|
    regularity: np.ndarray  # (k,) smallest singular value of the Jacobian
    stereo: Optional[np.ndarray] = None  # (k, N - 1) when filled
    metadata: Dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.points.shape[0]


def _quota(
    spec: VarietySpec, count: int, rng_seed: int, max_attempts: int,
    measure: Optional[Callable[[np.ndarray], Sequence[Any]]] = None,
    tol: float = DEFAULT_TOL, maxiter: int = DEFAULT_MAXITER,
) -> Tuple[List[Tuple[int, np.ndarray, float, float, Any]], Dict[str, int], Optional[str]]:
    """The first count kept points of at most max_attempts seeded Newton attempts.

    Attempt i projects the normalized draw of default_rng([rng_seed, i]), so
    results do not depend on execution order; a draw of norm below 1e-12 is
    no_convergence.  Attempts run in chunks through _newton_batch: each
    chunk is the number of attempts that, at the converged rate so far,
    should bring the converged count to count, capped so that no temporary
    exceeds about 256 KB.  measure(points) is called once per chunk on its
    converged points (B, N) in attempt order and returns one value per
    point; a point whose value is None is not kept.  Every attempt up to the
    one that fills the quota is tallied as converged, no_convergence or
    singular.  Returns the kept (attempt, point, residual, regularity,
    value) tuples (value None without a measure), where residual and
    regularity are max |g_a| and the smallest singular value of the
    Jacobian at the Newton step that converged, the tallies and, when the
    quota is not full, the shortfall message naming both (else None).
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    cap = max(1, CHUNK_FLOATS // max(spec._values.point_floats, spec._jacobian.point_floats))
    tallies = {"converged": 0, "no_convergence": 0, "singular": 0}
    kept = []
    attempt = 0
    while attempt < max_attempts and len(kept) < count:
        # the attempts that fill the rest of the quota at the rate so far, and
        # one point's worth once as many converged as the quota asks
        rate = (tallies["converged"] + 1) / (attempt + 1)
        wanted = ceil(max(count - tallies["converged"], 1) / rate)
        chunk = range(attempt, min(attempt + min(wanted, cap), max_attempts))
        draws = np.array(
            [np.random.default_rng([rng_seed, i]).standard_normal(spec.nvars) for i in chunk])
        # row @ column is the dot product that np.linalg.norm takes of one
        # draw, so every norm is bit for bit that of its draw alone
        norms = np.sqrt(draws[:, None, :] @ draws[:, :, None]).reshape(len(chunk))
        drawn = norms >= 1e-12
        outcomes = np.full(len(chunk), "no_convergence", dtype=object)
        points = np.zeros((len(chunk), spec.nvars))
        residuals, regularity = np.full((2, len(chunk)), np.nan)
        seeds = draws[drawn] / norms[drawn, None]
        points[drawn], outcomes[drawn], residuals[drawn], regularity[drawn] = _newton_batch(
            spec, seeds, tol, maxiter)
        values = [None] * len(chunk)
        converged = np.flatnonzero(outcomes == "converged")
        if measure is not None and converged.size:
            for i, value in zip(converged, measure(points[converged])):
                values[i] = value
        for i, outcome in enumerate(outcomes):
            tallies[outcome] += 1
            if outcome == "converged" and (measure is None or values[i] is not None):
                kept.append((chunk[i], points[i], residuals[i], regularity[i], values[i]))
                if len(kept) == count:
                    break
        attempt = chunk.stop
    shortfall = None
    if len(kept) < count:
        shortfall = (
            f"only {len(kept)} of {count} requested points converged "
            f"in {max_attempts} attempts "
            f"(no_convergence={tallies['no_convergence']}, singular={tallies['singular']})"
        )
    return kept, tallies, shortfall


def sample(
    spec: VarietySpec,
    count: int,
    rng_seed: int,
    tol: float = DEFAULT_TOL,
    maxiter: int = DEFAULT_MAXITER,
) -> PointCloud:
    """Draw Gaussian seeds, project, and keep converged regular points.

    Deterministic in rng_seed: attempt i uses its own substream
    default_rng([rng_seed, i]), so results do not depend on execution order.
    Residual and regularity are Newton's own, from the step that converged;
    a point is kept only when its regularity is at least EPS_REG, which
    metadata["eps_reg"] records.
    Raises InsufficientYield (carrying the partial cloud) when fewer than
    count/2 attempts converge within 10*count attempts; a yield between
    count/2 and count returns the partial cloud with a shortfall note.
    """
    kept, tallies, shortfall = _quota(spec, count, rng_seed, 10 * count, tol=tol, maxiter=maxiter)
    seed_indices, points, residuals, regularity, _values = list(zip(*kept)) or [()] * 5
    metadata = {
        "rng_seed": rng_seed,
        "tol": tol,
        "eps_reg": EPS_REG,
        "maxiter": maxiter,
        "requested": count,
        "attempts": sum(tallies.values()),
        "outcomes": tallies,
        "seed_indices": list(seed_indices),
    }
    cloud = PointCloud(
        points=np.array(points).reshape(-1, spec.nvars),
        residuals=np.array(residuals, dtype=float),
        regularity=np.array(regularity, dtype=float),
        metadata=metadata,
    )
    if shortfall is not None:
        metadata["shortfall"] = count - len(cloud)
        if len(cloud) < count / 2:
            raise InsufficientYield(shortfall, cloud=cloud)
    return cloud


@dataclass(frozen=True)
class CurvatureSample:
    """Mean-curvature components of the cut-out submanifold at one point or a batch."""

    normal_components: np.ndarray  # <H, nu_b> for b = 1..c (sphere-intrinsic): (c,) or (B, c)
    radial_component: Any  # <H, nu_0>, always -dim M on the sphere: float or (B,)
    frame_condition: Any  # smallest singular value of the constraint Jacobian: float or (B,)


def mean_curvature(spec: VarietySpec, x: Sequence[float]) -> CurvatureSample:
    """Mean-curvature components at one on-variety point (N,) or a batch (B, N).

    The frame is nu_0 = x (sphere normal, exactly the gradient of g0),
    followed by the Gram-Schmidt normals of the remaining constraint
    gradients, all read off one QR factorization of the Jacobian; the
    tangent space is the orthogonal complement.  Minimality of the cut-out
    submanifold inside the sphere is the vanishing of all components for
    b >= 1; the radial component is the dimension check -dim M.  A batch
    runs in blocks of rows, each one stacked SVD, complete QR, einsum and
    solve, so that no temporary exceeds CHUNK_FLOATS floats beyond one
    point's own; one point is the batch of one.  Raises OffVariety when any
    residual max |g_a| exceeds OFF_VARIETY_TOL and SingularJacobian when any
    smallest singular value of the Jacobian is below EPS_REG.
    """
    points = np.atleast_2d(np.asarray(x, dtype=float))
    m = spec.num_equations
    rows = max(1, CHUNK_FLOATS // max(
        spec._values.point_floats, spec._jacobian.point_floats, spec._hessians.point_floats))
    components = np.empty((len(points), m))
    sigma = np.empty(len(points))
    for start in range(0, len(points), rows):
        span = slice(start, start + rows)
        block = points[span]
        residual = np.max(np.abs(spec.values(block)))
        if residual > OFF_VARIETY_TOL:
            raise OffVariety(f"point residual {residual:.3e} exceeds {OFF_VARIETY_TOL:.1e}")
        jac = spec.jacobian(block)  # rows: grad g0 = x, grad g1, ..., grad gc
        sigma[span] = np.linalg.svd(jac, compute_uv=False)[:, -1]
        if np.min(sigma[span]) < EPS_REG:
            raise SingularJacobian(
                f"smallest singular value {np.min(sigma[span]):.3e} below {EPS_REG:.1e}")
        q, r = np.linalg.qr(np.swapaxes(jac, 1, 2), mode="complete")
        tangent = q[:, :, m:]
        traces = np.einsum("bni,banm,bmi->ba", tangent, spec.hessian_at(block), tangent)
        pivots = np.diagonal(r, axis1=1, axis2=2)
        # b as a stack of column vectors reads the same under numpy 1.x and 2.x
        solved = np.linalg.solve(np.swapaxes(r[:, :m], 1, 2), traces[..., None])[..., 0]
        components[span] = -np.sign(pivots) * solved
    if np.ndim(x) == 1:
        return CurvatureSample(components[0, 1:], float(components[0, 0]), float(sigma[0]))
    return CurvatureSample(components[:, 1:], components[:, 0], sigma)


def stereographic(x: np.ndarray, pole: int) -> np.ndarray:
    """Stereographic projection of sphere points from the pole e_pole.

    x is one point (N,) or a batch (B, N); pole is a 1-based coordinate
    index, and each image keeps the remaining coordinates in order,
    y_i = x_i / (1 - x_pole).  Raises PoleSingularity when a point lies
    within POLE_EPS of the pole.
    """
    x = np.asarray(x, dtype=float)
    nvars = x.shape[-1]
    if not 1 <= pole <= nvars:
        raise IndexOutOfRange(f"pole index {pole} outside 1..{nvars}")
    denom = 1.0 - x[..., pole - 1]
    near = np.linalg.norm(x - np.eye(nvars)[pole - 1], axis=-1) <= POLE_EPS
    if np.any((np.abs(denom) <= POLE_EPS**2 / 2) | near):
        raise PoleSingularity(f"point is within {POLE_EPS:.1e} of the projection pole")
    return np.delete(x, pole - 1, axis=-1) / denom[..., None]


def add_stereo(cloud: PointCloud, pole: int) -> PointCloud:
    """Return a copy of the cloud with stereographic coordinates attached."""
    return PointCloud(
        points=cloud.points,
        residuals=cloud.residuals,
        regularity=cloud.regularity,
        stereo=stereographic(cloud.points, pole),
        metadata=dict(cloud.metadata, stereo_pole=pole),
    )


def export_cloud(cloud: PointCloud, path: str) -> None:
    """Write the cloud as CSV with 17-significant-digit floats.

    Header: x1..xN, then s1..s(N-1) when stereo is present, then residual
    and regularity.  Row order is generation order, so output is deterministic.
    """
    nvars = cloud.points.shape[1]
    header = [f"x{i + 1}" for i in range(nvars)]
    if cloud.stereo is not None:
        header += [f"s{i + 1}" for i in range(cloud.stereo.shape[1])]
    header += ["residual", "regularity"]
    stereo = [] if cloud.stereo is None else [cloud.stereo]
    table = np.hstack([cloud.points, *stereo, cloud.residuals[:, None], cloud.regularity[:, None]])
    with open(path, "w", newline="") as handle:
        np.savetxt(handle, table, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")


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
