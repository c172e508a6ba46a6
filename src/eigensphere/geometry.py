"""Numerical geometry of polynomial varieties intersected with the unit sphere.

This is the floating-point layer.  Everything symbolic (constraints, their
gradients and Hessians) is prepared at most once per VarietySpec, the
Hessians only when the curvature first asks for them and from their nonzero
entries alone, and compiled into CompiledPolys tables, which are the only
way this layer evaluates polynomials, at one point or at a batch of points.
A table forms the powers x_v^k by repeated multiplication and each monomial
as a product over its variables of nonzero exponent only, so a degree-d
monomial is rounded at most d - 1 times; the roundoff factor
(deg + terms) * 2^-53 of minimality's reliability bound rests on that.  Both
products run a column of the batch at a time, as does Newton's residual
max |g_a|, since numpy reduces over a short last axis one row at a time.
Newton evaluates each point once and takes its residual once, when it is
evaluated: a step carries the values and residual of the point it moved to
into the next stop test.  It tries the full step on every running row at
once and takes the candidates whole when each one improves; only the other
rows halve.  The running rows stay compacted apart from the points, and a
row is written back to them once, when it stops.  The numerics are Newton
projection with a minimum-norm least-squares step (a
Gram-Schmidt QR, _thin_qr, and the SVD with its singular-value cutoff for
the rows that QR cannot prove far from that cutoff), seeded Gaussian
sampling, and the level-set second-fundamental-form trace that yields
mean-curvature components of the cut-out submanifold: mean_curvature
checks that its points are on the variety and regular, then calls
_curvature_components, which codimension 2's measure calls directly on
points Newton already found both.  The seeded attempt loop exists once,
as _quota: it runs Newton on a chunk of attempts at once (_newton_batch, of
which newton_project is the batch of one), calls an optional measure once
per chunk on the chunk's converged points, keeps by one mask those whose
measured row has no nan up to its quota, and returns them as a PointCloud,
with the kept rows as one float array.  `sample` and both minimality checks
take their points through it, and it refuses, before the first draw, a
count whose kept points would pass MEMORY_BUDGET.  The residual and
regularity of a sampled point are those of the Newton step at which it
converged.  A sampling run draws from one generator, default_rng(seed):
attempt i projects row i of its standard normal stream, taken a chunk of
rows at a time.  Draws taken in order concatenate and CompiledPolys
evaluates a point to the same bits in any batch, so the chunking changes
neither a draw nor a sampled point.  search_eigen keeps its own rule, one
default_rng([seed, i]) per attempt.

Every caller uses the same thresholds, so they are module constants:
  * EPS_REG = 1e-8: a point is regular when the smallest singular value of
    its constraint Jacobian is at least EPS_REG (Newton's "singular" outcome,
    sample's regularity, mean_curvature);
  * OFF_VARIETY_TOL = 10 * DEFAULT_TOL: the largest residual max |g_a| that
    mean_curvature accepts;
  * POLE_EPS = 1e-8: stereographic refuses points this close to its pole.
Newton's tol and maxiter stay parameters (DEFAULT_TOL, DEFAULT_MAXITER).
MEMORY_BUDGET = 1 GiB bounds what one run keeps, here and in search.

Conventions:
  * the sphere constraint is g0 = (|x|^2 - 1)/2, so grad g0 = x exactly;
  * the normal frame at each point is the Gram-Schmidt orthonormalization
    of the gradient rows of the constraint Jacobian, J = R^T Q with R upper
    triangular with positive diagonal (_thin_qr): the rows of Q are the
    normals nu_b, so nu_0 is the position vector;
  * <H, nu_b> = -sum_i (sum_a C_ba Hess g_a)(e_i, e_i) over an orthonormal
    tangent basis {e_i}, where nu_b = sum_a C_ba grad g_a, i.e. C = R^-T,
    applied by forward substitution, and sum_i H(e_i, e_i) = tr H -
    sum_k H(nu_k, nu_k);
    the radial component (b = 0) always equals -dim M on the sphere.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import ceil, isfinite, prod
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .calculus import gradient, hessian_entries
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
# floats in about 256 KB: the cap on any temporary of a batched evaluation,
# and the floats that export_cloud formats at a time
CHUNK_FLOATS = 2**15
# the most bytes that one run may hold: the kept points of a seeded quota
# (_quota), and in search the solver's estimated peak, the attempts' results
# and the JSON report
MEMORY_BUDGET = 1 << 30


def sphere_constraint(nvars: int) -> Polynomial:
    """g0 = (x1^2 + ... + xN^2 - 1)/2; gradient is the position vector."""
    from fractions import Fraction

    return (r_squared(nvars) - 1) * Fraction(1, 2)


class CompiledPolys:
    """Real polynomials compiled to one shared monomial table.

    polys lists the polynomials in row-major order of `shape`, or maps the
    row-major positions of the nonzero ones, in ascending order, to them (a
    mostly zero table, such as the Hessians of a large spec, is built from
    its nonzero entries alone).  Evaluation at a point x of shape (N,) is
    coefficients @ monomials(x), reshaped to `shape`; a batch of shape
    (B, N) gives (B, *shape), one row per point.  The power table
    x_v^0 .. x_v^D of every variable is built by multiplication, x_v^0 = 1
    and x_v^k = x_v^(k-1) * x_v, and each monomial is the product, left to
    right in variable order, of its factors x_v^e with e > 0 only, read
    from that table; a monomial with fewer such factors than the widest one
    is padded with entries x_v^0 = 1, which multiply exactly, and a table
    whose widest monomial is the constant one gives ones.  Both products run
    a whole column of the batch at a time.  So a monomial of degree d
    rounds at most d - 1 times, which the roundoff factor (deg + terms) *
    2^-53 of minimality's reliability bound assumes; a float power x**k
    gives no such bound.  The product with the coefficients goes through
    gemm for every batch (_gemm), so a point evaluates to the same bits alone
    or in any batch.  A batch is evaluated in blocks of rows so that no
    temporary exceeds CHUNK_FLOATS floats.  A coefficient past float range
    is BudgetExceeded.
    """

    def __init__(self, nvars: int, polys: Union[Sequence[Polynomial], Mapping[int, Polynomial]],
                 shape: Tuple[int, ...]):
        # columns in first-seen order of the monomials over all polynomials
        index: Dict[Tuple[int, ...], int] = {}
        rows, columns, values = [], [], []
        try:
            for row, p in (polys.items() if isinstance(polys, Mapping) else enumerate(polys)):
                if not p:
                    continue  # cheaper than an empty pass over its terms
                for exps, coeff in p.real_float_items():
                    rows.append(row)
                    columns.append(index.setdefault(exps, len(index)))
                    values.append(coeff)
        except OverflowError:
            raise BudgetExceeded("a coefficient is past the float range (about "
                                 "1.8e308) that the numeric layer needs") from None
        # reshape with nvars, not -1: an all-zero list has an empty table
        self.exponents = np.array(list(index), dtype=int).reshape(len(index), nvars)
        self.coefficients = np.zeros((prod(shape), len(index)))
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
        self.point_floats = max(self._factor_index.size, len(self.coefficients),
                                nvars * (self._top + 1))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        nvars = self.exponents.shape[1]
        if x.ndim not in (1, 2) or x.shape[-1] != nvars:
            raise DimensionMismatch(
                f"point has shape {x.shape}, expected ({nvars},) or (B, {nvars})")
        rows = max(1, CHUNK_FLOATS // self.point_floats)
        if x.ndim == 2 and len(x) > rows:
            return np.concatenate([self(x[i:i + rows]) for i in range(0, len(x), rows)])
        # whole columns at a time: numpy reduces over a short last axis one
        # output element at a time
        powers = np.empty(x.shape + (self._top + 1,))
        powers[..., 0] = 1.0
        for k in range(1, self._top + 1):  # (...(1 * x) * x ...) * x, k factors
            np.multiply(powers[..., k - 1], x, out=powers[..., k])
        powers = powers.reshape(x.shape[:-1] + (nvars * (self._top + 1),))
        factors = powers.take(self._factor_index, axis=-1)
        if not factors.shape[-1]:  # no monomial, or only the constant one
            monomials = np.ones(factors.shape[:-1])
        else:
            monomials = factors[..., 0]
            for k in range(1, factors.shape[-1]):  # left to right, in variable order
                monomials = monomials * factors[..., k]
        batch = len(x) if x.ndim == 2 else 1
        product = _gemm(monomials.reshape(batch, monomials.shape[-1]), self.coefficients.T)
        return product.reshape(x.shape[:-1] + self.shape)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a (B, K) and b (K, P), always through BLAS's gemm.

    numpy multiplies by gemv or dot instead when a has one row or b one
    column, and those sum in another order than gemm.  Padding both to two
    with zeros keeps each row of the product the bits it has in any batch,
    so a sampled point does not depend on the chunk it was drawn in.
    """
    rows, columns = a.shape[0], b.shape[1]
    if rows < 2:
        a = np.concatenate([a, np.zeros((2 - rows, a.shape[1]))])
    if columns < 2:
        b = np.concatenate([b, np.zeros((b.shape[0], 2 - columns))], axis=1)
    return (a @ b)[:rows, :columns]


class VarietySpec:
    """Real polynomial constraints intersected with the unit sphere.

    The constraints and their gradients are compiled at construction into
    two CompiledPolys tables (values, Jacobian); the Hessians, which only
    the curvature reads, are computed symbolically, only their nonzero
    entries (calculus.hessian_entries), and compiled into a third table on
    first use.  All later evaluation goes through these tables;
    values, jacobian and hessian_at take one point (N,) or a batch (B, N).
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
        self._constraints = (sphere_constraint(nvars), *constraints)
        m = len(self._constraints)
        self._values = CompiledPolys(nvars, self._constraints, (m,))
        # kept for the Hessians, which differentiate these first partials
        self._gradients = tuple(gradient(g) for g in self._constraints)
        self._jacobian = CompiledPolys(
            nvars, [d for grad in self._gradients for d in grad], (m, nvars))

    @cached_property
    def _hessians(self) -> CompiledPolys:
        # only the entries that hessian_entries formed: at N variables the
        # table has m N^2 positions, and most are zero
        n = self.nvars
        entries = {(a * n + i) * n + j: entry for a, grad in enumerate(self._gradients)
                   for (i, j), entry in hessian_entries(grad).items()}
        return CompiledPolys(n, entries, (len(self._constraints), n, n))

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

    Each step solves the local linearization in the minimum-norm sense with
    a singular-value cutoff (see _newton_steps), so rank-deficient Jacobians
    do not blow up the step; they either still converge (then
    SingularJacobian is raised when the smallest singular value of the
    Jacobian there is below EPS_REG) or stall into NonConvergence.  This is
    _newton_batch on a batch of one seed.
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
    when it did not stop).  The steps come from _newton_steps, a Gram-Schmidt
    QR for the rows whose singular values it proves above the cutoff.  The
    rows still running are kept compacted, in seed order, apart from x; a
    row is written back to x once, when it stops (or when maxiter runs out),
    so the smallest singular values come at the end, from one values-only
    SVD of the Jacobians at every stopped point, which classifies them all.

    Each point is evaluated once, and its residual max |g_a| is taken once,
    when it is evaluated, and carried to the next stop test: the seeds
    before the first step, then each candidate of the line search.  The
    full step x - step is tried on every running row at once; when it
    reduces every row's residual, the candidates are the new rows whole.
    Only the other rows halve the step, each accepting its first halving
    that reduces its residual; a row that no halving improves keeps the full
    step and its values.
    """
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, got {maxiter!r}")
    x = np.array(seeds, dtype=float)
    outcomes = np.full(len(x), "no_convergence", dtype=object)
    residual = np.full(len(x), np.nan)
    sigma_min = np.full(len(x), np.nan)
    live = np.arange(len(x))
    x_live = x
    values = spec.values(x)
    base = _max_abs(values)
    for _ in range(maxiter):
        done = base < tol
        if done.any():
            stopped = live[done]
            residual[stopped] = base[done]
            x[stopped] = x_live[done]
            running = ~done
            live, x_live, values, base = (
                live[running], x_live[running], values[running], base[running])
        if not live.size:
            break
        step = _newton_steps(spec.jacobian(x_live), values)
        candidate = x_live - step
        found = spec.values(candidate)
        reached = _max_abs(found)
        better = reached < base
        if not better.all():
            # backtracking: each row the full step did not improve accepts its
            # first halving that does, or keeps the full step
            pending = np.flatnonzero(~better)
            scale = 0.5
            for _halving in range(24):
                trial = x_live[pending] - scale * step[pending]
                trial_values = spec.values(trial)
                trial_reached = _max_abs(trial_values)
                improved = trial_reached < base[pending]
                accepted = pending[improved]
                candidate[accepted] = trial[improved]
                found[accepted] = trial_values[improved]
                reached[accepted] = trial_reached[improved]
                pending = pending[~improved]
                if not pending.size:
                    break
                scale *= 0.5
        x_live, values, base = candidate, found, reached
    x[live] = x_live
    # a stopped row keeps its point, so one SVD classifies every stop
    stopped = ~np.isnan(residual)
    if stopped.any():
        sigma_min[stopped] = np.linalg.svd(spec.jacobian(x[stopped]), compute_uv=False)[:, -1]
        outcomes[stopped] = np.where(sigma_min[stopped] < EPS_REG, "singular", "converged")
    return x, outcomes, residual, sigma_min


def _max_abs(values: np.ndarray) -> np.ndarray:
    """max_a |g_a| of each row of values (B, m), by np.maximum over the m columns.

    A maximum is exact and nan propagates through np.maximum, so this is
    np.max(np.abs(values), axis=1) bit for bit; numpy reduces over a short
    last axis one row at a time.
    """
    return reduce(np.maximum, np.abs(values).T)


def _newton_steps(jac: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares steps s_b with jac_b s_b = values_b, (B, m, N) -> (B, N).

    The step of a row is V S^+ U^T g from the SVD of its Jacobian, where S^+
    inverts the singular values above max(EPS_REG * 1e-4, 1e-14 sigma_max)
    and drops the rest.  Every row is first factored by _thin_qr, J = R^T Q
    with Q's rows orthonormal.  Since sigma_min = |det R| / (product of the
    other singular values) >= |det R| / ||R||_F^(m-1), and sigma_max <=
    ||R||_F, a row with |det R| / ||R||_F^(m-1) > max(EPS_REG * 1e-4, 1e-14
    ||R||_F) has no singular value at or below the cutoff; its step is the
    full-rank minimum-norm solution Q^T y with R^T y = g, by forward
    substitution.  Only the other rows, rank-deficient or nearly so, take the
    SVD.  The bound is formed as ||R||_F * prod_k (R_kk / ||R||_F), whose
    factors are at most 1, so it overflows only with ||R||_F itself; a row
    whose ||R||_F overflows, is zero or is nan reads nan, which compares
    false, and takes the SVD branch, where a row with an entry that is not
    finite, whose SVD does not converge, steps by nan.  No overflow or nan
    on the way warns.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q, r = _thin_qr(jac)
        frobenius = np.sqrt(np.einsum("bij,bij->b", r, r))
        bound = frobenius
        for k in range(r.shape[1]):
            bound = bound * (r[:, k, k] / frobenius)
        by_qr = bound > np.maximum(EPS_REG * 1e-4, frobenius * 1e-14)
        # the usual case: every row is proved, and its QR steps are the result
        if by_qr.all():
            return np.einsum("bk,bkn->bn", _forward_substitution(r, values), q)
        steps = np.empty((len(jac), jac.shape[2]))
        y = _forward_substitution(r[by_qr], values[by_qr])
        steps[by_qr] = np.einsum("bk,bkn->bn", y, q[by_qr])
        rest = np.flatnonzero(~by_qr)
        steps[rest] = np.nan
        rest = rest[np.isfinite(jac[rest]).all(axis=(1, 2))]
        if rest.size:
            u, s, vt = np.linalg.svd(jac[rest], full_matrices=False)
            cutoff = np.maximum(EPS_REG * 1e-4, s[:, :1] * 1e-14)
            inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
            coords = inv * np.einsum("bmk,bm->bk", u, values[rest])
            steps[rest] = np.einsum("bkn,bk->bn", vt, coords)
    return steps


def _thin_qr(jac: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Q (B, m, N) with orthonormal rows and R (B, m, m) upper triangular with
    positive diagonal such that jac_b = R_b^T Q_b, for jac (B, m, N), m <= N.

    Classical Gram-Schmidt applied twice: row a of jac is projected against
    the rows of Q before it in one product, the projection removed, and the
    same done once more to the remainder, which is then normalized.  Both
    passes' coefficients add up to column a of R above its diagonal, and
    the remainder's norm is R_aa.  Twice is enough for Q to be orthonormal
    to a small multiple of the unit roundoff whenever the rows are
    numerically independent (Giraud, Langou, Rozloznik and van den Eshof,
    Numer. Math. 101, 2005), and each row costs O(1) numpy calls for the
    whole stack, where a stacked LAPACK QR pays its overhead per matrix.
    A zero remainder gives R_aa = 0 and a row of Q that is nan; callers
    that may meet one silence the division.
    """
    q = np.empty(jac.shape)
    r = np.zeros((len(jac), jac.shape[1], jac.shape[1]))
    for a in range(jac.shape[1]):
        v = jac[:, a]
        if a:
            basis = q[:, :a]
            first = np.einsum("bkn,bn->bk", basis, v)
            v = v - np.einsum("bk,bkn->bn", first, basis)
            second = np.einsum("bkn,bn->bk", basis, v)
            v -= np.einsum("bk,bkn->bn", second, basis)
            r[:, :a, a] = first + second
        r[:, a, a] = np.sqrt(np.einsum("bn,bn->b", v, v))
        np.divide(v, r[:, a, a, None], out=q[:, a])
    return q, r


def _forward_substitution(r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """y (B, m) with R_b^T y_b = g_b, for R (B, m, m) upper triangular and g (B, m)."""
    y = np.empty_like(g)
    for k in range(g.shape[1]):
        y[:, k] = (g[:, k] - np.einsum("bj,bj->b", r[:, :k, k], y[:, :k])) / r[:, k, k]
    return y


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
    measure: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tol: float = DEFAULT_TOL, maxiter: int = DEFAULT_MAXITER,
) -> Tuple[PointCloud, Optional[np.ndarray], Optional[str]]:
    """The first count kept points of at most max_attempts seeded Newton attempts.

    Every attempt draws from one generator, default_rng(rng_seed), built once
    per call (so the seed is refused as numpy refuses it: a negative integer
    is ValueError and a float TypeError): attempt i projects the normalized
    row i of its standard normal stream, and a draw of norm below 1e-12 is
    no_convergence.  Each chunk draws its own rows, (len(chunk), N) at a
    time, and draws taken in order concatenate, so the rows do not depend on
    how the attempts are chunked.  Attempts run in chunks through
    _newton_batch: each chunk is the number of attempts that, at the
    converged rate so far, should bring the converged count to count,
    capped so that no temporary exceeds about 256 KB.  measure(points) is
    called once per chunk on its converged points (B, N) in attempt order
    and returns a float array with one row (or value) per point; a point
    whose row contains nan is not kept.  A chunk is cut after the attempt
    that fills the quota; every attempt before the cut is tallied as
    converged, no_convergence or singular.  Returns the PointCloud of the
    kept points, with max |g_a| and the smallest singular value of the
    Jacobian at the Newton step that converged, and the tallies
    ("outcomes") and kept attempts ("seed_indices") as metadata; the
    measure's kept rows (None without a measure); and, when the quota is not
    full, the shortfall message naming both tallies (else None).  A count
    whose kept points would hold more than MEMORY_BUDGET bytes, as counted
    below with the row of a measure taken as at most m floats, is
    BudgetExceeded before any draw.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    # a kept point holds its N coordinates, residual, regularity and measured
    # row (at most m floats) twice, per chunk and then joined, and its attempt
    # index as an int64 and a Python int in a list; sample adds 3N floats of
    # stereographic coordinates and CSV table
    kept = count * (8 * (5 * spec.nvars + 2 * spec.num_equations + 4) + 56)
    if kept > MEMORY_BUDGET:
        raise BudgetExceeded(
            f"{count} samples in {spec.nvars} variables keep about {kept / 2**20:.0f} MiB, "
            f"over the {MEMORY_BUDGET / 2**20:.0f} MiB budget")
    cap = max(1, CHUNK_FLOATS // max(spec._values.point_floats, spec._jacobian.point_floats))
    generator = np.random.default_rng(rng_seed)
    tallies = {"converged": 0, "no_convergence": 0, "singular": 0}
    # per chunk, its kept attempts, points, residuals, regularity and measured rows
    indices, points, residuals, regularity, rows = [], [], [], [], []
    found = 0
    attempt = 0
    while attempt < max_attempts and found < count:
        # the attempts that fill the rest of the quota at the rate so far, and
        # one point's worth once as many converged as the quota asks
        rate = (tallies["converged"] + 1) / (attempt + 1)
        wanted = ceil(max(count - tallies["converged"], 1) / rate)
        chunk = range(attempt, min(attempt + min(wanted, cap), max_attempts))
        draws = generator.standard_normal((len(chunk), spec.nvars))
        # row @ column is the dot product that np.linalg.norm takes of one
        # draw, so every norm is bit for bit that of its draw alone
        norms = np.sqrt(draws[:, None, :] @ draws[:, :, None]).reshape(len(chunk))
        drawn = norms >= 1e-12
        outcomes = np.full(len(chunk), "no_convergence", dtype=object)
        projected = np.zeros((len(chunk), spec.nvars))
        residual, sigma_min = np.full((2, len(chunk)), np.nan)
        seeds = draws[drawn] / norms[drawn, None]
        projected[drawn], outcomes[drawn], residual[drawn], sigma_min[drawn] = _newton_batch(
            spec, seeds, tol, maxiter)
        keep = outcomes == "converged"
        if measure is not None and keep.any():
            values = np.asarray(measure(projected[keep]), dtype=float)
            whole = ~np.isnan(values.reshape(len(values), -1)).any(axis=1)
            keep[keep] = whole
            rows.append(values[whole])
        stop = min(len(chunk), int(np.searchsorted(np.cumsum(keep), count - found)) + 1)
        for name in tallies:
            tallies[name] += int(np.count_nonzero(outcomes[:stop] == name))
        keep[stop:] = False
        found += int(np.count_nonzero(keep))
        indices.append(np.flatnonzero(keep) + attempt)
        points.append(projected[keep])
        residuals.append(residual[keep])
        regularity.append(sigma_min[keep])
        attempt = chunk.stop
    metadata = {"outcomes": tallies, "seed_indices": np.concatenate(indices).tolist()}
    cloud = PointCloud(*map(np.concatenate, (points, residuals, regularity)), metadata=metadata)
    # only the last chunk is cut, so the rows past the quota are the last ones
    values = None if measure is None else np.concatenate(rows or [np.zeros(0)])[:found]
    shortfall = None
    if found < count:
        shortfall = (
            f"only {found} of {count} requested points converged "
            f"in {max_attempts} attempts "
            f"(no_convergence={tallies['no_convergence']}, singular={tallies['singular']})"
        )
    return cloud, values, shortfall


def sample(
    spec: VarietySpec,
    count: int,
    rng_seed: int,
    tol: float = DEFAULT_TOL,
    maxiter: int = DEFAULT_MAXITER,
) -> PointCloud:
    """Draw Gaussian seeds, project, and keep converged regular points.

    Deterministic in rng_seed: attempt i starts from row i of the standard
    normal stream of default_rng(rng_seed), however the attempts are
    chunked; the cloud is _quota's, with the run's settings added to its
    metadata.
    Residual and regularity are Newton's own, from the step that converged;
    a point is kept only when its regularity is at least EPS_REG, which
    metadata["eps_reg"] records.
    Raises InsufficientYield (carrying the partial cloud) when fewer than
    count/2 attempts converge within 10*count attempts; a yield between
    count/2 and count returns the partial cloud with a shortfall note.
    """
    cloud, _values, shortfall = _quota(spec, count, rng_seed, 10 * count, tol=tol, maxiter=maxiter)
    cloud.metadata = {
        "rng_seed": rng_seed,
        "tol": tol,
        "eps_reg": EPS_REG,
        "maxiter": maxiter,
        "requested": count,
        "attempts": sum(cloud.metadata["outcomes"].values()),
        **cloud.metadata,
    }
    if shortfall is not None:
        cloud.metadata["shortfall"] = count - len(cloud)
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
    gradients, all read off one Gram-Schmidt QR of the Jacobian (_thin_qr);
    the tangent space is the orthogonal complement, and the trace of a
    Hessian over it is its full trace minus its trace over the normals.
    Minimality of the cut-out submanifold inside the sphere is the vanishing
    of all components for b >= 1; the radial component is the dimension
    check -dim M.  The guards come first, block by block: OffVariety when
    any residual max |g_a| exceeds OFF_VARIETY_TOL and SingularJacobian when
    any smallest singular value of the Jacobian (one stacked SVD per block,
    returned as frame_condition) is below EPS_REG.  The components then
    come from _curvature_components, which a caller whose points already
    passed both guards, as _quota's converged points did in Newton, calls
    directly.  One point is the batch of one.
    """
    points = np.atleast_2d(np.asarray(x, dtype=float))
    rows = _curvature_rows(spec)
    sigma = np.empty(len(points))
    for start in range(0, len(points), rows):
        block = points[start:start + rows]
        residual = np.max(np.abs(spec.values(block)))
        if residual > OFF_VARIETY_TOL:
            raise OffVariety(f"point residual {residual:.3e} exceeds {OFF_VARIETY_TOL:.1e}")
        smallest = np.linalg.svd(spec.jacobian(block), compute_uv=False)[:, -1]
        if np.min(smallest) < EPS_REG:
            raise SingularJacobian(
                f"smallest singular value {np.min(smallest):.3e} below {EPS_REG:.1e}")
        sigma[start:start + rows] = smallest
    components = _curvature_components(spec, points)
    if np.ndim(x) == 1:
        return CurvatureSample(components[0, 1:], float(components[0, 0]), float(sigma[0]))
    return CurvatureSample(components[:, 1:], components[:, 0], sigma)


def _curvature_rows(spec: VarietySpec) -> int:
    """Rows per block of mean_curvature, so that no temporary exceeds
    CHUNK_FLOATS floats beyond one point's own: a point's Hessians and their
    (m, N, m) products with the normals are alive at once."""
    m = spec.num_equations
    return max(1, CHUNK_FLOATS // max(spec._values.point_floats, spec._jacobian.point_floats,
                                      spec._hessians.point_floats + m * spec.nvars * m))


def _curvature_components(spec: VarietySpec, points: np.ndarray) -> np.ndarray:
    """The components <H, nu_b>, b = 0 .. m - 1, at points (B, N): (B, m), column 0 radial.

    mean_curvature without its guards, for points on the variety with a
    regular Jacobian.  Each block of _curvature_rows rows is one
    Gram-Schmidt QR of the Jacobian, J = R^T Q, whose rows of Q are the
    normals, one Hessian-times-normals matrix product and trace, and one
    forward substitution R^T y = traces, whose -y are the components.
    """
    components = np.empty((len(points), spec.num_equations))
    rows = _curvature_rows(spec)
    for start in range(0, len(points), rows):
        block = points[start:start + rows]
        # rows of jac: grad g0 = x, grad g1, ..., grad gc; rows of q: nu_0 .. nu_c
        q, r = _thin_qr(spec.jacobian(block))
        hessians = spec.hessian_at(block)
        # sum_i e_i^T H_a e_i = tr H_a - sum_k nu_k^T H_a nu_k over the normals;
        # a trace of stacked products, since an einsum over the block would
        # round a point otherwise alone than beside others
        normal_part = q[:, None] @ (hessians @ np.swapaxes(q, 1, 2)[:, None])
        traces = (np.trace(hessians, axis1=2, axis2=3)
                  - np.trace(normal_part, axis1=2, axis2=3))
        # nu = R^-T grad g, so <H, nu_b> = -(R^-T traces)_b
        components[start:start + rows] = -_forward_substitution(r, traces)
    return components


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
    Rows are formatted and written a block of about CHUNK_FLOATS floats at a
    time, so the text and the Python floats it is made from never grow with
    the cloud; the bytes are those of the whole table formatted at once.
    """
    nvars = cloud.points.shape[1]
    header = [f"x{i + 1}" for i in range(nvars)]
    if cloud.stereo is not None:
        header += [f"s{i + 1}" for i in range(cloud.stereo.shape[1])]
    header += ["residual", "regularity"]
    stereo = [] if cloud.stereo is None else [cloud.stereo]
    table = np.hstack([cloud.points, *stereo, cloud.residuals[:, None], cloud.regularity[:, None]])
    row_format = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    rows = max(1, CHUNK_FLOATS // table.shape[1])
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, len(table), rows):
            block = table[start:start + rows]
            handle.write((row_format * len(block)) % tuple(block.ravel().tolist()))


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
