"""Reference implementations that the tests compare the package against.

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
  * levenberg_marquardt_reference: the search's Levenberg-Marquardt loop as
    it was before it refilled one Jacobian buffer, damped the normal matrix
    in place and formed -grad once per iteration: a fresh dense Jacobian per
    iteration, the damped matrix built as a sum, -grad formed at every
    solve, and numpy's wrapper functions (np.sqrt, np.max, np.diag) where
    the loop reads ndarray methods and math.sqrt.  test_search checks the
    loop against it bit for bit, on every branch.
  * render_reference: the canonical renderer as it was before it read the
    packed pairs, through `items` and a GaussianRational per term;
    test_parsing checks `render` against it string for string.
  * compiled_evaluate_reference: CompiledPolys evaluation as it was before
    it multiplied whole columns, by np.cumprod over a broadcast copy of the
    point and np.multiply.reduce over the gathered factors; test_geometry
    checks CompiledPolys against it bit for bit.  Bit-identity rests on
    numpy multiplying both reductions sequentially.
  * hessian_table_reference: the Hessian table of a VarietySpec built as it
    was before it read only the formed entries, from the dense N x N
    `hessian` of every constraint; test_geometry checks that both tables
    are the same.
  * min_norm_step_reference: the minimum-norm solution of one full-rank
    linear system J s = g in exact rational arithmetic, which is the SVD
    step V S^-1 U^T g that Newton takes when no singular value is cut off;
    test_geometry checks geometry._newton_steps against it on the rows its
    QR proof admits.
  * newton_batch_reference (with newton_steps_reference): batched Newton
    projection as it was before the loop carried each point's residual
    max |g_a| from its evaluation, tried the full step without indexing
    and wrote a row back to x only when it stopped: the residual of every
    running row taken again at each stop test, every row gathered from x
    and scattered back at every step, and every step copied into a new
    array.  test_geometry checks geometry._newton_batch against it bit for
    bit on every branch of the loop.
"""

from fractions import Fraction
from functools import reduce
from typing import Sequence, Tuple

import numpy as np

from eigensphere import geometry
from eigensphere.calculus import gradient, hess_grad_grad, hessian, laplacian
from eigensphere.errors import EigenSphereError
from eigensphere.geometry import (
    EPS_REG, CompiledPolys, VarietySpec, _forward_substitution, _thin_qr)
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


# ---------------------------------------------------------------------------
# The search's Levenberg-Marquardt loop, one fresh Jacobian per iteration


def levenberg_marquardt_reference(
    system: ResidualSystem, t0: np.ndarray, max_iters: int = 300
) -> Tuple[np.ndarray, float]:
    t = t0.copy()
    r = system.residual(t)
    cost = float(r @ r)
    lam = 1e-3
    for _ in range(max_iters):
        if np.sqrt(cost) < 1e-15:
            break
        jac = system.jacobian(t)
        grad = jac.T @ r
        if np.max(np.abs(grad)) < 1e-16:
            break
        gauss = jac.T @ jac
        damping_scale = np.maximum(np.diag(gauss), 1e-12)
        accepted = False
        for _retry in range(40):
            try:
                step = np.linalg.solve(gauss + lam * np.diag(damping_scale), -grad)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            candidate = t + step
            r_new = system.residual(candidate)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                t, r, cost = candidate, r_new, cost_new
                lam = max(lam / 3, 1e-13)
                accepted = True
                break
            lam *= 4
            if lam > 1e15:
                break
        if not accepted:
            break
    return t, float(np.sqrt(cost))


# ---------------------------------------------------------------------------
# The canonical renderer, one GaussianRational per term


def _render_term_reference(exps, coeff: GaussianRational) -> Tuple[str, str]:
    variables = []
    for position, e in enumerate(exps):
        if e == 1:
            variables.append(f"x{position + 1}")
        elif e > 1:
            variables.append(f"x{position + 1}^{e}")
    mono = "*".join(variables)

    if coeff.re != 0 and coeff.im != 0:
        im_sign = "+" if coeff.im > 0 else "-"
        body = f"({coeff.re!s}{im_sign}{abs(coeff.im)!s}*i)"
        return "+", f"{body}*{mono}" if mono else body
    if coeff.im != 0:
        sign = "+" if coeff.im > 0 else "-"
        magnitude = abs(coeff.im)
        scale = "i" if magnitude == 1 else f"{magnitude!s}*i"
        return sign, f"{scale}*{mono}" if mono else scale
    sign = "+" if coeff.re > 0 else "-"
    magnitude = abs(coeff.re)
    if not mono:
        return sign, str(magnitude)
    if magnitude == 1:
        return sign, mono
    return sign, f"{magnitude!s}*{mono}"


def render_reference(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coeff in p.items():
        sign, body = _render_term_reference(exps, coeff)
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Compiled evaluation and the Hessian table


def compiled_evaluate_reference(compiled: CompiledPolys, x) -> np.ndarray:
    """compiled(x) by cumprod and multiply.reduce, in the same blocks of rows."""
    x = np.asarray(x, dtype=float)
    nvars = compiled.exponents.shape[1]
    rows = max(1, geometry.CHUNK_FLOATS // compiled.point_floats)
    if x.ndim == 2 and len(x) > rows:
        return np.concatenate([compiled_evaluate_reference(compiled, x[i:i + rows])
                               for i in range(0, len(x), rows)])
    top = compiled._top
    powers = np.empty(x.shape + (top + 1,))
    powers[..., 0] = 1.0
    np.cumprod(np.broadcast_to(x[..., None], x.shape + (top,)), axis=-1, out=powers[..., 1:])
    powers = powers.reshape(x.shape[:-1] + (nvars * (top + 1),))
    monomials = np.multiply.reduce(powers.take(compiled._factor_index, axis=-1), axis=-1)
    # through gemm, as compiled does: every row twice, against at least two columns
    weights = np.zeros((len(compiled.exponents), max(2, len(compiled.coefficients))))
    weights[:, :len(compiled.coefficients)] = compiled.coefficients.T
    rows = np.repeat(monomials.reshape(len(x) if x.ndim == 2 else 1, -1), 2, axis=0)
    product = (rows @ weights)[::2, :len(compiled.coefficients)]
    return product.reshape(x.shape[:-1] + compiled.shape)


def hessian_table_reference(spec: VarietySpec) -> CompiledPolys:
    """The spec's Hessian table compiled from every entry of every dense Hessian."""
    entries = [e for grad in spec._gradients for row in hessian(grad) for e in row]
    return CompiledPolys(spec.nvars, entries, (spec.num_equations, spec.nvars, spec.nvars))


# ---------------------------------------------------------------------------
# Newton's step


def min_norm_step_reference(jac: np.ndarray, values: np.ndarray) -> np.ndarray:
    """s = J^T (J J^T)^-1 g for one J (m, N) of rank m and g (m,), rounded once.

    Every float is read as the exact rational it stands for, the Gram
    matrix J J^T is reduced by Gaussian elimination (it is positive
    definite, so no pivot is zero) and s is rounded to floats only at the
    end.  This is the minimum-norm solution, the SVD step V S^-1 U^T g
    with no singular value dropped, free of the roundoff of either branch
    of geometry._newton_steps.
    """
    rows = [[Fraction(v) for v in row] for row in np.asarray(jac, dtype=float).tolist()]
    rhs = [Fraction(v) for v in np.asarray(values, dtype=float).tolist()]
    m = len(rows)
    gram = [[sum(a * b for a, b in zip(ri, rj)) for rj in rows] for ri in rows]
    for k in range(m):
        for i in range(k + 1, m):
            factor = gram[i][k] / gram[k][k]
            gram[i] = [a - factor * b for a, b in zip(gram[i], gram[k])]
            rhs[i] -= factor * rhs[k]
    y = [Fraction(0)] * m
    for k in reversed(range(m)):
        y[k] = (rhs[k] - sum(gram[k][j] * y[j] for j in range(k + 1, m))) / gram[k][k]
    return np.array([float(sum(c * row[n] for c, row in zip(y, rows)))
                     for n in range(len(rows[0]))])


# ---------------------------------------------------------------------------
# Batched Newton projection, gathering and scattering the running rows


def _max_abs_reference(values: np.ndarray) -> np.ndarray:
    return reduce(np.maximum, np.abs(values).T)


def newton_steps_reference(jac: np.ndarray, values: np.ndarray) -> np.ndarray:
    """geometry._newton_steps with every step copied into one new array."""
    steps = np.empty((len(jac), jac.shape[2]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q, r = _thin_qr(jac)
        frobenius = np.sqrt(np.einsum("bij,bij->b", r, r))
        bound = frobenius
        for k in range(r.shape[1]):
            bound = bound * (r[:, k, k] / frobenius)
        by_qr = bound > np.maximum(EPS_REG * 1e-4, frobenius * 1e-14)
        proved = slice(None) if by_qr.all() else by_qr
        y = _forward_substitution(r[proved], values[proved])
        steps[proved] = np.einsum("bk,bkn->bn", y, q[proved])
        rest = np.flatnonzero(~by_qr)
        if rest.size:
            steps[rest] = np.nan
            rest = rest[np.isfinite(jac[rest]).all(axis=(1, 2))]
        if rest.size:
            u, s, vt = np.linalg.svd(jac[rest], full_matrices=False)
            cutoff = np.maximum(EPS_REG * 1e-4, s[:, :1] * 1e-14)
            inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
            coords = inv * np.einsum("bmk,bm->bk", u, values[rest])
            steps[rest] = np.einsum("bkn,bk->bn", vt, coords)
    return steps


def newton_batch_reference(spec: VarietySpec, seeds: np.ndarray, tol: float, maxiter: int):
    """(points, outcomes, residual, sigma_min) of geometry._newton_batch."""
    x = np.array(seeds, dtype=float)
    outcomes = np.full(len(x), "no_convergence", dtype=object)
    residual = np.full(len(x), np.nan)
    sigma_min = np.full(len(x), np.nan)
    live = np.arange(len(x))
    values = spec.values(x)
    for _ in range(maxiter):
        x_live = x[live]
        base = _max_abs_reference(values)
        done = base < tol
        if done.any():
            residual[live[done]] = base[done]
            live, x_live, values, base = live[~done], x_live[~done], values[~done], base[~done]
        if not live.size:
            break
        step = newton_steps_reference(spec.jacobian(x_live), values)
        pending = np.arange(len(live))
        scale = 1.0
        for halving in range(25):
            candidate = x_live[pending] - scale * step[pending]
            found = spec.values(candidate)
            if not halving:
                full_step = found
            better = _max_abs_reference(found) < base[pending]
            x_live[pending[better]] = candidate[better]
            values[pending[better]] = found[better]
            pending = pending[~better]
            if not pending.size:
                break
            scale *= 0.5
        x_live[pending] -= step[pending]
        values[pending] = full_step[pending]
        x[live] = x_live
    stopped = ~np.isnan(residual)
    if stopped.any():
        sigma_min[stopped] = np.linalg.svd(spec.jacobian(x[stopped]), compute_uv=False)[:, -1]
        outcomes[stopped] = np.where(sigma_min[stopped] < EPS_REG, "singular", "converged")
    return x, outcomes, residual, sigma_min
