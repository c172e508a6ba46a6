"""Numeric discovery of eigenfunction candidates, then exact recovery.

A degree-d candidate is a complex coefficient vector theta over the degree-d
monomial basis.  The conditions "Laplacian of P vanishes" (linear in theta)
and "bilinear gradient square of P vanishes" (quadratic in theta) become a
polynomial residual map with the gauge residual |theta|^2 - 1
(ResidualSystem).  The linear condition is solved once, exactly: theta is
kept in the span of an orthonormal basis of the harmonic polynomials, and
Levenberg-Marquardt with the analytic Jacobian minimizes the quadratic
condition and the gauge over the coordinates in that basis
(HarmonicSystem).  The kappa rows are quadratic forms in those
coordinates p, and the gauge is the quadratic form |p|^2 less 1, so by
Euler's identity the Jacobian J at p gives the residual there as J p / 2
less 1 in the gauge row: each point the loop tries costs one Jacobian and
no other evaluation.  Multistart over seeded Gaussian initializations, each
projected onto the harmonic polynomials, makes runs reproducible, and the
best candidates are rounded to Gaussian rationals and re-verified exactly,
by one helper for plain rounding and for the degree-1 isotropic repair.

The solver is hand-rolled on numpy: the system is small (tens of unknowns),
needs an analytic Jacobian, and is underdetermined at low degree, where
library implementations of the same algorithm refuse fewer residuals than
unknowns.  At that size each numpy call costs more in dispatch than in
arithmetic, so the loop makes each array pass once: one Jacobian buffer
refilled in place at each point tried, the normal matrix damped in place,
-grad formed once per iteration however many damped solves it takes, and
ndarray methods and math.sqrt where numpy's wrapper functions would add a
layer of Python to every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .eigen import verify_eigenfunction
from .errors import BudgetExceeded
# MEMORY_BUDGET is the largest search_memory_bytes that ResidualSystem
# accepts, and the most bytes that search_eigen's attempts may keep
from .geometry import MEMORY_BUDGET
from .parsing import render
from .polynomial import GaussianRational, Polynomial


def monomial_basis(nvars: int, degree: int) -> Tuple[Tuple[int, ...], ...]:
    """All degree-`degree` exponent tuples, descending graded-lexicographic."""
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    # each multiset of variables comes once and in lexicographic order, which
    # is the descending order of the exponent tuples
    basis = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for slot in combo:
            e[slot] += 1
        basis.append(tuple(e))
    return tuple(basis)


def _basis_size(nvars: int, degree: int) -> int:
    """len(monomial_basis(nvars, degree)), and 0 for a negative degree."""
    return math.comb(nvars + degree - 1, degree) if degree >= 0 else 0


def _basis_positions(exps: np.ndarray, degree: int) -> np.ndarray:
    """Positions in monomial_basis(nvars, degree) of the rows of `exps`.

    The position of e counts the basis monomials lexicographically above it:
    for each j, those that agree with e before j and exceed it at j.  If e
    has r degrees left from j on, such a monomial gives fewer than
    r - e_j degrees to the m = nvars-1-j variables after j, and there are
    comb(r - e_j - 1 + m, m) of those.  Unlike a fixed-base integer code,
    the result never exceeds the basis size, so int64 holds it at any nvars.
    """
    nvars = exps.shape[1]
    position = np.zeros(len(exps), dtype=np.int64)
    left = np.full(len(exps), degree, dtype=np.int64)
    for j in range(nvars - 1):
        m = nvars - 1 - j
        above = np.array([0] + [math.comb(s - 1 + m, m) for s in range(1, degree + 1)],
                         dtype=np.int64)
        left = left - exps[:, j]
        position += above[left]
    return position


def search_memory_bytes(nvars: int, degree: int) -> int:
    """Estimated peak bytes of one search at (nvars, degree).

    Counts 8-byte words, from the basis sizes alone: M degree-d monomials,
    T degree-(2d-2) kappa targets, E = N * mid^2 table rows over the mid
    degree-(d-1) monomials, r = M - k Laplacian rows.  The kappa table (4 E)
    with its float weights and flat cell indices (2 E), the Laplacian
    matrix (r M), the basis as M tuples of nvars ints (M (nvars + 7)),
    vectors of the residual's length (8 T, more than the residuals at the
    point, at the candidate and, after the loop, of the whole system) and
    vectors of at most the unknowns' length (20 M: the draw, the start, the
    point, the candidate, the gradient and its negation, the step, the
    diagonal and its damping scale, the lift) are always held.

    On top of them runs Levenberg-Marquardt over the harmonic coefficients
    (HarmonicSystem), which holds the basis N with the rest of its SVD
    (M^2) and the Jacobian buffer ((2T + 1) x 2k).  It goes through two
    phases, of which only the larger counts.  Refilling the Jacobian at a
    candidate holds one form B@(2w) (T M) and a gathered table column with
    its product (2 E) while the damped normal matrix of the iteration lives
    ((2k)^2), since every retry solves with it.  Solving holds the damped
    matrix with the copy of it that `solve` factors (2 (2k)^2), and is
    counted with the products that search_eigen's residual at the result
    gathers (5 E), though that residual runs after the loop has freed both.
    """
    size = _basis_size(nvars, degree)
    targets = _basis_size(nvars, 2 * degree - 2)
    entries = nvars * _basis_size(nvars, degree - 1) ** 2
    lap_rows = _basis_size(nvars, degree - 2)
    unknowns = 2 * (size - lap_rows)
    held = 6 * entries + lap_rows * size + size * (nvars + 7) + 8 * targets + 20 * size
    refill = targets * size + 2 * entries + unknowns ** 2
    solve = 2 * unknowns ** 2 + 5 * entries
    return 8 * (held + size ** 2 + (2 * targets + 1) * unknowns + max(refill, solve))


class ResidualSystem:
    """Residual map and analytic Jacobian for fixed (nvars, degree).

    Real parametrization t = [Re theta; Im theta].  Residual blocks:
      * Re/Im coefficients of laplacian(P_theta):  L u  and  L v;
      * Re/Im coefficients of kappa(P_theta, P_theta): u'Bu - v'Bv, 2 u'Bv;
      * gauge |t|^2 - 1.
    L is real and B is a real symmetric form per target monomial, so the
    Jacobian is exact, not differenced.

    B is kept as the int64 table `kappa_forms` of shape (E, 4), one row
    (target, a, b, weight) per nonzero B[target][a, b].  The partial d/dx_i
    maps the degree-(d-1) monomial mu + e_i to mu with weight mu_i + 1, so
    kappa = sum_i (d_i P)^2 puts weight (mu_i + 1)(nu_i + 1) at
    B[mu + nu][mu + e_i, nu + e_i], one row per (i, mu, nu): E = N * mid^2.
    No two rows share (target, a, b), since a + b - target = 2 e_i fixes i,
    and swapping mu and nu gives the row (target, b, a, weight), so B is
    symmetric as listed and every weight is an integer.  The weights as
    floats and the flat cell index target * M + a of each row are kept
    beside the table, so no evaluation casts or recomputes them.

    Construction raises BudgetExceeded before building any basis when
    `search_memory_bytes` exceeds MEMORY_BUDGET.
    """

    def __init__(self, nvars: int, degree: int):
        if nvars < 3 or degree < 1:
            raise ValueError("search needs nvars >= 3 and degree >= 1")
        needed = search_memory_bytes(nvars, degree)
        if needed > MEMORY_BUDGET:
            raise BudgetExceeded(
                f"search at nvars={nvars}, degree={degree} needs about "
                f"{needed / 2**20:.0f} MiB, over the {MEMORY_BUDGET / 2**20:.0f} MiB budget"
            )
        self.nvars = nvars
        self.degree = degree
        self.basis = monomial_basis(nvars, degree)
        self.size = len(self.basis)
        basis = np.array(self.basis, dtype=np.int64)
        eye = np.eye(nvars, dtype=np.int64)

        # linear block: coefficients of the Laplacian in the degree-(d-2) basis
        cols, axis = np.nonzero(basis >= 2)
        rows = _basis_positions(basis[cols] - 2 * eye[axis], degree - 2)
        exps = basis[cols, axis]
        self.lap_matrix = np.zeros((_basis_size(nvars, degree - 2), self.size))
        self.lap_matrix[rows, cols] = exps * (exps - 1)

        # quadratic block: the rows (target, a, b, weight) of B, in (i, mu, nu) order
        mid = np.array(monomial_basis(nvars, degree - 1), dtype=np.int64).reshape(-1, nvars)
        k = len(mid)
        # up[i, r]: position of mid[r] + e_i in the degree-d basis
        up = _basis_positions((mid[None] + eye[:, None]).reshape(-1, nvars), degree)
        up = up.reshape(nvars, k)
        target = _basis_positions((mid[:, None] + mid[None]).reshape(-1, nvars), 2 * degree - 2)
        factor = mid.T + 1
        table = np.empty((4, nvars, k, k), dtype=np.int64)
        table[0] = target.reshape(k, k)
        table[1] = up[:, :, None]
        table[2] = up[:, None, :]
        table[3] = factor[:, :, None] * factor[:, None, :]
        # the (E, 4) transpose of a (4, E) array keeps each column contiguous
        self.kappa_forms = table.reshape(4, -1).T
        self._target, self._a, self._b, weight = self.kappa_forms.T
        self._weight = weight.astype(float)
        self._cell = self._target * self.size + self._a
        self.num_targets = _basis_size(nvars, 2 * degree - 2)
        self.num_residuals = 2 * self.lap_matrix.shape[0] + 2 * self.num_targets + 1

    def split(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return t[: self.size], t[self.size:]

    def residual(self, t: np.ndarray) -> np.ndarray:
        u, v = self.split(t)
        lap_u = self.lap_matrix @ u
        lap_v = self.lap_matrix @ v
        kap_re, kap_im = self._kappa(t.reshape(2, -1))
        gauge = u @ u + v @ v - 1.0
        return np.concatenate([lap_u, lap_v, kap_re, kap_im, [gauge]])

    def _kappa(self, uv: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The coefficients u'Bu - v'Bv and 2 u'Bv of kappa(P_theta, P_theta).

        uv is the (2, M) array [u; v].  Each row of the table adds
        weight (u_a u_b - v_a v_b) and weight u_a v_b to its target; the
        second sum is doubled.
        """
        at_a = uv.take(self._a, axis=1)
        at_b = uv.take(self._b, axis=1)
        kap_im = at_a[0] * at_b[1]
        kap_im *= self._weight
        at_a *= at_b
        del at_b
        kap_re = at_a[0] - at_a[1]
        kap_re *= self._weight
        return (np.bincount(self._target, kap_re, self.num_targets),
                2 * np.bincount(self._target, kap_im, self.num_targets))

    def _form_times(self, w: np.ndarray) -> np.ndarray:
        """The (T, M) matrix whose row t is B[t] @ w."""
        return np.bincount(self._cell, self._weight * w[self._b],
                           self.num_targets * self.size).reshape(self.num_targets, self.size)

    def jacobian(self, t: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The (rows, 2M) Jacobian of `residual` at t.

        Without `out`, a new array.  With `out`, an array that an earlier
        call on this system returned: its Laplacian blocks and zero blocks do
        not depend on t, so only the kappa blocks and the gauge row are
        written, and `out` is returned.  Both give the same bits.
        """
        u, v = self.split(t)
        m = self.size
        r = self.lap_matrix.shape[0]
        jac = out
        if jac is None:
            jac = np.zeros((self.num_residuals, 2 * m))
            jac[:r, :m] = self.lap_matrix
            jac[r:2 * r, m:] = self.lap_matrix
        bu = self._form_times(u)
        bv = self._form_times(v)
        q = self.num_targets
        np.multiply(bu, 2, out=jac[2 * r:2 * r + q, :m])
        np.multiply(bv, -2, out=jac[2 * r:2 * r + q, m:])
        np.multiply(bv, 2, out=jac[2 * r + q:2 * r + 2 * q, :m])
        np.multiply(bu, 2, out=jac[2 * r + q:2 * r + 2 * q, m:])
        np.multiply(u, 2, out=jac[-1, :m])
        np.multiply(v, 2, out=jac[-1, m:])
        return jac


class HarmonicSystem:
    """The kappa and gauge residuals of a ResidualSystem over harmonic theta.

    The Laplacian block is linear, so its zero set is solved once: the
    columns of `basis` N (M, k) are an orthonormal basis of ker L, the last
    k = M - r left singular vectors of L^T.  The Laplacian maps P_d onto
    P_{d-2}, so L has rank r and no tolerance picks k; with no rows
    (degree 1) the SVD returns the identity.  The unknowns are
    p = [alpha; beta] in R^2k, with u = N alpha and v = N beta, and the
    residual is the kappa rows of P_theta followed by the gauge |p|^2 - 1,
    which is |theta|^2 - 1 since N is orthonormal.

    The Jacobian is [2 (Bu) N, -2 (Bv) N; 2 (Bv) N, 2 (Bu) N; 2 p']: its
    left half is built one form at a time from one gathered table column
    of [2u; 2v] (doubling is exact), B@(2u) then B@(2v), each times N into
    the buffer, and its right half is a negated and a copied block.  No
    form outlives the Jacobian it fills.  The kappa rows are quadratic
    forms in p and the gauge row is |p|^2 - 1, so by Euler's identity for
    homogeneous functions the Jacobian J at p gives the residual there as
    J p / 2 with 1 taken from its last entry; `_levenberg_marquardt` reads
    every residual so and evaluates no other path.
    """

    def __init__(self, system: ResidualSystem):
        self.system = system
        r = system.lap_matrix.shape[0]
        # a view: the whole of U stays, M^2 floats
        self.basis = np.linalg.svd(system.lap_matrix.T)[0][:, r:]
        self.dim = self.basis.shape[1]
        self.num_residuals = 2 * system.num_targets + 1

    def project(self, t: np.ndarray) -> np.ndarray:
        """[N'u; N'v] for t = [u; v], scaled to unit norm."""
        p = (t.reshape(2, -1) @ self.basis).reshape(-1)
        return p / math.sqrt(p @ p)

    def lift(self, p: np.ndarray) -> np.ndarray:
        """The (2, M) array [u; v] = [N alpha; N beta] for p = [alpha; beta]."""
        return p.reshape(2, -1) @ self.basis.T

    def jacobian(self, p: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The (2T + 1, 2k) Jacobian of the residual at p, written into `out` if given."""
        system = self.system
        k, q, m = self.dim, system.num_targets, system.size
        jac = np.empty((self.num_residuals, 2 * k)) if out is None else out
        uv = self.lift(p)
        gathered = (uv + uv).take(system._b, axis=1)
        gathered *= system._weight
        # B@(2u), then B@(2v), each freed once it is multiplied into the buffer
        for block, column in zip((jac[:q, :k], jac[q:2 * q, :k]), gathered):
            np.matmul(np.bincount(system._cell, column, q * m).reshape(q, m), self.basis,
                      out=block)
        np.negative(jac[q:2 * q, :k], out=jac[:q, k:])
        jac[q:2 * q, k:] = jac[:q, :k]
        np.multiply(p, 2, out=jac[-1])
        return jac


def _evaluate(system: HarmonicSystem, p: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Refill jac at p and return the residual at p, J p / 2 - e_last."""
    residual = system.jacobian(p, out=jac) @ p
    residual *= 0.5
    residual[-1] -= 1.0
    return residual


def _levenberg_marquardt(
    system: HarmonicSystem, t0: np.ndarray, max_iters: int = 300
) -> Tuple[np.ndarray, float]:
    """Damped Gauss-Newton from t0; returns (t, |residual(t)|).

    One Jacobian buffer serves the whole run, and each point is evaluated
    once, by refilling it there: the residual is read off the Jacobian by
    Euler's identity (HarmonicSystem), so a candidate costs one refill and
    an accepted one hands its Jacobian to the next iteration.  The buffer
    is free for a candidate once the iteration has formed -grad and the
    normal matrix from it: the retries after a rejected candidate solve
    with those two, and an iteration whose retries all fail ends the run.
    The normal matrix is damped in place: 0.0 is added to it once, as
    adding the diagonal matrix lam * diag(scale) adds 0.0 off the diagonal,
    and each retry writes its own diagonal, so every solve sees the floats
    of the normal matrix plus that diagonal matrix, which is never built.
    Every retry of an iteration solves for the same right-hand side -grad,
    formed once.
    """
    t = t0.copy()
    jac = np.empty((system.num_residuals, len(t)))
    r = _evaluate(system, t, jac)
    cost = float(r @ r)
    lam = 1e-3
    for _ in range(max_iters):
        if math.sqrt(cost) < 1e-15:
            break
        grad = jac.T @ r
        if abs(grad).max() < 1e-16:
            break
        descent = -grad
        damped = jac.T @ jac
        diagonal = damped.diagonal().copy()
        damping_scale = np.maximum(diagonal, 1e-12)
        damped += 0.0
        damped_diagonal = damped.reshape(-1)[:: len(damped) + 1]
        accepted = False
        for _retry in range(40):
            np.add(diagonal, lam * damping_scale, out=damped_diagonal)
            try:
                step = np.linalg.solve(damped, descent)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            candidate = t + step
            r_new = _evaluate(system, candidate, jac)
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
    return t, math.sqrt(cost)


@dataclass(slots=True)
class SearchResult:
    coefficients: np.ndarray  # complex, indexed by the degree-d monomial basis
    residual: float
    exact: Optional[Polynomial]
    attempt: int

    def to_json(self) -> dict:
        return {
            "coefficients": [[z.real, z.imag] for z in self.coefficients],
            "residual": self.residual,
            "exact": render(self.exact) if self.exact is not None else None,
            "attempt": self.attempt,
        }


def _rounded(value: complex, denominator_bound: int) -> GaussianRational:
    """The Gaussian rational nearest value with both denominators <= denominator_bound."""
    return GaussianRational(
        Fraction(value.real).limit_denominator(denominator_bound),
        Fraction(value.imag).limit_denominator(denominator_bound),
    )


def _exact_witness(
    basis: Sequence[Tuple[int, ...]], coefficients: Sequence[GaussianRational]
) -> Optional[Polynomial]:
    """The polynomial with these exact coefficients over basis, kept only if
    it is nonzero and an eigenfunction on the sphere of its variables."""
    nvars = len(basis[0])
    candidate = Polynomial(nvars, dict(zip(basis, coefficients)))
    if candidate.is_zero() or not verify_eigenfunction(candidate, nvars - 1).is_eigen:
        return None
    return candidate


def rationalize_and_verify(
    coefficients: Sequence[complex],
    nvars: int,
    degree: int,
    denominator_bound: int = 64,
) -> Optional[Polynomial]:
    """Round to Gaussian rationals and keep the result only if exactly eigen."""
    rounded = [_rounded(complex(value), denominator_bound) for value in coefficients]
    return _exact_witness(monomial_basis(nvars, degree), rounded)


def _isotropic_completion(
    coefficients: np.ndarray, basis: Sequence[Tuple[int, ...]], denominator_bound: int
) -> Optional[Polynomial]:
    """Exact rounding repair for linear candidates, kept if it verifies exactly.

    Rounds every coefficient except the two of largest modulus, then solves
    for those two exactly so that the isotropy condition sum theta_j^2 = 0
    holds: with s = theta_j + i*theta_k, t = theta_j - i*theta_k the
    condition reads s*t = -(rounded remainder), so rounding s and dividing
    exactly for t keeps the result both near the input and exactly isotropic.
    """
    order = np.argsort(-np.abs(coefficients))
    j, k = int(order[0]), int(order[1])
    rounded: List[GaussianRational] = []
    remainder = GaussianRational(Fraction(0))
    for idx, value in enumerate(coefficients):
        if idx in (j, k):
            rounded.append(GaussianRational(Fraction(0)))
            continue
        g = _rounded(value, denominator_bound)
        rounded.append(g)
        remainder = remainder + g * g
    target = -remainder  # need theta_j^2 + theta_k^2 = target
    s = _rounded(complex(coefficients[j]) + 1j * complex(coefficients[k]), denominator_bound)
    if s.is_zero():
        return None
    t = target / s
    half = GaussianRational(Fraction(1, 2))
    minus_half_i = GaussianRational(Fraction(0), Fraction(-1, 2))
    rounded[j] = (s + t) * half
    rounded[k] = (s - t) * minus_half_i
    return _exact_witness(basis, rounded)


def search_eigen(
    nvars: int,
    degree: int,
    attempts: int,
    rng_seed: int = 0,
    denominator_bound: int = 64,
) -> List[SearchResult]:
    """Multistart Levenberg-Marquardt over the harmonic degree-`degree` polynomials.

    Returns one SearchResult per attempt, sorted by residual (ties broken by
    attempt index).  The residual is |ResidualSystem.residual(theta)| at the
    result, Laplacian rows included.  Results whose residual is small get a
    rationalization pass; `exact` is filled only when the rounded polynomial
    verifies exactly.  Attempt i starts from the harmonic projection of the
    draw t = default_rng([rng_seed, i]).standard_normal(2 * size), that is
    HarmonicSystem.project(t), the coordinates of [u; v] = t in the
    harmonic basis scaled to unit norm, drawn when the attempt starts, so
    attempt i's start does not depend on how many attempts run.  The seed is
    refused as numpy refuses it (a negative integer is ValueError and a
    float TypeError) even with no attempt; attempts that would keep more
    than MEMORY_BUDGET bytes raise BudgetExceeded before that check and any
    draw.  The harmonic basis is built only if there is an attempt.
    """
    if attempts < 0:
        raise ValueError(f"attempts must be >= 0, got {attempts}")
    if denominator_bound < 1:
        raise ValueError(f"denominator bound must be >= 1, got {denominator_bound}")
    system = ResidualSystem(nvars, degree)
    # an attempt keeps its complex coefficients, 2 * size floats, and about
    # 320 bytes of objects (tracemalloc with LM stubbed: about 305 at (4, 1)
    # and 270 at (5, 3), while the results are sorted)
    kept = attempts * (16 * system.size + 320)
    if kept > MEMORY_BUDGET:
        raise BudgetExceeded(
            f"{attempts} attempts at nvars={nvars}, degree={degree} keep about "
            f"{kept / 2**20:.0f} MiB, over the {MEMORY_BUDGET / 2**20:.0f} MiB budget"
        )
    np.random.SeedSequence(rng_seed)  # numpy's own check of the seed
    # only attempts need the harmonic basis
    harmonic = HarmonicSystem(system) if attempts else None
    results: List[SearchResult] = []
    for attempt in range(attempts):
        t0 = np.random.default_rng([rng_seed, attempt]).standard_normal(2 * system.size)
        p_star, _ = _levenberg_marquardt(harmonic, harmonic.project(t0))
        uv = harmonic.lift(p_star)
        r = system.residual(uv.reshape(-1))
        residual = math.sqrt(r @ r)
        coefficients = uv[0] + 1j * uv[1]
        exact: Optional[Polynomial] = None
        if residual < 1e-6:
            exact = rationalize_and_verify(coefficients, nvars, degree, denominator_bound)
            if exact is None and degree == 1:
                exact = _isotropic_completion(coefficients, system.basis, denominator_bound)
        results.append(SearchResult(coefficients, residual, exact, attempt))
    # a stable sort of results in attempt order breaks ties by attempt, and
    # keys that are the residuals themselves allocate nothing per result
    results.sort(key=lambda res: res.residual)
    return results
