"""Numeric discovery of eigenfunction candidates, then exact recovery.

A degree-d candidate is a complex coefficient vector theta over the degree-d
monomial basis.  The conditions "Laplacian of P vanishes" (linear in theta)
and "bilinear gradient square of P vanishes" (quadratic in theta) become a
polynomial residual map; together with the gauge residual |theta|^2 - 1 it
is minimized by Levenberg-Marquardt with the analytic Jacobian.  Multistart
over seeded Gaussian initializations makes runs reproducible, and the best
candidates are rounded to Gaussian rationals and re-verified exactly, by
one helper for plain rounding and for the degree-1 isotropic repair.

The solver is hand-rolled on numpy: the system is small (tens of unknowns),
needs an analytic Jacobian, and is underdetermined at low degree, where
library implementations of the same algorithm refuse fewer residuals than
unknowns.
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
from .geometry import _AttemptDraws
from .parsing import render
from .polynomial import GaussianRational, Polynomial


# Largest search_memory_bytes that ResidualSystem accepts, and largest
# number of bytes that search_eigen's attempts may keep.
MEMORY_BUDGET = 1 << 30


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

    Counts 8-byte words for the Jacobian (rows x 2M), the LM normal matrix
    and its damped copy (2 (2M)^2), B@u and B@v (2 T M) and the kappa
    table (4 E), from the basis sizes alone: M degree-d monomials,
    T degree-(2d-2) kappa targets, E = N * mid^2 table rows over the mid
    degree-(d-1) monomials.
    """
    size = _basis_size(nvars, degree)
    targets = _basis_size(nvars, 2 * degree - 2)
    entries = nvars * _basis_size(nvars, degree - 1) ** 2
    rows = 2 * _basis_size(nvars, degree - 2) + 2 * targets + 1
    return 8 * (rows * 2 * size + 2 * (2 * size) ** 2 + 2 * targets * size + 4 * entries)


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
    symmetric as listed and every weight is an integer.

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
        self.num_targets = _basis_size(nvars, 2 * degree - 2)
        self.num_residuals = 2 * self.lap_matrix.shape[0] + 2 * self.num_targets + 1

    def split(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return t[: self.size], t[self.size:]

    def residual(self, t: np.ndarray) -> np.ndarray:
        u, v = self.split(t)
        lap_u = self.lap_matrix @ u
        lap_v = self.lap_matrix @ v
        target, a, b, weight = self.kappa_forms.T
        kap_re = np.bincount(target, weight * (u[a] * u[b] - v[a] * v[b]), self.num_targets)
        kap_im = 2 * np.bincount(target, weight * (u[a] * v[b]), self.num_targets)
        gauge = u @ u + v @ v - 1.0
        return np.concatenate([lap_u, lap_v, kap_re, kap_im, [gauge]])

    def _form_times(self, w: np.ndarray) -> np.ndarray:
        """The (T, M) matrix whose row t is B[t] @ w."""
        target, a, b, weight = self.kappa_forms.T
        size = self.num_targets * self.size
        return np.bincount(target * self.size + a, weight * w[b], size).reshape(
            self.num_targets, self.size
        )

    def jacobian(self, t: np.ndarray) -> np.ndarray:
        u, v = self.split(t)
        m = self.size
        rows = self.num_residuals
        jac = np.zeros((rows, 2 * m))
        r = self.lap_matrix.shape[0]
        jac[:r, :m] = self.lap_matrix
        jac[r:2 * r, m:] = self.lap_matrix
        bu = self._form_times(u)
        bv = self._form_times(v)
        q = self.num_targets
        jac[2 * r:2 * r + q, :m] = 2 * bu
        jac[2 * r:2 * r + q, m:] = -2 * bv
        jac[2 * r + q:2 * r + 2 * q, :m] = 2 * bv
        jac[2 * r + q:2 * r + 2 * q, m:] = 2 * bu
        jac[-1, :m] = 2 * u
        jac[-1, m:] = 2 * v
        return jac


def _levenberg_marquardt(
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
        del jac  # free it before the next iteration builds another
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


@dataclass
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
    """Multistart Levenberg-Marquardt over the degree-`degree` coefficient space.

    Returns one SearchResult per attempt, sorted by residual (ties broken by
    attempt index).  Results whose residual is small get a rationalization
    pass; `exact` is filled only when the rounded polynomial verifies exactly.
    Attempt i starts from the normalized draw
    default_rng([rng_seed, i]).standard_normal(2 * size), taken, as the
    sampling attempts take theirs, from geometry's _AttemptDraws, all before
    the first step; attempts that would keep more than MEMORY_BUDGET bytes
    raise BudgetExceeded before any draw.
    """
    if attempts < 0:
        raise ValueError(f"attempts must be >= 0, got {attempts}")
    if denominator_bound < 1:
        raise ValueError(f"denominator bound must be >= 1, got {denominator_bound}")
    system = ResidualSystem(nvars, degree)
    # an attempt keeps its starting draw and its coefficients, 2 * size floats
    # each, and about 320 bytes of objects (tracemalloc: 310 at (4, 1) and (5, 3))
    kept = attempts * (32 * system.size + 320)
    if kept > MEMORY_BUDGET:
        raise BudgetExceeded(
            f"{attempts} attempts at nvars={nvars}, degree={degree} keep about "
            f"{kept / 2**20:.0f} MiB, over the {MEMORY_BUDGET / 2**20:.0f} MiB budget"
        )
    starts = _AttemptDraws(rng_seed)(range(attempts), 2 * system.size)
    results: List[SearchResult] = []
    for attempt, t0 in enumerate(starts):
        t0 /= np.linalg.norm(t0)
        t_star, residual = _levenberg_marquardt(system, t0)
        u, v = system.split(t_star)
        coefficients = u + 1j * v
        exact: Optional[Polynomial] = None
        if residual < 1e-6:
            exact = rationalize_and_verify(coefficients, nvars, degree, denominator_bound)
            if exact is None and degree == 1:
                exact = _isotropic_completion(coefficients, system.basis, denominator_bound)
        results.append(SearchResult(coefficients, residual, exact, attempt))
    results.sort(key=lambda res: (res.residual, res.attempt))
    return results
