"""Numerical geometry of polynomial varieties intersected with the unit sphere.

This is the floating-point layer.  Everything symbolic (constraints, their
gradients and Hessians) is prepared at most once per VarietySpec, the
Hessians only when mean_curvature first asks for them, and compiled into
CompiledPolys tables, which are the only way this layer evaluates
polynomials, at one point or at a batch of points.  A table forms the powers
x_v^k by repeated multiplication and each monomial as a product over its
variables of nonzero exponent only, so a degree-d monomial is rounded at
most d - 1 times; the roundoff factor (deg + terms) * 2^-53 of minimality's
reliability bound rests on that.  Newton evaluates each point once: a step
carries the values of the point it moved to into the next step.  The
numerics are Newton projection with a minimum-norm least-squares step (one
stacked QR, and the SVD with its singular-value cutoff for the rows that QR
cannot prove far from that cutoff), seeded Gaussian sampling, and the
level-set second-fundamental-form trace that yields mean-curvature
components of the cut-out submanifold.  The seeded attempt loop exists once,
as _quota: it runs Newton on a chunk of attempts at once (_newton_batch, of
which newton_project is the batch of one), calls an optional measure once
per chunk on the chunk's converged points, keeps by one mask those whose
measured row has no nan up to its quota, and returns them as a PointCloud,
with the kept rows as one float array.  `sample` and both minimality checks
take their points through it.  The residual and regularity of a sampled
point are those of the Newton step at which it converged.  Attempt i
draws default_rng([seed, i]).standard_normal(N) bit for bit, but no
generator is built per attempt: _AttemptDraws runs SeedSequence's hash over
a whole chunk of attempts as uint32 array operations, then sets the state
of one reused PCG64 for each draw.  search_eigen takes its starting points
from it too.

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
  * the normal frame at each point comes from one reduced QR factorization
    J^T = Q R of the constraint Jacobian: the columns of Q, signed by
    diag(R), are the Gram-Schmidt normals nu_b of the gradient rows, so nu_0
    is the position vector;
  * <H, nu_b> = -sum_i (sum_a C_ba Hess g_a)(e_i, e_i) over an orthonormal
    tangent basis {e_i}, where nu_b = sum_a C_ba grad g_a, i.e.
    C = sign(diag R) R^-T, and sum_i H(e_i, e_i) = tr H - sum_k H(nu_k, nu_k);
    the radial component (b = 0) always equals -dim M on the sphere.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field
from functools import cached_property
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

    The constraints and their gradients are compiled at construction into
    two CompiledPolys tables (values, Jacobian); the Hessians, which only
    mean_curvature reads, are computed symbolically and compiled into a third
    table on first use.  All later evaluation goes through these tables;
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
        m = len(self._constraints)
        return CompiledPolys(
            self.nvars, [e for grad in self._gradients for row in hessian(grad) for e in row],
            (m, self.nvars, self.nvars))

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
    when it did not stop).  The steps come from _newton_steps, a stacked QR
    for the rows whose singular values it proves above the cutoff; the
    smallest singular value at the stop always comes from a values-only SVD.

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
        step = _newton_steps(spec.jacobian(x_live), values)
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


def _newton_steps(jac: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares steps s_b with jac_b s_b = values_b, (B, m, N) -> (B, N).

    The step of a row is V S^+ U^T g from the SVD of its Jacobian, where S^+
    inverts the singular values above max(EPS_REG * 1e-4, 1e-14 sigma_max)
    and drops the rest.  Every row is first factored by one stacked QR,
    J^T = Q R.  Since sigma_min = |det R| / (product of the other singular
    values) >= |det R| / ||R||_F^(m-1), and sigma_max <= ||R||_F, a row with
    |det R| / ||R||_F^(m-1) > max(EPS_REG * 1e-4, 1e-14 ||R||_F) has no
    singular value at or below the cutoff; its step is the full-rank
    minimum-norm solution Q R^-T g, by forward substitution.  Only the other
    rows, rank-deficient or nearly so, take the SVD.  The bound is formed as
    ||R||_F * prod_k (|R_kk| / ||R||_F), whose factors are at most 1, so it
    overflows only with ||R||_F itself; a row whose ||R||_F overflows (or is
    zero) reads nan, which compares false, and takes the SVD.
    """
    q, r = np.linalg.qr(np.swapaxes(jac, 1, 2))
    m = r.shape[-1]
    pivots = np.diagonal(r, axis1=1, axis2=2)
    with np.errstate(over="ignore", invalid="ignore"):
        frobenius = np.linalg.norm(r, axis=(1, 2))
        bound = np.prod(np.abs(pivots) / frobenius[:, None], axis=1) * frobenius
    by_qr = bound > np.maximum(EPS_REG * 1e-4, frobenius * 1e-14)
    steps = np.empty((len(jac), jac.shape[2]))
    if by_qr.any():
        r_qr, g = r[by_qr], values[by_qr]
        y = np.empty_like(g)
        for k in range(m):  # R^T y = g, lower triangular
            y[:, k] = (g[:, k] - np.einsum("bj,bj->b", r_qr[:, :k, k], y[:, :k])) / r_qr[:, k, k]
        steps[by_qr] = np.einsum("bnk,bk->bn", q[by_qr], y)
    if not by_qr.all():
        u, s, vt = np.linalg.svd(jac[~by_qr], full_matrices=False)
        cutoff = np.maximum(EPS_REG * 1e-4, s[:, :1] * 1e-14)
        inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
        coords = inv * np.einsum("bmk,bm->bk", u, values[~by_qr])
        steps[~by_qr] = np.einsum("bkn,bk->bn", vt, coords)
    return steps


# SeedSequence's hash (numpy's bit_generator.pyx, the stable algorithm of NEP
# 19), then the multiplier of PCG64's 128-bit linear congruential step
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_MIX_ENTROPY = (0x43B0D7E5, 0x931E8875)  # first hash constant, its multiplier
_GENERATE_STATE = (0x8B51F9DD, 0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(count: int, constant: int, multiplier: int) -> np.ndarray:
    """c_0 .. c_count as a column, c_0 = constant and c_k+1 = c_k * multiplier mod 2^32.

    SeedSequence's k-th hash of a word, counted from 0, xors c_k and
    multiplies by c_k+1 (_hash).
    """
    constants = [constant]
    for _ in range(count):
        constants.append(constants[-1] * multiplier & _MASK32)
    return np.array(constants, np.uint32)[:, None]


def _hash(words: np.ndarray, xor: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """h = (v ^ xor) * multiplier, then h ^ (h >> 16); words (K, B) or (B,), constants (K, 1)."""
    value = (words ^ xor) * multiplier
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> 16


# mix_entropy's hashes 4 .. 15 mix each pool word, the source, into the
# three others in order; as (xor, multiplier) columns over the pool, the
# source's own slot has the constant 0 and keeps its value
_ENTROPY_HASHES = _hash_constants(16, *_MIX_ENTROPY)
_SOURCE_HASHES = [(np.insert(_ENTROPY_HASHES[k:k + 3], source, 0, axis=0),
                   np.insert(_ENTROPY_HASHES[k + 1:k + 4], source, 0, axis=0))
                  for source, k in enumerate(range(4, 16, 3))]
_GENERATE_HASHES = _hash_constants(8, *_GENERATE_STATE)


def _uint32_words(n: int) -> List[int]:
    """The little-endian 32-bit words numpy's SeedSequence reads from n >= 0; [0] for 0."""
    return [(n >> shift) & _MASK32 for shift in range(0, max(1, n.bit_length()), 32)]


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """The seeds of PCG64(SeedSequence(column)) for every column of entropy (W, B) uint32.

    Returns (4, B) uint64: the high and low halves of initstate, then of
    initseq.  SeedSequence pools the words with mix_entropy: the first four,
    padded with zeros, hashed into four pool words, every pool word mixed
    into each other one, then each word past the fourth into every pool
    word.  Its generate_state(4, uint64) hashes the pool, cycled twice, into
    eight words, read in little-endian pairs.  The hash constants evolve the
    same way whatever the data, so every column runs the same sequence of
    uint32 array operations, which wrap mod 2^32 as the C code does.
    """
    width = len(entropy)
    constants = _hash_constants(16 + 4 * max(0, width - 4), *_MIX_ENTROPY)
    pool = np.zeros((4, entropy.shape[1]), np.uint32)
    pool[:min(width, 4)] = entropy[:4]
    pool = _hash(pool, constants[:4], constants[1:5])
    for source, (xor, multiplier) in enumerate(_SOURCE_HASHES):
        kept = pool[source].copy()
        pool = _mix(pool, _hash(pool[source], xor, multiplier))
        pool[source] = kept
    for k, word in zip(range(16, len(constants), 4), entropy[4:]):
        pool = _mix(pool, _hash(word, constants[k:k + 4], constants[k + 1:k + 5]))
    words = _hash(np.concatenate([pool, pool]), _GENERATE_HASHES[:-1],
                  _GENERATE_HASHES[1:]).astype(np.uint64)
    return words[0::2] | words[1::2] << np.uint64(32)


class _AttemptDraws:
    """The standard normal draws of seeded attempts, a chunk at a time.

    draws = _AttemptDraws(rng_seed) validates the seed as numpy does: a
    float raises TypeError and a negative integer ValueError.  Then
    draws(attempts, nvars) is (B, nvars), and its row j is
    default_rng([rng_seed, attempts[j]]).standard_normal(nvars) bit for bit.
    SeedSequence's hash runs over the chunk in array operations
    (_pcg64_seeds), once for every number of 32-bit words that attempt
    indices take; then each row takes PCG64's seeding step in Python
    integers, sets the state of one PCG64, reused by every call, and draws
    from it.
    """

    def __init__(self, rng_seed: int):
        # a numpy integer becomes a Python int, whose shifts do not wrap
        rng_seed = operator.index(rng_seed)
        if rng_seed < 0:
            raise ValueError("expected non-negative integer")
        self._seed_words = np.array(_uint32_words(rng_seed), np.uint32)[:, None]
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)

    def __call__(self, attempts: Sequence[int], nvars: int) -> np.ndarray:
        index = np.array(attempts, dtype=object)
        seeds = np.empty((4, len(index)), np.uint64)
        seed_width = len(self._seed_words)
        rest = np.arange(len(index))
        width = 1
        while rest.size:
            fits = index[rest] < 1 << 32 * width
            rows, rest = rest[fits], rest[~fits]
            entropy = np.empty((seed_width + width, len(rows)), np.uint32)
            entropy[:seed_width] = self._seed_words
            for word in range(width):
                entropy[seed_width + word] = (index[rows] >> 32 * word) & _MASK32
            seeds[:, rows] = _pcg64_seeds(entropy)
            width += 1
        draws = np.empty((len(index), nvars))
        for draw, state_high, state_low, seq_high, seq_low in zip(draws, *seeds.tolist()):
            # PCG64's seeding: inc = 2 initseq + 1, then one LCG step from
            # state 0, the addition of initstate, and one more step
            inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
            state = ((inc + (state_high << 64 | state_low)) * _PCG64_MULT + inc) & _MASK128
            self._bit_generator.state = {"bit_generator": "PCG64",
                                         "state": {"state": state, "inc": inc},
                                         "has_uint32": 0, "uinteger": 0}
            self._generator.standard_normal(out=draw)
        return draws


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

    Attempt i projects the normalized draw of default_rng([rng_seed, i]), so
    results do not depend on execution order; a draw of norm below 1e-12 is
    no_convergence.  Each chunk takes its draws from one call of an
    _AttemptDraws made once per _quota call, which seeds the whole chunk in
    array operations and gives every draw bit for bit.  Attempts run in
    chunks through _newton_batch: each chunk is the number of attempts that,
    at the converged rate so far, should bring the converged count to count,
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
    full, the shortfall message naming both tallies (else None).
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    cap = max(1, CHUNK_FLOATS // max(spec._values.point_floats, spec._jacobian.point_floats))
    attempt_draws = _AttemptDraws(rng_seed)
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
        draws = attempt_draws(chunk, spec.nvars)
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

    Deterministic in rng_seed: attempt i uses its own substream
    default_rng([rng_seed, i]), so results do not depend on execution order;
    the cloud is _quota's, whose draws are bit for bit those of that
    substream, with the run's settings added to its metadata.
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
    gradients, all read off one reduced QR factorization of the Jacobian;
    the tangent space is the orthogonal complement, and the trace of a
    Hessian over it is its full trace minus its trace over the normals.
    Minimality of the cut-out submanifold inside the sphere is the vanishing
    of all components for b >= 1; the radial component is the dimension
    check -dim M.  A batch runs in blocks of rows, each one stacked SVD,
    reduced QR, Hessian-times-normals matrix product, trace and solve, so
    that no temporary exceeds CHUNK_FLOATS floats beyond one point's own;
    one point is the batch of one.  Raises OffVariety when any
    residual max |g_a| exceeds OFF_VARIETY_TOL and SingularJacobian when any
    smallest singular value of the Jacobian is below EPS_REG.
    """
    points = np.atleast_2d(np.asarray(x, dtype=float))
    m = spec.num_equations
    # a point's Hessians and their (m, N, m) products with the normals are
    # alive at once
    rows = max(1, CHUNK_FLOATS // max(spec._values.point_floats, spec._jacobian.point_floats,
                                      spec._hessians.point_floats + m * spec.nvars * m))
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
        q, r = np.linalg.qr(np.swapaxes(jac, 1, 2))
        hessians = spec.hessian_at(block)
        # sum_i e_i^T H_a e_i = tr H_a - sum_k nu_k^T H_a nu_k over the normals
        traces = (np.trace(hessians, axis1=2, axis2=3)
                  - np.einsum("bnk,bank->ba", q, hessians @ q[:, None]))
        pivots = np.diagonal(r, axis1=1, axis2=2)
        # b as a stack of column vectors reads the same under numpy 1.x and 2.x
        solved = np.linalg.solve(np.swapaxes(r, 1, 2), traces[..., None])[..., 0]
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
    row_format = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.write((row_format * len(table)) % tuple(table.ravel().tolist()))


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
