"""Flat differential operators on polynomials.

Everything here is exact symbolic calculus on R^N: partial derivatives,
gradient, Hessian, Laplacian, the complex-bilinear first-order product
kappa, and the Euler operator.  Sphere-intrinsic quantities are always
derived later from these flat operators through homogeneity formulas;
no intrinsic coordinates appear anywhere in the package.

kappa is complex-BILINEAR, not Hermitian: kappa(p, q) = sum_i (d_i p)(d_i q)
with no conjugation.  An isotropic gradient, e.g. for p = x1 + i*x2, gives
kappa(p, p) = 0 even though p is not constant.  This is the whole point:
the second eigenfunction equation constrains the bilinear square of the
gradient, and conjugating would make every nontrivial example fail.

Storage stays in the real variables x1..xN, but kappa works in the complex
ones: per coordinate pair (x_{2j-1}, x_{2j}) it multiplies the derivatives
D+- = d_x +- i*d_y, so a polynomial that is holomorphic or antiholomorphic
in each z_j = x_{2j-1} + i*x_{2j} contributes no product to kappa(P, P).
`partial`, `laplacian` and the gradient's one pass (`first_partials`) come
from `polynomial`, which owns the storage they pass over; kappa is `partial`
and one `Polynomial._dot` sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, Sequence, Tuple, Union

from .errors import DimensionMismatch, ZeroPolynomial
from .polynomial import I, Polynomial, first_partials, laplacian, partial, r_squared


# ---------------------------------------------------------------------------
# First and second order operators


def gradient(p: Polynomial) -> Tuple[Polynomial, ...]:
    """(d_1 p, ..., d_N p), in one pass over p's terms (polynomial.first_partials)."""
    return first_partials(p)


def hessian(p: Union[Polynomial, Sequence[Polynomial]]) -> Tuple[Tuple[Polynomial, ...], ...]:
    """Rows of second partials; entry [i][j] is d_{i+1} d_{j+1} p, exactly symmetric.

    p is a polynomial or its gradient (d_1 p, ..., d_N p), which a caller
    that already holds it passes so that no first partial is formed twice.
    Its nonzero entries come from hessian_entries; every other entry is zero.
    """
    first_partials = gradient(p) if isinstance(p, Polynomial) else tuple(p)
    nvars = len(first_partials)
    zero = Polynomial.zero(nvars)
    rows = [[zero] * nvars for _ in range(nvars)]
    for (i, j), entry in hessian_entries(first_partials).items():
        rows[i][j] = entry
    return tuple(tuple(row) for row in rows)


def hessian_entries(first_partials: Sequence[Polynomial]) -> Dict[Tuple[int, int], Polynomial]:
    """The nonzero second partials of p from its gradient, {(i, j): d_{i+1} d_{j+1} p}.

    Keys are 0-based and in row-major order.  d_j of a first partial is
    taken only for the variables x_j that occur in it, so no zero entry is
    formed or visited.  An entry left of the diagonal is the one above it
    (Schwarz symmetry): x_j occurs in d_i p exactly when d_j d_i p =
    d_i d_j p is nonzero, so that entry was formed.
    """
    entries: Dict[Tuple[int, int], Polynomial] = {}
    for i, first in enumerate(first_partials):
        for j in first.variables():
            j -= 1
            entries[i, j] = entries[j, i] if j < i else partial(first, j + 1)
    return entries


def _wirtinger(p: Polynomial, j: int) -> Tuple[Polynomial, Polynomial]:
    """(D+ p, D- p) for the pair (x, y) = (x_{2j-1}, x_{2j}), D+- = d_x +- i*d_y.

    D+ = 2 d/d(conj z_j) annihilates polynomials holomorphic in z_j = x + i*y,
    and D- = 2 d/dz_j antiholomorphic ones.
    """
    dx, i_dy = partial(p, 2 * j - 1), partial(p, 2 * j) * I
    return dx + i_dy, dx - i_dy


def _partials(p: Polynomial, q: Polynomial, indices) -> Iterator[Tuple[Polynomial, Polynomial]]:
    """(d_i p, d_i q) for i in `indices` with d_i p nonzero; one object for
    both when q is p, so that their product is a square."""
    for i in indices:
        dp = partial(p, i)
        if dp:
            yield dp, dp if q is p else partial(q, i)


def kappa(p: Polynomial, q: Polynomial) -> Polynomial:
    """Complex-bilinear gradient product sum_i (d_i p)(d_i q); no conjugation.

    Complex operands are taken a coordinate pair (x, y) = (x_{2j-1}, x_{2j})
    at a time, through

        d_x p d_x q + d_y p d_y q = (D+p D-q + D-p D+q) / 2,   D+- = d_x +- i*d_y,

    which is D+p D-p when q is p.  D+ annihilates polynomials holomorphic
    in z_j = x + i*y and D- antiholomorphic ones, so kappa(P, P) forms no
    product at all when P is one or the other in every z_j, as
    z1^n*conj(z2)^m is.  An odd N adds d_N p d_N q.  Two real operands,
    where no factor vanishes, take sum_i (d_i p)(d_i q), with squares when
    q is p.  Every product is summed in one `Polynomial._dot` pass, which
    skips a zero factor and raises BudgetExceeded past MAX_DEGREE.
    """
    if p.nvars != q.nvars:
        raise DimensionMismatch(
            f"kappa operands live in different spaces: {p.nvars} vs {q.nvars}"
        )
    nvars = p.nvars
    if p.is_real() and (q is p or q.is_real()):
        return Polynomial._dot(nvars, _partials(p, q, range(1, nvars + 1)))
    factors = []
    for j in range(1, nvars // 2 + 1):
        plus_p, minus_p = _wirtinger(p, j)
        if q is p:
            factors.append((plus_p, minus_p))
        else:
            plus_q, minus_q = _wirtinger(q, j)
            factors += [(plus_p * Fraction(1, 2), minus_q), (minus_p * Fraction(1, 2), plus_q)]
    if nvars % 2:
        factors += _partials(p, q, (nvars,))
    return Polynomial._dot(nvars, factors)


def hess_grad_grad(p: Polynomial) -> Polynomial:
    """The cubic-in-derivatives invariant Q = Hess p (grad p, grad p).

    Computed as kappa(p, kappa(p, p)) / 2, which is exact because
    d_i kappa(p, p) = 2 sum_j (d_j p)(d_ij p).
    """
    return kappa(p, kappa(p, p)) * Fraction(1, 2)


def euler(p: Polynomial) -> Polynomial:
    """Euler operator sum_i x_i d_i p; equals k*p on homogeneous degree-k input."""
    return Polynomial.sum(p.nvars, (Polynomial.variable(p.nvars, i) * partial(p, i)
                                    for i in range(1, p.nvars + 1)))


def r2_coprime(p: Polynomial) -> bool:
    """True when the squared radius does not divide p."""
    if p.is_zero():
        raise ZeroPolynomial("divisibility by r^2 is undefined for the zero polynomial")
    return p.exact_divide(r_squared(p.nvars)) is None


def identity_one_check(phi: Polynomial, psi: Polynomial) -> bool:
    """Exact product rule for the Laplacian:

        laplacian(phi*psi) = laplacian(phi)*psi + 2*kappa(phi,psi) + phi*laplacian(psi)

    Holds identically for all polynomials; exposed as a self-test hook.
    """
    if phi.nvars != psi.nvars:
        raise DimensionMismatch("operands live in different spaces")
    residual = Polynomial.sum(phi.nvars, (
        laplacian(phi * psi),
        -(laplacian(phi) * psi),
        -2 * kappa(phi, psi),
        -(phi * laplacian(psi)),
    ))
    return residual.is_zero()
