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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from typing import Tuple

from .errors import DimensionMismatch, IndexOutOfRange, ZeroPolynomial
from .polynomial import MAX_DEGREE, Polynomial, _check_degree, _shift, _unit, _unpack, r_squared


# ---------------------------------------------------------------------------
# First and second order operators


def partial(p: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative with respect to x_i (1-based).

    One pass over p's Gaussian-integer pairs, which share p's denominator D:
    a term (re + i*im)/D x^a with a_i > 0 becomes (a_i*re + i*a_i*im)/D
    x^(a - e_i).  a_i is read from x_i's field of the packed key, and the
    new key is the old one minus the key of x_i.  Distinct terms land on
    distinct exponents, so nothing is summed and nothing cancels; only a
    common factor of D and the new numerators is divided out, and none
    exists when D == 1.
    """
    if not 1 <= i <= p.nvars:
        raise IndexOutOfRange(f"variable index {i} outside 1..{p.nvars}")
    shift, unit = _shift(p.nvars, i), _unit(p.nvars, i)
    pairs = {}
    for key, (re, im) in p._pairs.items():
        e = (key >> shift) & MAX_DEGREE
        if e:
            pairs[key - unit] = (e * re, e * im)
    return Polynomial._reduced(p.nvars, pairs, p._den)


def gradient(p: Polynomial) -> Tuple[Polynomial, ...]:
    """(d_1 p, ..., d_N p)."""
    return tuple(partial(p, i) for i in range(1, p.nvars + 1))


def laplacian(p: Polynomial) -> Polynomial:
    return Polynomial.sum(p.nvars, (partial(partial(p, i), i) for i in range(1, p.nvars + 1)))


def hessian(p: Polynomial) -> Tuple[Tuple[Polynomial, ...], ...]:
    """Rows of second partials; entry [i][j] is d_{i+1} d_{j+1} p, exactly symmetric."""
    firsts = [partial(p, i) for i in range(1, p.nvars + 1)]
    rows = []
    for i in range(p.nvars):
        row = []
        for j in range(p.nvars):
            if j < i:
                row.append(rows[j][i])  # Schwarz symmetry, reuse the transpose
            else:
                row.append(partial(firsts[i], j + 1))
        rows.append(row)
    return tuple(tuple(row) for row in rows)


def kappa(p: Polynomial, q: Polynomial) -> Polynomial:
    """Complex-bilinear gradient product sum_i (d_i p)(d_i q); no conjugation.

    One pass over term pairs, with no partial derivatives or products built:
    a term c_a x^a of p and a term c_b x^b of q contribute a_i*b_i*c_a*c_b
    at the exponent a + b - 2e_i for every i with a_i and b_i both nonzero,
    whose packed key is key(a) + key(b) - 2*key(x_i).  The operands'
    Gaussian-integer pairs are multiplied and summed as they are stored,
    over the product of the two denominators, as in `Polynomial.__mul__`.
    When q is p, each unordered pair of terms is visited once and counted
    twice.  Raises BudgetExceeded when deg p + deg q - 2 is over MAX_DEGREE.
    """
    if p.nvars != q.nvars:
        raise DimensionMismatch(
            f"kappa operands live in different spaces: {p.nvars} vs {q.nvars}"
        )
    nvars = p.nvars
    if p and q:
        _check_degree(p.degree() + q.degree() - 2)
    twice = [2 * _unit(nvars, i) for i in range(1, nvars + 1)]
    left = [(ka, _unpack(ka, nvars), ra, ia) for ka, (ra, ia) in p._pairs.items()]
    if q is p:
        doubled = [(kb, eb, 2 * rb, 2 * ib) for kb, eb, rb, ib in left]
    else:
        right = [(kb, _unpack(kb, nvars), rb, ib) for kb, (rb, ib) in q._pairs.items()]
    sums: dict = {}
    for index, (ka, ea, ra, ia) in enumerate(left):
        support = [(i, a, twice[i]) for i, a in enumerate(ea) if a]
        # for q is p: the term itself once, then every later term twice
        partners = (
            chain((left[index],), islice(doubled, index + 1, None)) if q is p else right)
        for kb, eb, rb, ib in partners:
            both = None
            for i, a, unit2 in support:
                b = eb[i]
                if not b:
                    continue
                if both is None:
                    both = ka + kb
                    re, im = ra * rb - ia * ib, ra * ib + ia * rb
                key = both - unit2
                weight = a * b
                acc = sums.get(key)
                if acc is None:
                    sums[key] = [weight * re, weight * im]
                else:
                    acc[0] += weight * re
                    acc[1] += weight * im
    return Polynomial._summed(p.nvars, sums, p._den * q._den)


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
