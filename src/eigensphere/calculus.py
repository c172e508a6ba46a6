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

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import DimensionMismatch, IndexOutOfRange, ZeroPolynomial
from .polynomial import GaussianRational, Polynomial, r_squared


@dataclass(frozen=True)
class PolyVector:
    """Vector of N polynomials in N variables (a polynomial vector field)."""

    components: Tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.components:
            raise DimensionMismatch("empty polynomial vector")
        n = self.components[0].nvars
        if any(c.nvars != n for c in self.components):
            raise DimensionMismatch("vector components disagree on nvars")
        if len(self.components) != n:
            raise DimensionMismatch(
                f"vector has {len(self.components)} components for {n} variables"
            )
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> Polynomial:
        return self.components[i]


@dataclass(frozen=True)
class PolyMatrix:
    """N x N matrix of polynomials; Hessians are exactly symmetric."""

    entries: Tuple[Tuple[Polynomial, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        if not rows:
            raise DimensionMismatch("empty polynomial matrix")
        n = rows[0][0].nvars
        for row in rows:
            if len(row) != len(rows):
                raise DimensionMismatch("polynomial matrix must be square")
            for entry in row:
                if entry.nvars != n:
                    raise DimensionMismatch("matrix entries disagree on nvars")
        object.__setattr__(self, "entries", rows)

    @property
    def nvars(self) -> int:
        return self.entries[0][0].nvars

    def __getitem__(self, ij) -> Polynomial:
        i, j = ij
        return self.entries[i][j]

    def size(self) -> int:
        return len(self.entries)

    def trace(self) -> Polynomial:
        total = Polynomial.zero(self.nvars)
        for i in range(len(self.entries)):
            total = total + self.entries[i][i]
        return total


# ---------------------------------------------------------------------------
# First and second order operators


def partial(p: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative with respect to x_i (1-based)."""
    if not 1 <= i <= p.nvars:
        raise IndexOutOfRange(f"variable index {i} outside 1..{p.nvars}")
    slot = i - 1
    terms = {}
    for exps, coeff in p._terms.items():
        e = exps[slot]
        if e == 0:
            continue
        dropped = list(exps)
        dropped[slot] = e - 1
        terms[tuple(dropped)] = coeff * GaussianRational(Fraction(e))
    return Polynomial(p.nvars, terms)


def gradient(p: Polynomial) -> PolyVector:
    return PolyVector(tuple(partial(p, i) for i in range(1, p.nvars + 1)))


def laplacian(p: Polynomial) -> Polynomial:
    total = Polynomial.zero(p.nvars)
    for i in range(1, p.nvars + 1):
        total = total + partial(partial(p, i), i)
    return total


def hessian(p: Polynomial) -> PolyMatrix:
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
    return PolyMatrix(tuple(tuple(row) for row in rows))


def kappa(p: Polynomial, q: Polynomial) -> Polynomial:
    """Complex-bilinear gradient product sum_i (d_i p)(d_i q); no conjugation."""
    if p.nvars != q.nvars:
        raise DimensionMismatch(
            f"kappa operands live in different spaces: {p.nvars} vs {q.nvars}"
        )
    total = Polynomial.zero(p.nvars)
    for i in range(1, p.nvars + 1):
        total = total + partial(p, i) * partial(q, i)
    return total


def hess_grad_grad(p: Polynomial) -> Polynomial:
    """The cubic-in-derivatives invariant Q = Hess p (grad p, grad p).

    Computed as kappa(p, kappa(p, p)) / 2, which is exact because
    d_i kappa(p, p) = 2 sum_j (d_j p)(d_ij p).
    """
    return kappa(p, kappa(p, p)) * Fraction(1, 2)


def euler(p: Polynomial) -> Polynomial:
    """Euler operator sum_i x_i d_i p; equals k*p on homogeneous degree-k input."""
    total = Polynomial.zero(p.nvars)
    for i in range(1, p.nvars + 1):
        total = total + Polynomial.variable(p.nvars, i) * partial(p, i)
    return total


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
    residual = (
        laplacian(phi * psi)
        - laplacian(phi) * psi
        - 2 * kappa(phi, psi)
        - phi * laplacian(psi)
    )
    return residual.is_zero()
