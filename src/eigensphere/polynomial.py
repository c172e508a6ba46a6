"""Exact sparse multivariate polynomial arithmetic over Gaussian rationals.

A polynomial in N real variables x1..xN is stored as a map from exponent
tuples to GaussianRational coefficients:

    x1^2*x3 - i/2       ->    {(2, 0, 1): 1, (0, 0, 0): -i/2}

The representation is canonical: zero coefficients are never stored, every
exponent tuple has length N, and two equal polynomials have identical term
maps.  All arithmetic is exact (arbitrary-precision rationals), which is what
makes divisibility and harmonicity certificates trustworthy.  Values are
immutable after construction and safe to share between threads.

Products are accumulated over Gaussian integers, not term by term in
GaussianRational: each operand's coefficients are put over one common
denominator D (the lcm of every real and imaginary denominator), the loop
adds plain (re, im) integer pairs per exponent tuple, and each sum becomes a
GaussianRational once, at the end, over D_p*D_q.  `_to_gaussian_integers` and
`_from_gaussian_integers` are that conversion; `calculus.kappa` and
`calculus.partial` use them too.

The only floating-point operation is `evaluate`, which sums the terms in the
canonical graded-lexicographic order so results are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    DimensionMismatch,
    DivisionByZeroPolynomial,
    IndexOutOfRange,
    ZeroPolynomial,
)

#: Exponent tuple: entry i is the power of x_{i+1} in the monomial.
Exponents = tuple


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Fraction keeps denominators positive and reduced, so equality of two
    GaussianRational values is exact equality of complex numbers.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value: "ScalarLike") -> "GaussianRational":
        """Coerce an int, Fraction, or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @staticmethod
    def _operand(other) -> Optional["GaussianRational"]:
        # defer to the other type (e.g. Polynomial.__rmul__) when not scalar
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(Fraction(other))
        return None

    def __add__(self, other) -> "GaussianRational":
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = self._operand(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


ScalarLike = Union[int, Fraction, GaussianRational]

ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))


def _grlex_key(exps: Exponents):
    """Sort key for the graded-lexicographic order (degree, then lex)."""
    return (sum(exps), exps)


def _to_gaussian_integers(terms: Mapping) -> Tuple[List[Tuple[Exponents, int, int]], int]:
    """A term map over one common denominator: ([(exps, re, im)], D).

    Each coefficient equals (re + i*im) / D, with D the lcm of every real and
    imaginary denominator in the map (1 for an empty map).
    """
    denominator = lcm(*(d for c in terms.values() for d in (c.re.denominator, c.im.denominator)))
    return [
        (exps,
         c.re.numerator * (denominator // c.re.denominator),
         c.im.numerator * (denominator // c.im.denominator))
        for exps, c in terms.items()
    ], denominator


def _from_gaussian_integers(sums: Mapping, denominator: int) -> dict:
    """Canonical term map from integer sums exps -> (re, im) over `denominator`.

    Sums that cancelled to zero are dropped here, once, not inside the loop.
    """
    return {
        exps: GaussianRational(Fraction(re, denominator), Fraction(im, denominator))
        for exps, (re, im) in sums.items()
        if re or im
    }


class Polynomial:
    """Immutable sparse polynomial over Gaussian rationals in N variables."""

    __slots__ = ("nvars", "_terms", "_eval_terms")

    def __init__(self, nvars: int, terms: Optional[Mapping[Exponents, ScalarLike]] = None):
        if nvars < 1:
            raise DimensionMismatch(f"nvars must be positive, got {nvars}")
        clean: dict = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise DimensionMismatch(
                        f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
                    )
                if any((not isinstance(e, int)) or e < 0 for e in exps):
                    raise ValueError(f"exponents must be non-negative integers, got {exps}")
                value = GaussianRational.of(coeff)
                if value:
                    acc = clean.get(exps)
                    value = value if acc is None else acc + value
                    if value:
                        clean[exps] = value
                    elif exps in clean:
                        del clean[exps]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_eval_terms", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial values are immutable")

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: ScalarLike) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: GaussianRational.of(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """x_index, with 1-based index as in the x1..xN naming."""
        if not 1 <= index <= nvars:
            raise IndexOutOfRange(f"variable index {index} outside 1..{nvars}")
        exps = [0] * nvars
        exps[index - 1] = 1
        return cls(nvars, {tuple(exps): ONE})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: ScalarLike = 1) -> "Polynomial":
        return cls(nvars, {tuple(exps): GaussianRational.of(coeff)})

    # ----- inspection ---------------------------------------------------

    def items(self) -> Iterator:
        """Terms in descending graded-lexicographic order."""
        return iter(sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True))

    def coefficient(self, exps: Sequence[int]) -> GaussianRational:
        return self._terms.get(tuple(exps), GaussianRational())

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_real(self) -> bool:
        return all(c.im == 0 for c in self._terms.values())

    def degree(self) -> int:
        """Maximal total degree.  Undefined (error) for the zero polynomial."""
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return max(sum(e) for e in self._terms)

    def homogeneity(self) -> Optional[int]:
        """The common total degree of all terms, or None if degrees are mixed."""
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no homogeneity degree")
        degrees = {sum(e) for e in self._terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def leading_term(self):
        """(exponents, coefficient) maximal in graded-lexicographic order."""
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        exps = max(self._terms, key=_grlex_key)
        return exps, self._terms[exps]

    # ----- ring operations ----------------------------------------------

    def _check_same_space(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"polynomials live in different spaces: {self.nvars} vs {other.nvars} variables"
            )

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_same_space(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            acc = terms.get(exps)
            total = coeff if acc is None else acc + coeff
            if total:
                terms[exps] = total
            elif exps in terms:
                del terms[exps]
        return self._raw(self.nvars, terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "Polynomial":
        return self._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_same_space(other)
        left, left_den = _to_gaussian_integers(self._terms)
        right, right_den = (
            (left, left_den) if other is self else _to_gaussian_integers(other._terms))
        sums: dict = {}
        for ea, ra, ia in left:
            for eb, rb, ib in right:
                exps = tuple(map(add, ea, eb))
                acc = sums.get(exps)
                if acc is None:
                    sums[exps] = [ra * rb - ia * ib, ra * ib + ia * rb]
                else:
                    acc[0] += ra * rb - ia * ib
                    acc[1] += ra * ib + ia * rb
        return self._raw(self.nvars, _from_gaussian_integers(sums, left_den * right_den))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"polynomial power must be a non-negative integer, got {k}")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Polynomial.constant(self.nvars, other)
        return NotImplemented

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "Polynomial":
        """Internal constructor for term maps already in canonical form."""
        poly = cls.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_eval_terms", None)
        return poly

    # ----- structure ----------------------------------------------------

    def conjugate(self) -> "Polynomial":
        """Coefficient-wise complex conjugation (variables are real)."""
        return self._raw(self.nvars, {e: c.conjugate() for e, c in self._terms.items()})

    def real_imag_parts(self):
        """Split p = u + i*v into real-coefficient polynomials (u, v)."""
        re_terms = {e: GaussianRational(c.re) for e, c in self._terms.items() if c.re}
        im_terms = {e: GaussianRational(c.im) for e, c in self._terms.items() if c.im}
        return self._raw(self.nvars, re_terms), self._raw(self.nvars, im_terms)

    def exact_divide(self, divisor: "Polynomial") -> Optional["Polynomial"]:
        """Quotient q with self = divisor * q exactly, or None.

        Single-divisor multivariate division in the graded-lexicographic
        order.  A term whose leading monomial is not divisible by the
        divisor's leading monomial would end up in the remainder and can
        never cancel, so the search stops there.
        """
        if divisor.is_zero():
            raise DivisionByZeroPolynomial("exact division by the zero polynomial")
        self._check_same_space(divisor)
        if self.is_zero():
            return Polynomial.zero(self.nvars)
        lead_d, coeff_d = divisor.leading_term()
        remainder = dict(self._terms)
        quotient: dict = {}
        while remainder:
            lead_r = max(remainder, key=_grlex_key)
            step = tuple(a - b for a, b in zip(lead_r, lead_d))
            if any(e < 0 for e in step):
                return None
            factor = remainder[lead_r] / coeff_d
            quotient[step] = factor
            for exps, coeff in divisor._terms.items():
                target = tuple(a + b for a, b in zip(step, exps))
                acc = remainder.get(target)
                total = -(factor * coeff) if acc is None else acc - factor * coeff
                if total:
                    remainder[target] = total
                elif target in remainder:
                    del remainder[target]
        return self._raw(self.nvars, quotient)

    def evaluate(self, x: Sequence[float]) -> complex:
        """Evaluate at a real point, term by term in canonical order.

        Summation follows the descending graded-lexicographic term order of
        the canonical form, so repeated runs give bit-identical results.
        """
        if len(x) != self.nvars:
            raise DimensionMismatch(f"point has {len(x)} coordinates, expected {self.nvars}")
        if self._eval_terms is None:
            prepared = [
                (complex(coeff), exps)
                for exps, coeff in self.items()
            ]
            object.__setattr__(self, "_eval_terms", prepared)
        xs = [float(v) for v in x]
        total = 0j
        for coeff, exps in self._eval_terms:
            value = coeff
            for xi, e in zip(xs, exps):
                if e == 1:
                    value *= xi
                elif e:
                    value *= xi**e
            total += value
        return total

    # ----- dunders -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        from .parsing import render

        return render(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {str(self)!r})"


def r_squared(nvars: int) -> Polynomial:
    """The squared radius x1^2 + ... + xN^2."""
    terms = {}
    for i in range(nvars):
        exps = [0] * nvars
        exps[i] = 2
        terms[tuple(exps)] = ONE
    return Polynomial(nvars, terms)


def complex_variable(nvars: int, j: int) -> Polynomial:
    """z_j = x_{2j-1} + i*x_{2j}, with 1-based j as in the z1..zK naming."""
    return Polynomial.variable(nvars, 2 * j - 1) + I * Polynomial.variable(nvars, 2 * j)
