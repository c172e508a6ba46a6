"""Exact sparse multivariate polynomial arithmetic over Gaussian rationals.

A polynomial in N real variables x1..xN is stored as Gaussian integers over
one shared positive denominator D: a map from exponent tuples to integer
pairs (re, im), each standing for the coefficient (re + i*im) / D.

    x1^2*x3 - i/2       ->    {(2, 0, 1): (2, 0), (0, 0, 0): (0, -1)} over D = 2

The representation is canonical: no (0, 0) pair is stored, every exponent
tuple has length N, gcd(D, every re, every im) == 1, and the zero polynomial
has D == 1.  So two equal polynomials have the same D and identical pair
maps.  All arithmetic is exact (arbitrary-precision integers), which is what
makes divisibility and harmonicity certificates trustworthy.  Values are
immutable after construction and safe to share between threads.

Sums, products, conjugation and division are passes over the integer pairs;
the common factor of D and the numerators is divided out once per result,
and not at all when D == 1, as it is for every Gaussian-integer polynomial.
`calculus.partial` and `calculus.kappa` read the pairs directly; no other
module does.  `items`, `coefficient` and `leading_term` build
GaussianRational coefficients on demand, and the constructor takes a map of
them.

The only floating-point operation is `evaluate`, which sums the terms in the
canonical graded-lexicographic order so results are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import add, neg, sub
from typing import Iterator, Mapping, Optional, Sequence, Tuple, Union

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


def _heap_entry(exps: Exponents):
    """Min-heap entry that comes out in descending graded-lexicographic order."""
    return (-sum(exps), tuple(map(neg, exps)), exps)


class Polynomial:
    """Immutable sparse polynomial over Gaussian rationals in N variables."""

    __slots__ = ("nvars", "_pairs", "_den", "_eval_terms")

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
        # the lcm of reduced denominators shares no factor with every numerator
        den = lcm(*(d for c in clean.values() for d in (c.re.denominator, c.im.denominator)))
        pairs = {
            exps: (c.re.numerator * (den // c.re.denominator),
                   c.im.numerator * (den // c.im.denominator))
            for exps, c in clean.items()
        }
        self._set(nvars, pairs, den)

    def _set(self, nvars: int, pairs: dict, den: int) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_den", den)
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

    @classmethod
    def _raw(cls, nvars: int, pairs: dict, den: int) -> "Polynomial":
        """Internal constructor for integer pairs over `den` already in canonical form."""
        poly = cls.__new__(cls)
        poly._set(nvars, pairs, den)
        return poly

    @classmethod
    def _reduced(cls, nvars: int, pairs: dict, den: int) -> "Polynomial":
        """Internal constructor for nonzero (re, im) tuples over a positive `den`.

        Divides out the common factor of `den` and every numerator, which is
        all that canonical form still asks; with den == 1 there is none.
        """
        if den != 1:
            common = gcd(den, *chain.from_iterable(pairs.values()))
            if common != 1:
                den //= common
                pairs = {e: (re // common, im // common) for e, (re, im) in pairs.items()}
        return cls._raw(nvars, pairs, den)

    @classmethod
    def _summed(cls, nvars: int, sums: dict, den: int) -> "Polynomial":
        """Internal constructor for accumulated [re, im] sums over `den`.

        Sums that cancelled to zero are dropped here, once, not inside the
        accumulating loop.
        """
        pairs = {e: (re, im) for e, (re, im) in sums.items() if re or im}
        return cls._reduced(nvars, pairs, den)

    # ----- inspection ---------------------------------------------------

    def _coefficient(self, pair: Tuple[int, int]) -> GaussianRational:
        return GaussianRational(Fraction(pair[0], self._den), Fraction(pair[1], self._den))

    def items(self) -> Iterator:
        """Terms in descending graded-lexicographic order, as (exps, GaussianRational)."""
        ordered = sorted(self._pairs.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
        return ((exps, self._coefficient(pair)) for exps, pair in ordered)

    def coefficient(self, exps: Sequence[int]) -> GaussianRational:
        pair = self._pairs.get(tuple(exps))
        return GaussianRational() if pair is None else self._coefficient(pair)

    def num_terms(self) -> int:
        return len(self._pairs)

    def is_zero(self) -> bool:
        return not self._pairs

    def is_real(self) -> bool:
        return all(not im for _re, im in self._pairs.values())

    def degree(self) -> int:
        """Maximal total degree.  Undefined (error) for the zero polynomial."""
        if not self._pairs:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return max(sum(e) for e in self._pairs)

    def homogeneity(self) -> Optional[int]:
        """The common total degree of all terms, or None if degrees are mixed."""
        if not self._pairs:
            raise ZeroPolynomial("the zero polynomial has no homogeneity degree")
        degrees = {sum(e) for e in self._pairs}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def leading_term(self):
        """(exponents, coefficient) maximal in graded-lexicographic order."""
        if not self._pairs:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        exps = max(self._pairs, key=_grlex_key)
        return exps, self._coefficient(self._pairs[exps])

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
        den = lcm(self._den, other._den)
        scale = den // self._den
        terms = (dict(self._pairs) if scale == 1 else
                 {e: (re * scale, im * scale) for e, (re, im) in self._pairs.items()})
        scale = den // other._den
        for exps, (re, im) in other._pairs.items():
            re, im = re * scale, im * scale
            acc = terms.get(exps)
            if acc is not None:
                re, im = acc[0] + re, acc[1] + im
                if not (re or im):
                    del terms[exps]
                    continue
            terms[exps] = (re, im)
        return self._reduced(self.nvars, terms, den)

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
        return self._raw(
            self.nvars, {e: (-re, -im) for e, (re, im) in self._pairs.items()}, self._den)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_same_space(other)
        right = list(other._pairs.items())
        sums: dict = {}
        for ea, (ra, ia) in self._pairs.items():
            for eb, (rb, ib) in right:
                exps = tuple(map(add, ea, eb))
                acc = sums.get(exps)
                if acc is None:
                    sums[exps] = [ra * rb - ia * ib, ra * ib + ia * rb]
                else:
                    acc[0] += ra * rb - ia * ib
                    acc[1] += ra * ib + ia * rb
        return self._summed(self.nvars, sums, self._den * other._den)

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

    # ----- structure ----------------------------------------------------

    def conjugate(self) -> "Polynomial":
        """Coefficient-wise complex conjugation (variables are real)."""
        return self._raw(
            self.nvars, {e: (re, -im) for e, (re, im) in self._pairs.items()}, self._den)

    def real_imag_parts(self):
        """Split p = u + i*v into real-coefficient polynomials (u, v)."""
        pairs = self._pairs.items()
        u = {e: (re, 0) for e, (re, _im) in pairs if re}
        v = {e: (im, 0) for e, (_re, im) in pairs if im}
        return self._reduced(self.nvars, u, self._den), self._reduced(self.nvars, v, self._den)

    def exact_divide(self, divisor: "Polynomial") -> Optional["Polynomial"]:
        """Quotient q with self = divisor * q exactly, or None.

        Single-divisor multivariate division in the graded-lexicographic
        order.  A term whose leading monomial is not divisible by the
        divisor's leading monomial would end up in the remainder and can
        never cancel, so the search stops there.

        The remainder and the quotient stay integer pairs over one shared
        denominator D, which starts as the dividend's.  With the divisor's
        leading coefficient (a + i*b)/D_d, the remainder's leading
        coefficient (x + i*y)/D divides to

            (x + i*y)(a - i*b) * D_d / ((a^2 + b^2) * D),

        and the factor of a^2 + b^2 left after one gcd with the numerator
        is the only one the remainder can lack: D_d cancels from the
        quotient term times the divisor.  So remainder and quotient are
        rescaled only when that factor is not 1, which never happens for a
        divisor led by 1, -1, i or -i.  The remainder's leading term comes
        off a heap of its exponents, not from a scan of the whole remainder
        per step.
        """
        if divisor.is_zero():
            raise DivisionByZeroPolynomial("exact division by the zero polynomial")
        self._check_same_space(divisor)
        if self.is_zero():
            return Polynomial.zero(self.nvars)
        lead_d = max(divisor._pairs, key=_grlex_key)
        a, b = divisor._pairs[lead_d]
        norm = a * a + b * b
        terms = list(divisor._pairs.items())
        scale = divisor._den
        remainder = dict(self._pairs)
        # a max-heap of the remainder's exponents in grlex order; an entry
        # whose term has cancelled is skipped when it comes up
        heap = [_heap_entry(exps) for exps in remainder]
        heapify(heap)
        den = self._den
        quotient: dict = {}
        while remainder:
            lead_r = heappop(heap)[2]
            if lead_r not in remainder:
                continue
            step = tuple(map(sub, lead_r, lead_d))
            if min(step) < 0:
                return None
            x, y = remainder[lead_r]
            re, im = x * a + y * b, y * a - x * b
            common = gcd(re, im, norm)
            grow = norm // common
            re, im = re // common, im // common
            if grow != 1:
                den *= grow
                remainder = {e: (r * grow, i * grow) for e, (r, i) in remainder.items()}
                quotient = {e: (r * grow, i * grow) for e, (r, i) in quotient.items()}
            quotient[step] = (re * scale, im * scale)
            for exps, (u, v) in terms:
                target = tuple(map(add, step, exps))
                r, i = -(re * u - im * v), -(re * v + im * u)
                acc = remainder.get(target)
                if acc is None:
                    remainder[target] = (r, i)
                    heappush(heap, _heap_entry(target))
                    continue
                r, i = acc[0] + r, acc[1] + i
                if r or i:
                    remainder[target] = (r, i)
                else:
                    del remainder[target]
        return self._reduced(self.nvars, quotient, den)

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
        return (self.nvars == other.nvars and self._den == other._den
                and self._pairs == other._pairs)

    def __hash__(self) -> int:
        return hash((self.nvars, self._den, frozenset(self._pairs.items())))

    def __bool__(self) -> bool:
        return bool(self._pairs)

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
