"""Exact sparse multivariate polynomial arithmetic over Gaussian rationals.

A polynomial in N real variables x1..xN is stored as Gaussian integers over
one shared positive denominator D: a map from monomial keys to integer pairs
(re, im), each standing for the coefficient (re + i*im) / D.  A monomial's
key packs its exponent vector into one int of N + 1 fields of FIELD_BITS
bits: the total degree in the top field, then the exponents of x1 .. xN,
x1 most significant.

    x1^2*x3 - i/2   ->   {3<<96 | 2<<64 | 0<<32 | 1: (2, 0), 0: (0, -1)} over D = 2

With the degree on top, the integer order of keys is the graded
lexicographic order, and since every field stays below 2**FIELD_BITS the
key of a product of monomials is the sum of their keys.  So a monomial
product is one add, a quotient one subtract, and a degree one shift.  The
total degree is capped at MAX_DEGREE = 2**FIELD_BITS - 1: the constructor
and `_dot`, behind every product, raise BudgetExceeded before a result
could pass it, so no field ever carries into the next.

The representation is canonical: no (0, 0) pair is stored, every key packs
an exponent vector of length N, gcd(D, every re, every im) == 1, and the
zero polynomial has D == 1.  So two equal polynomials have the same D and
identical pair maps.  All arithmetic is exact (arbitrary-precision
integers), which is what makes divisibility and harmonicity certificates
trustworthy.  Values are immutable after construction and safe to share
between threads.

Sums, products, conjugation and division are passes over the integer pairs;
the common factor of D and the numerators is divided out once per result,
and not at all when D == 1, as it is for every Gaussian-integer polynomial.
A square p * p visits each unordered pair of terms once, and `_dot` sums
several products in one accumulator.  `partial`, `first_partials` and
`laplacian`, which `calculus` imports, read the keys and pairs directly; no
other module does, so a change of storage touches this one alone.
Exponent tuples appear only at the boundary: the constructor takes a map
from them to coefficients and `_from_gaussian` pairs of them with Gaussian
integers over denominators, each gathered in one pass over one lcm of the
denominators; `items`, `coefficient` and `leading_term` unpack keys and
build GaussianRational coefficients on demand; `real_float_items` unpacks
them beside the float real parts that the numeric layer compiles,
`rational_items` beside the reduced integer ratios that `render` formats,
and `variables` names the variables that occur, from one unpack.

The only floating-point operation is `evaluate`, which sums the terms in the
canonical graded-lexicographic order so results are reproducible run to run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from math import gcd, lcm
from operator import or_
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DivisionByZeroPolynomial,
    IndexOutOfRange,
    ZeroPolynomial,
)

#: Exponent tuple: entry i is the power of x_{i+1} in the monomial.
Exponents = tuple

#: Bits in each field of a packed monomial key.
FIELD_BITS = 32
#: The largest total degree a polynomial may have; it bounds every field.
MAX_DEGREE = (1 << FIELD_BITS) - 1


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
        result = GaussianRational._operand(value)
        if result is None:
            raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
        return result

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

I = GaussianRational(Fraction(0), Fraction(1))


def _shift(nvars: int, i: int) -> int:
    """Bit offset of x_i's field in a key (1-based i); i == 0 gives the degree field."""
    return FIELD_BITS * (nvars - i)


def _unit(nvars: int, i: int) -> int:
    """Key of the monomial x_i (1-based i)."""
    return (1 << _shift(nvars, 0)) | (1 << _shift(nvars, i))


def _pack(exps: Exponents) -> int:
    """Key of an exponent tuple whose total degree is at most MAX_DEGREE."""
    key = sum(exps)
    for e in exps:
        key = (key << FIELD_BITS) | e
    return key


def _unpack(key: int, nvars: int) -> Exponents:
    """Exponent tuple of a key, the inverse of `_pack`.

    One conversion of the key to big-endian bytes and one unpack of its
    fields as 32-bit unsigned ints ("I", which is FIELD_BITS), skipping the
    degree field on top.  Shifting the key once per field would cost O(N)
    per shift of an N-field key, O(N^2) per key.
    """
    return struct.unpack(f">4x{nvars}I", key.to_bytes(4 * (nvars + 1), "big"))


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise BudgetExceeded(
            f"total degree {degree} is over the limit of {MAX_DEGREE}")


def _scalar(value) -> Tuple[int, int, int]:
    """An int, Fraction or GaussianRational as (re, im, den) in lowest terms, else TypeError."""
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    if isinstance(value, GaussianRational):
        re, im = value.re, value.im
        # the lcm of reduced denominators shares no factor with both numerators
        den = lcm(re.denominator, im.denominator)
        return (re.numerator * (den // re.denominator),
                im.numerator * (den // im.denominator), den)
    raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")


class Polynomial:
    """Immutable sparse polynomial over Gaussian rationals in N variables."""

    __slots__ = ("nvars", "_pairs", "_den", "_eval_terms")

    def __init__(self, nvars: int, terms: Optional[Mapping[Exponents, ScalarLike]] = None):
        if nvars < 1:
            raise DimensionMismatch(f"nvars must be positive, got {nvars}")
        scalars = []
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise DimensionMismatch(
                        f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
                    )
                if any((not isinstance(e, int)) or e < 0 for e in exps):
                    raise ValueError(f"exponents must be non-negative integers, got {exps}")
                scalar = _scalar(coeff)
                if scalar[0] or scalar[1]:
                    _check_degree(sum(exps))
                    scalars.append((exps, scalar))
        merged = Polynomial._from_gaussian(nvars, scalars)
        self._set(nvars, merged._pairs, merged._den)

    def _set(self, nvars: int, pairs: dict, den: int) -> None:
        # the slots' own setters: past the guard in __setattr__, and cheaper
        # than object.__setattr__ for the many small results of the calculus
        _SET_NVARS(self, nvars)
        _SET_PAIRS(self, pairs)
        _SET_DEN(self, den)
        _SET_EVAL_TERMS(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial values are immutable")

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: ScalarLike) -> "Polynomial":
        if nvars < 1:
            raise DimensionMismatch(f"nvars must be positive, got {nvars}")
        re, im, den = _scalar(value)
        # the monomial 1 has key 0
        return cls._raw(nvars, {0: (re, im)}, den) if re or im else cls._raw(nvars, {}, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """x_index, with 1-based index as in the x1..xN naming."""
        if not 1 <= index <= nvars:
            raise IndexOutOfRange(f"variable index {index} outside 1..{nvars}")
        return cls._raw(nvars, {_unit(nvars, index): (1, 0)}, 1)

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: ScalarLike = 1) -> "Polynomial":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def _raw(cls, nvars: int, pairs: dict, den: int) -> "Polynomial":
        """Internal constructor for integer pairs over `den` already in canonical form."""
        poly = object.__new__(cls)
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

    @classmethod
    def _from_gaussian(cls, nvars: int,
                       terms: Sequence[Tuple[Exponents, Tuple[int, int, int]]]) -> "Polynomial":
        """Internal constructor for (exps, (re, im, den)) terms, each the
        coefficient (re + i*im) / den, den > 0, at an exponent tuple that the
        constructor would accept: nothing is validated here.

        One pass over the lcm D of the denominators: each term is scaled to
        D and added in at its key, so repeated exponents merge, and the
        common factor of D is divided out once, as by `sum`.  No Fraction or
        GaussianRational is built.
        """
        den = lcm(*(scalar[2] for _exps, scalar in terms))
        sums = {}
        for exps, (re, im, term_den) in terms:
            if term_den != den:
                scale = den // term_den
                re, im = re * scale, im * scale
            key = _pack(exps)
            acc = sums.get(key)
            if acc is not None:
                re, im = acc[0] + re, acc[1] + im
            sums[key] = (re, im)
        return cls._summed(nvars, sums, den)

    @classmethod
    def sum(cls, nvars: int, polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of `polys`, all in `nvars` variables; zero when there are none.

        One pass over the lcm D of their denominators: the first operand's
        pairs are copied and every other term is added in, so no partial sum
        is ever copied, and the common factor of D is divided out once.
        """
        polys = list(polys)
        for p in polys:
            if p.nvars != nvars:
                raise DimensionMismatch(
                    f"polynomials live in different spaces: {nvars} vs {p.nvars} variables")
        if not polys:
            return cls._raw(nvars, {}, 1)
        den = lcm(*(p._den for p in polys))
        first, *rest = polys
        scale = den // first._den
        terms = (dict(first._pairs) if scale == 1 else
                 {e: (re * scale, im * scale) for e, (re, im) in first._pairs.items()})
        for p in rest:
            scale = den // p._den
            for key, (re, im) in p._pairs.items():
                re, im = re * scale, im * scale
                acc = terms.get(key)
                if acc is not None:
                    re, im = acc[0] + re, acc[1] + im
                    if not (re or im):
                        del terms[key]
                        continue
                terms[key] = (re, im)
        return cls._reduced(nvars, terms, den)

    # ----- inspection ---------------------------------------------------

    def _coefficient(self, pair: Tuple[int, int]) -> GaussianRational:
        return GaussianRational(Fraction(pair[0], self._den), Fraction(pair[1], self._den))

    def items(self) -> Iterator:
        """Terms in descending graded-lexicographic order, as (exps, GaussianRational)."""
        nvars = self.nvars
        return ((_unpack(key, nvars), self._coefficient(self._pairs[key]))
                for key in sorted(self._pairs, reverse=True))

    def rational_items(self) -> Iterator[Tuple[Exponents, int, int, int, int]]:
        """Terms in the order of `items`, as (exps, re, re_den, im, im_den):
        the coefficient is re/re_den + (im/im_den)*i, each ratio in lowest
        terms with a positive denominator, as the Fractions of `items` hold
        it, but with no Fraction built."""
        nvars, den = self.nvars, self._den
        for key in sorted(self._pairs, reverse=True):
            re, im = self._pairs[key]
            g, h = gcd(re, den), gcd(im, den)
            yield _unpack(key, nvars), re // g, den // g, im // h, den // h

    def real_float_items(self) -> Iterator[Tuple[Exponents, float]]:
        """Terms in the order of `items`, as (exps, float of the real part).

        The float is re / D straight from the stored pair, with no Fraction
        built: Python's int true division is correctly rounded, as
        float(Fraction) is, so it is the same float.  A real part past the
        float range raises OverflowError when its term is reached.
        """
        nvars, den = self.nvars, self._den
        return ((_unpack(key, nvars), self._pairs[key][0] / den)
                for key in sorted(self._pairs, reverse=True))

    def variables(self) -> Tuple[int, ...]:
        """1-based indices, ascending, of the variables that occur in some term.

        The fields of the OR of all keys are nonzero exactly where some
        term's are (an OR never carries), so this is one unpack.
        """
        fields = _unpack(reduce(or_, self._pairs, 0), self.nvars)
        return tuple(compress(range(1, self.nvars + 1), fields))

    def coefficient(self, exps: Sequence[int]) -> GaussianRational:
        exps = tuple(exps)
        pair = None
        # a tuple that packs no key of this space has coefficient 0
        if len(exps) == self.nvars and min(exps) >= 0 and sum(exps) <= MAX_DEGREE:
            pair = self._pairs.get(_pack(exps))
        return GaussianRational() if pair is None else self._coefficient(pair)

    def num_terms(self) -> int:
        return len(self._pairs)

    def coefficient_norm(self) -> Tuple[int, int]:
        """(N, D): every coefficient is (re + i*im)/D over the shared denominator
        D, and N is the sum of |re| + |im| over the terms.  N bounds each
        numerator, and N**k over D**k bounds the coefficients of the k-th power."""
        return sum(abs(re) + abs(im) for re, im in self._pairs.values()), self._den

    def is_zero(self) -> bool:
        return not self._pairs

    def is_real(self) -> bool:
        return all(not im for _re, im in self._pairs.values())

    def degree(self) -> int:
        """Maximal total degree.  Undefined (error) for the zero polynomial."""
        if not self._pairs:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return max(self._pairs) >> _shift(self.nvars, 0)

    def homogeneity(self) -> Optional[int]:
        """The common total degree of all terms, or None if degrees are mixed."""
        if not self._pairs:
            raise ZeroPolynomial("the zero polynomial has no homogeneity degree")
        shift = _shift(self.nvars, 0)
        degrees = {key >> shift for key in self._pairs}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def leading_term(self):
        """(exponents, coefficient) maximal in graded-lexicographic order."""
        if not self._pairs:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        key = max(self._pairs)
        return _unpack(key, self.nvars), self._coefficient(self._pairs[key])

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
        return Polynomial.sum(self.nvars, (self, other))

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
        if not isinstance(other, Polynomial):
            try:
                a, b, den = _scalar(other)
            except TypeError:
                return NotImplemented
            # a nonzero Gaussian integer times a nonzero pair is never (0, 0)
            if not (a or b):
                return Polynomial._raw(self.nvars, {}, 1)
            pairs = {key: (re * a - im * b, re * b + im * a)
                     for key, (re, im) in self._pairs.items()}
            return self._reduced(self.nvars, pairs, self._den * den)
        self._check_same_space(other)
        return Polynomial._dot(self.nvars, [(self, other)])

    __rmul__ = __mul__

    @classmethod
    def _dot(cls, nvars: int, factors: Iterable[Tuple["Polynomial", "Polynomial"]]) -> "Polynomial":
        """The sum of a * b over the (a, b) pairs of `factors`, in one pass.

        The one owner of the product rules: a pair with a zero side forms no
        product, and a degree sum over MAX_DEGREE raises BudgetExceeded
        before anything is accumulated.  Every product is added into one
        accumulator over the lcm D of the products' denominators, and the
        common factor of D is divided out once.  A pair (a, a) visits each
        unordered pair of a's terms once: the diagonal product once, every
        off-diagonal product doubled.
        """
        factors = [(a, b) for a, b in factors if a._pairs and b._pairs]
        for a, b in factors:
            _check_degree(a.degree() + b.degree())
        den = lcm(*[a._den * b._den for a, b in factors])
        sums: dict = {}
        for a, b in factors:
            scale = den // (a._den * b._den)
            right = list(b._pairs.items())
            square = a is b
            for index, (ka, (ra, ia)) in enumerate(right if square else a._pairs.items()):
                if scale != 1:
                    ra, ia = ra * scale, ia * scale
                partners = right
                if square:
                    # the diagonal product once, then every later term's twice
                    key = ka + ka
                    rb, ib = right[index][1]
                    acc = sums.get(key)
                    if acc is None:
                        sums[key] = [ra * rb - ia * ib, ra * ib + ia * rb]
                    else:
                        acc[0] += ra * rb - ia * ib
                        acc[1] += ra * ib + ia * rb
                    ra, ia = 2 * ra, 2 * ia
                    partners = right[index + 1:]
                for kb, (rb, ib) in partners:
                    key = ka + kb
                    acc = sums.get(key)
                    if acc is None:
                        sums[key] = [ra * rb - ia * ib, ra * ib + ia * rb]
                    else:
                        acc[0] += ra * rb - ia * ib
                        acc[1] += ra * ib + ia * rb
        return cls._summed(nvars, sums, den)

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"polynomial power must be a non-negative integer, got {k}")
        if k == 0:
            return Polynomial.constant(self.nvars, 1)
        # square-and-multiply from the lowest set bit of k, which starts the result
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
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
        divisor led by 1, -1, i or -i.

        Monomials are packed keys, so the quotient monomial of a step is the
        remainder's leading key minus the divisor's, and each product
        monomial a key sum; the divisor's leading monomial divides when no
        field of the remainder's leading key is below its field.  The
        remainder's leading term comes off a min-heap of negated keys, not
        from a scan of the whole remainder per step.
        """
        if divisor.is_zero():
            raise DivisionByZeroPolynomial("exact division by the zero polynomial")
        self._check_same_space(divisor)
        if self.is_zero():
            return Polynomial.zero(self.nvars)
        nvars = self.nvars
        lead_d = max(divisor._pairs)
        needs = [(_shift(nvars, i), e)
                 for i, e in enumerate(_unpack(lead_d, nvars), start=1) if e]
        a, b = divisor._pairs[lead_d]
        norm = a * a + b * b
        terms = list(divisor._pairs.items())
        scale = divisor._den
        remainder = dict(self._pairs)
        # a max-heap of the remainder's keys, stored negated; an entry whose
        # term has cancelled is skipped when it comes up
        heap = [-key for key in remainder]
        heapify(heap)
        den = self._den
        quotient: dict = {}
        while remainder:
            lead_r = -heappop(heap)
            if lead_r not in remainder:
                continue
            if any((lead_r >> shift) & MAX_DEGREE < e for shift, e in needs):
                return None
            step = lead_r - lead_d
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
            for key, (u, v) in terms:
                target = step + key
                r, i = -(re * u - im * v), -(re * v + im * u)
                acc = remainder.get(target)
                if acc is None:
                    remainder[target] = (r, i)
                    heappush(heap, -target)
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
        other = self._coerce(other)
        if other is NotImplemented:
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


_SET_NVARS, _SET_PAIRS, _SET_DEN, _SET_EVAL_TERMS = (
    Polynomial.__dict__[slot].__set__ for slot in Polynomial.__slots__)


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


def first_partials(p: Polynomial) -> Tuple[Polynomial, ...]:
    """(d_1 p, ..., d_N p), each equal to `partial(p, i)`, in one pass over p's pairs.

    One unpack of a term's key names the variables x_i with a_i > 0, and
    the term goes to each of their partials as `partial` would send it.  So
    the pass costs the terms times their variables, where N calls of
    `partial` cost N full passes and N shifts of every key.
    """
    nvars = p.nvars
    top = 1 << _shift(nvars, 0)
    pairs: Tuple[dict, ...] = tuple({} for _ in range(nvars))
    for key, (re, im) in p._pairs.items():
        exps = _unpack(key, nvars)
        for i in compress(range(nvars), exps):
            e = exps[i]
            pairs[i][key - top - (1 << _shift(nvars, i + 1))] = (e * re, e * im)
    return tuple(Polynomial._reduced(nvars, part, p._den) for part in pairs)


def laplacian(p: Polynomial) -> Polynomial:
    """sum_i d_i^2 p in one pass over p's Gaussian-integer pairs.

    A term c x^a adds a_i(a_i - 1)*c at x^(a - 2e_i) for every i with
    a_i >= 2, whose packed key is key(a) - 2*key(x_i).  The sums share p's
    denominator, and only a common factor is divided out at the end.
    """
    nvars = p.nvars
    top = 2 << _shift(nvars, 0)
    shifts = range(_shift(nvars, 1), -1, -FIELD_BITS)
    sums: dict = {}
    for key, (re, im) in p._pairs.items():
        for shift in shifts:
            e = (key >> shift) & MAX_DEGREE
            if e > 1:
                target = key - top - (2 << shift)
                weight = e * (e - 1)
                acc = sums.get(target)
                if acc is None:
                    sums[target] = [weight * re, weight * im]
                else:
                    acc[0] += weight * re
                    acc[1] += weight * im
    return Polynomial._summed(nvars, sums, p._den)


def r_squared(nvars: int) -> Polynomial:
    """The squared radius x1^2 + ... + xN^2."""
    return Polynomial._raw(nvars, {2 * _unit(nvars, i): (1, 0) for i in range(1, nvars + 1)}, 1)


def complex_variable(nvars: int, j: int) -> Polynomial:
    """z_j = x_{2j-1} + i*x_{2j}, with 1-based j <= nvars // 2 as in the z1..zK naming."""
    return Polynomial._raw(nvars, {_unit(nvars, 2 * j - 1): (1, 0), _unit(nvars, 2 * j): (0, 1)}, 1)
