"""Truncated q-expansions with exact rational coefficients.

Every series carries a weight tag: addition demands equal weights and
multiplication adds them, so accidentally combining forms of different
weight fails loudly instead of producing a meaningless coefficient list.

A series is stored as a tuple of integer numerators over one positive
common denominator, in lowest terms: gcd(denominator, *numerators) == 1.
That form is canonical, so two series with equal coefficients compare and
hash equal however they were built.  Addition, negation, scaling,
truncation and multiplication work on those integers alone; `coeffs` and
`coefficient()` build Fractions only at the API edge, for callers that
read them, and the constructor still accepts any ints and Fractions.

Series-by-series multiplication uses Kronecker substitution: the integer
numerators of each operand are packed into a single Python int (one
byte-aligned slot per coefficient, wide enough for any coefficient of the
product), one bigint multiply does the whole convolution, the low slots
are unpacked again, and the result lies over the product of the two
denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from ._record import Record
from .arith import _check_weight


def _as_fraction(value) -> Fraction:
    """The one gate for exact rationals: an int or a Fraction, as a Fraction."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{type(value).__name__} values are not allowed; use Fraction or int")
    return Fraction(value)


def _numerators(coeffs) -> tuple[list[int], int]:
    """Integer numerators of `coeffs` over their least common denominator."""
    # unpack a list, not a generator: CPython sizes a tuple built from a
    # generator by resizing, and those tuples pile up on its free list
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _kronecker(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The low len(a) coefficients of the product of the integer
    polynomials a and b, which have equal length, by one bigint multiply.

    Every product coefficient is bounded by n * max|a| * max|b|, so a slot
    of that many bits plus a sign bit, rounded up to whole bytes, holds it.
    Adding 2^(slot-1) to every slot makes every slot non-negative, so the
    packed values and the product both convert through plain bytes.
    """
    n = len(a)
    bound = n * max(map(abs, a)) * max(map(abs, b))
    if bound == 0:
        return [0] * n
    width = (bound.bit_length() + 8) // 8
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * n, "little")

    def pack(values):
        raw = b"".join((v + half).to_bytes(width, "little") for v in values)
        return int.from_bytes(raw, "little") - bias

    low = (pack(a) * pack(b) + bias) & ((1 << (8 * width * n)) - 1)
    raw = low.to_bytes(width * n, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, width * n, width)]


def _series(weight: int, numerators, denominator: int) -> QSeries:
    """The series numerators / denominator (denominator > 0), brought to
    lowest terms.  The weight is taken as given."""
    g = gcd(denominator, *numerators)
    if g != 1:
        numerators = [v // g for v in numerators]
        denominator //= g
    series = object.__new__(QSeries)
    object.__setattr__(series, "weight", weight)
    object.__setattr__(series, "numerators", tuple(numerators))
    object.__setattr__(series, "denominator", denominator)
    return series


class QSeries(Record):
    """A q-expansion a_0 + a_1 q + ... + a_{N-1} q^{N-1}, truncated at N terms.

    Instances are immutable; every operation returns a new series.  The
    result of a binary operation keeps the minimum of the two precisions,
    which is all the convolution actually determines.  a_n is
    ``numerators[n] / denominator``.
    """

    weight: int
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, weight: int, coeffs):
        _check_weight(weight)
        fractions = [_as_fraction(c) for c in coeffs]
        if not fractions:
            raise ValueError("a series needs at least one coefficient")
        # over the lcm of reduced denominators the numerators are coprime to it
        numerators, denominator = _numerators(fractions)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "numerators", tuple(numerators))
        object.__setattr__(self, "denominator", denominator)

    @property
    def precision(self) -> int:
        return len(self.numerators)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions.  Built on first use and kept, so
        reading ``coeffs[j]`` in a loop costs one Fraction per coefficient,
        not one per read; no arithmetic reads it."""
        den = self.denominator
        return tuple([Fraction(v, den) for v in self.numerators])

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n < len(self.numerators):
            raise ValueError(f"coefficient index {n} outside precision {len(self.numerators)}")
        return Fraction(self.numerators[n], self.denominator)

    def truncate(self, precision: int) -> QSeries:
        if not 1 <= precision <= len(self.numerators):
            raise ValueError(f"cannot truncate precision {len(self.numerators)} to {precision}")
        return _series(self.weight, self.numerators[:precision], self.denominator)

    def __add__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.weight != other.weight:
            raise ValueError(f"cannot add series of weights {self.weight} and {other.weight}")
        den = lcm(self.denominator, other.denominator)
        sa, sb = den // self.denominator, den // other.denominator
        numerators = [a * sa + b * sb for a, b in zip(self.numerators, other.numerators)]
        return _series(self.weight, numerators, den)

    def __neg__(self) -> QSeries:
        return _series(self.weight, [-a for a in self.numerators], self.denominator)

    def __sub__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = min(len(self.numerators), len(other.numerators))
            product = _kronecker(self.numerators[:n], other.numerators[:n])
            return _series(
                self.weight + other.weight, product, self.denominator * other.denominator
            )
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            numerators = [a * c.numerator for a in self.numerators]
            return _series(self.weight, numerators, self.denominator * c.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> QSeries:
        if not isinstance(exponent, int) or exponent < 1:
            raise ValueError(f"series exponent must be a positive integer, got {exponent}")
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def __str__(self):
        terms = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            else:
                q = "q" if i == 1 else f"q^{i}"
                terms.append(q if a == 1 else f"{a}*{q}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.precision})"

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if self.precision > 4 else ""
        return f"QSeries(weight={self.weight}, precision={self.precision}, coeffs=({head}{tail}))"
