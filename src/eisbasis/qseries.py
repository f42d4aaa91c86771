"""Truncated q-expansions with exact rational coefficients.

Every series carries a weight tag: addition demands equal weights and
multiplication adds them, so accidentally combining forms of different
weight fails loudly instead of producing a meaningless coefficient list.

A series is stored as a tuple of integer numerators over one positive
common denominator, in lowest terms: gcd(denominator, *numerators) == 1.
That form is canonical, so two series with equal coefficients compare and
hash equal however they were built.  Addition, negation, scaling,
truncation and multiplication work on those integers alone.  A sum, a
series product or a truncation may leave a content, a factor of the
denominator and every numerator, which _lowest_terms cancels with one
full-size gcd per series; negation keeps lowest terms, and scaling by p/q
cancels just gcd(p, denominator) * gcd(q, *numerators), all it can make.
`coeffs` and `coefficient()` build Fractions only at the API edge, for callers
that read them, and the constructor still accepts any ints and Fractions.

A product of series convolves the numerators, over the product of the
denominators, keeping the n coefficients it determines: by a short product,
each one a C-level sum over numerator pairs, or, for long series of narrow
coefficients, by Kronecker substitution, one bigint multiply (_convolve).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from ._record import Record
from .arith import _check_weight, _is_int


def _as_fraction(value) -> Fraction:
    """The one gate for exact rationals: an int (not a bool) or a Fraction,
    as a Fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{type(value).__name__} values are not allowed; use Fraction or int")
    return Fraction(value)


def _numerators(coeffs) -> tuple[list[int], int]:
    """Integer numerators of `coeffs` over their least common denominator."""
    # unpack a list, not a generator: CPython sizes a tuple built from a
    # generator by resizing, and those tuples pile up on its free list
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _pack(values, width: int) -> int:
    """The ints `values` in [0, 2^(8 width)) as `width`-byte slots, first lowest."""
    return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")


def _unpack(packed: int, width: int, count: int) -> list[int]:
    """The `count` slots of `width` bytes of 0 <= packed < 2^(8 width count)."""
    raw = packed.to_bytes(width * count, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, width * count, width)]


def _kronecker(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The low n = len(a) coefficients of a * b, integer polynomials of equal
    length, by one bigint multiply in byte slots that hold n * max|a| * max|b|
    (each max at least 1) and a sign bit; signed factors are biased by half a
    slot, 2^(slot-1), so every slot packs as non-negative bytes."""
    n = len(a)
    width = (n * max(1, *map(abs, a)) * max(1, *map(abs, b))).bit_length() // 8 + 1
    mask = (1 << (8 * width * n)) - 1
    if min(a) >= 0 <= min(b):
        return _unpack(_pack(a, width) * _pack(b, width) & mask, width, n)
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * n, "little")
    pa, pb = (_pack(map(half.__add__, x), width) - bias for x in (a, b))
    return list(map(half.__rsub__, _unpack((pa * pb + bias) & mask, width, n)))


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The low n = len(a) coefficients of a * b, of equal lengths, by _kronecker
    from 16 terms on where a cost model fitted on CPython 3.11 favours it: with
    d the 30-bit digits of max|a| and max|b|, n^2/2 pairs of 80 + d_a d_b digit
    products against a Karatsuba multiply, 8 (n (d_a + d_b))^1.585."""
    n = len(a)
    if n >= 16:
        da, db = (max(map(abs, x)).bit_length() / 30 for x in (a, b))
        if n * n / 2 * (80 + (da + 1) * (db + 1)) > 8 * (n * (da + db)) ** 1.585:
            return _kronecker(a, b)
    return [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n)]


def _lowest_terms(numerators, denominator: int) -> tuple[tuple[int, ...], int]:
    """numerators / denominator (denominator > 0) in lowest terms: one divmod
    pass checks and divides out gcd(denominator, first and last numerator);
    only a remainder falls back to the gcd of all, and 1 divides nothing."""
    g = gcd(denominator, numerators[0], numerators[-1])
    if g == 1:
        return tuple(numerators), denominator
    parts = [divmod(v, g) for v in numerators]
    if any(r for _, r in parts):
        g = gcd(g, *numerators)
        return tuple([v // g for v in numerators]), denominator // g
    return tuple([q for q, _ in parts]), denominator // g


def _series(weight: int, numerators, denominator: int) -> QSeries:
    """The series numerators / denominator, given in lowest terms with
    denominator > 0.  The weight is taken as given."""
    series = object.__new__(QSeries)
    Record.__init__(series, weight, tuple(numerators), denominator)
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
        super().__init__(weight, tuple(numerators), denominator)

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
        if not _is_int(n) or not 0 <= n < len(self.numerators):
            raise ValueError(f"coefficient index {n} outside precision {len(self.numerators)}")
        return Fraction(self.numerators[n], self.denominator)

    def truncate(self, precision: int) -> QSeries:
        if not _is_int(precision) or not 1 <= precision <= len(self.numerators):
            raise ValueError(f"cannot truncate precision {len(self.numerators)} to {precision}")
        return _series(self.weight, *_lowest_terms(self.numerators[:precision], self.denominator))

    def __add__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.weight != other.weight:
            raise ValueError(f"cannot add series of weights {self.weight} and {other.weight}")
        den = lcm(self.denominator, other.denominator)
        sa, sb = den // self.denominator, den // other.denominator
        numerators = [a * sa + b * sb for a, b in zip(self.numerators, other.numerators)]
        return _series(self.weight, *_lowest_terms(numerators, den))

    def __neg__(self) -> QSeries:
        return _series(self.weight, [-a for a in self.numerators], self.denominator)

    def __sub__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = min(len(self.numerators), len(other.numerators))
            product = _convolve(self.numerators[:n], other.numerators[:n])
            den = self.denominator * other.denominator
            return _series(self.weight + other.weight, *_lowest_terms(product, den))
        c = _as_fraction(other)
        g, h = gcd(c.numerator, self.denominator), gcd(c.denominator, *self.numerators)
        p, den = c.numerator // g, self.denominator // g * (c.denominator // h)
        return _series(self.weight, [a // h * p for a in self.numerators], den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1 / _as_fraction(other))

    def __pow__(self, exponent: int) -> QSeries:
        if not _is_int(exponent) or exponent < 1:
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
