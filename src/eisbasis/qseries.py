"""Truncated q-expansions with exact rational coefficients.

Every series carries a weight tag: addition demands equal weights and
multiplication adds them, so accidentally combining forms of different
weight fails loudly instead of producing a meaningless coefficient list.

Series-by-series multiplication uses Kronecker substitution: each operand's
coefficients are brought over one common denominator, the integer
numerators are packed into a single Python int (one byte-aligned slot per
coefficient, wide enough for any coefficient of the product), one bigint
multiply does the whole convolution, and the low slots are unpacked again.
Coefficients stay exact Fractions on both sides of the multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

__all__ = ["QSeries"]


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction or int")
    return Fraction(value)


def _numerators(coeffs) -> tuple[list[int], int]:
    """Integer numerators of `coeffs` over their least common denominator."""
    # unpack a list, not a generator: CPython sizes a tuple built from a
    # generator by resizing, and those tuples pile up on its free list
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _kronecker(a: list[int], b: list[int]) -> list[int]:
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


@dataclass(frozen=True)
class QSeries:
    """A q-expansion a_0 + a_1 q + ... + a_{N-1} q^{N-1}, truncated at N terms.

    Instances are immutable; every operation returns a new series.  The
    result of a binary operation keeps the minimum of the two precisions,
    which is all the convolution actually determines.
    """

    weight: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.weight % 2 != 0 or self.weight < 4:
            raise ValueError(f"series weight must be an even integer >= 4, got {self.weight}")
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))

    @classmethod
    def zero(cls, weight: int, precision: int) -> QSeries:
        if precision < 1:
            raise ValueError(f"precision must be positive, got {precision}")
        return cls(weight, (Fraction(0),) * precision)

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n < len(self.coeffs):
            raise ValueError(f"coefficient index {n} outside precision {len(self.coeffs)}")
        return self.coeffs[n]

    def truncate(self, precision: int) -> QSeries:
        if not 1 <= precision <= len(self.coeffs):
            raise ValueError(f"cannot truncate precision {len(self.coeffs)} to {precision}")
        return QSeries(self.weight, self.coeffs[:precision])

    def __add__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.weight != other.weight:
            raise ValueError(f"cannot add series of weights {self.weight} and {other.weight}")
        return QSeries(self.weight, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> QSeries:
        return QSeries(self.weight, tuple(-a for a in self.coeffs))

    def __sub__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = min(len(self.coeffs), len(other.coeffs))
            a, da = _numerators(self.coeffs[:n])
            b, db = _numerators(other.coeffs[:n])
            den = da * db
            coeffs = tuple(Fraction(c, den) for c in _kronecker(a, b))
            return QSeries(self.weight + other.weight, coeffs)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return QSeries(self.weight, tuple(a * c for a in self.coeffs))
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

    def equals_to_precision(self, other: QSeries, n: int) -> bool:
        """Exact coefficient-wise equality of the first n terms."""
        if n < 1 or n > len(self.coeffs) or n > len(other.coeffs):
            raise ValueError(f"comparison window {n} exceeds a series precision")
        return self.coeffs[:n] == other.coeffs[:n]

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
        return f"{body} + O(q^{len(self.coeffs)})"

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if len(self.coeffs) > 4 else ""
        return f"QSeries(weight={self.weight}, precision={len(self.coeffs)}, coeffs=({head}{tail}))"
