"""Exact arithmetic primitives: Bernoulli numbers, divisor power sums,
and the dimension counts for level-one modular and cusp forms."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import isqrt

from ._record import Record

# Even-index Bernoulli cache, filled in ascending order, and the newest row
# of Seidel's triangle that filled it.  Entries are immutable and keyed by
# index, so a concurrent fill is idempotent: at worst two callers repeat
# the same rows and store the same values.
_bernoulli_cache: dict[int, Fraction] = {0: Fraction(1)}
_seidel_row: tuple[int, ...] = (1,)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n for even n >= 0, as an exact Fraction.

    Odd indices are rejected: B_1 is convention-dependent and B_3, B_5, ...
    vanish, and no consumer in this package has a use for them.  B_2k is
    (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) with T_k the k-th tangent number,
    read off Seidel's triangle in additions only (Brent & Harvey,
    arXiv:1108.0286).
    """
    global _seidel_row
    if not _is_int(n) or n < 0 or n % 2 != 0:
        raise ValueError(f"Bernoulli index must be a non-negative even integer, got {n}")
    while n not in _bernoulli_cache:
        # row r + 1 is 0, then the running sums of row r reversed; row 2k - 1
        # has 2k entries, the last of them T_k
        row = _seidel_row = (0, *accumulate(reversed(_seidel_row)))
        if len(row) % 2 == 0:
            k = len(row) // 2
            _bernoulli_cache[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * row[-1], 4**k * (4**k - 1))
    return _bernoulli_cache[n]


def sigma(r: int, m: int) -> int | Fraction:
    """Divisor power sum sigma_r(m) = sum of d^r over positive divisors d of m,
    an int for m >= 1, by trial division: the reference for the Eisenstein
    divisor sieve, as the package reads only m = 0.  Requires odd r >= 1.

    The value at m = 0 is the Fraction -B_{r+1} / (2 (r+1)), the constant
    term of the weight-(r+1) Eisenstein series; this extension needs r >= 3
    (r = 1 would invoke the quasi-modular weight-2 series and is rejected).
    """
    if not _is_int(r) or r < 1 or r % 2 == 0:
        raise ValueError(f"sigma exponent must be a positive odd integer, got {r}")
    if not _is_int(m) or m < 0:
        raise ValueError(f"sigma argument must be non-negative, got {m}")
    if m == 0:
        if r < 3:
            raise ValueError("sigma(1, 0) is undefined: the weight-2 series is not modular")
        return -bernoulli(r + 1) / (2 * (r + 1))
    total = 0
    for d in range(1, isqrt(m) + 1):
        if m % d == 0:
            total += d**r
            q = m // d
            if q != d:
                total += q**r
    return total


class DimensionData(Record):
    """Dimensions of the weight-`weight` spaces: `dim_cusp` counts cusp
    forms, `dim_modular` = dim_cusp + 1 counts all modular forms."""

    weight: int
    dim_cusp: int
    dim_modular: int


def _is_int(value) -> bool:
    """Whether `value` is an int and not a bool, which is an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_weight(weight: int) -> None:
    if isinstance(weight, int) and weight == 2:
        raise ValueError("weight 2 rejected: the weight-2 Eisenstein series is only quasi-modular")
    if not isinstance(weight, int) or weight % 2 != 0 or weight < 4:
        raise ValueError(f"weight must be an even integer >= 4, got {weight}")


def dimension_data(weight: int) -> DimensionData:
    """Dimension counts via the floor(k/6) case split on weight mod 12."""
    _check_weight(weight)
    k = weight // 2
    dim_cusp = k // 6 - 1 if weight % 12 == 2 else k // 6
    return DimensionData(weight, dim_cusp, dim_cusp + 1)


def dimension_oracle(weight: int) -> int:
    """dim of the full weight-`weight` space by the classical floor(w/12)
    formula.  Kept as an independent cross-check for dimension_data."""
    _check_weight(weight)
    if weight % 12 == 2:
        return weight // 12
    return weight // 12 + 1
