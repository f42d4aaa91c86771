"""q-expansions of the Eisenstein series G_w and of products G_u * G_v.

Only one normalization exists here: constant term -B_w/(2w) and a_1 = 1.
The unit-constant-term normalization is deliberately absent; mixing the
two is the classic source of wrong coefficients.  Past a_0, every
coefficient, exact or mod m, comes from one divisor sieve, _cleared.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import _check_weight, _is_int, sigma
from .qseries import QSeries, _series


@lru_cache(maxsize=None)
def _constant_term(weight: int) -> tuple[int, int]:
    """a_0(G_weight) = sigma(weight - 1, 0) in lowest terms, as (numerator,
    denominator): the package's only reader of sigma(r, 0)."""
    return sigma(weight - 1, 0).as_integer_ratio()


def _cleared(weight: int, length: int, modulus: int | None = None) -> tuple[int, ...]:
    """The cleared series q * G_weight, a_0(G_weight) = p/q, to `length` terms:
    p, then q * sigma_{weight-1}(n) by a divisor sieve, reduced mod `modulus`
    if given.  Not cached: eisenstein() and basis._table keep what they read."""
    p, q = _constant_term(weight)
    sums = [p] + [0] * (length - 1)
    for d in range(1, length):
        power = q * pow(d, weight - 1, modulus)
        for n in range(d, length, d):
            sums[n] += power
    return tuple(sums) if modulus is None else tuple([v % modulus for v in sums])


@lru_cache(maxsize=None, typed=True)
def eisenstein(weight: int, precision: int) -> QSeries:
    """The weight-`weight` Eisenstein series, truncated to `precision` terms.

    Coefficient a_m is sigma_{weight-1}(m); at m = 0 this is the constant
    term -B_weight/(2*weight) by the same divisor-sum convention.  It is the
    tuple _cleared(weight, precision) over a_0's reduced denominator, so in
    lowest terms.  Results are cached for the life of the process, keyed by
    type too, so a 16.0 is never answered by the 16 entry.  No package code
    reads this cache: it calls the uncached _eisenstein and keeps the series
    in basis._table.
    """
    _check_weight(weight)
    if not _is_int(precision) or precision < 1:
        raise ValueError(f"precision must be a positive integer, got {precision}")
    return _series(weight, _cleared(weight, precision), _constant_term(weight)[1])


_eisenstein = eisenstein.__wrapped__


def eisenstein_product(u: int, v: int, precision: int) -> QSeries:
    """The weight-(u+v) product G_u * G_v to `precision` terms, not cached:
    coefficient n is the convolution sum over l of sigma_{u-1}(l) *
    sigma_{v-1}(n-l), with the m = 0 convention above."""
    return _eisenstein(u, precision) * _eisenstein(v, precision)
