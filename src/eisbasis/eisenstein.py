"""q-expansions of the Eisenstein series G_w and of products G_u * G_v.

Only one normalization exists here: constant term -B_w/(2w) and a_1 = 1.
The unit-constant-term normalization is deliberately absent; mixing the
two is the classic source of wrong coefficients.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import _check_weight, _is_int, sigma
from .qseries import QSeries


@lru_cache(maxsize=None, typed=True)
def eisenstein(weight: int, precision: int) -> QSeries:
    """The weight-`weight` Eisenstein series, truncated to `precision` terms.

    Coefficient a_m is sigma_{weight-1}(m); at m = 0 this is the constant
    term -B_weight/(2*weight) by the same divisor-sum convention.  Results
    are cached, keyed by type too, so a 16.0 is never answered by the 16
    entry; the returned series is immutable and safe to share.
    """
    _check_weight(weight)
    if not _is_int(precision) or precision < 1:
        raise ValueError(f"precision must be a positive integer, got {precision}")
    return QSeries(weight, tuple(sigma(weight - 1, m) for m in range(precision)))


@lru_cache(maxsize=None, typed=True)
def eisenstein_product(u: int, v: int, precision: int) -> QSeries:
    """The product G_u * G_v as a weight-(u+v) series of the given precision.

    Coefficient n is the convolution sum over l of
    sigma_{u-1}(l) * sigma_{v-1}(n-l), with the m = 0 convention above.
    Results are cached like eisenstein(), so the cusp basis reuses the
    products of the full-space basis.
    """
    return eisenstein(u, precision) * eisenstein(v, precision)
