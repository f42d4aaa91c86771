"""Property tests of QSeries arithmetic against a plain Fraction reference.

Series are drawn with signed rational coefficients, all-zero series and
precision 1 included.  Every operation on the integer-numerator form must
give the coefficients the Fraction computation gives, and the stored form
must stay in lowest terms, so that equal values built by different routes
compare and hash equal.
"""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eisbasis import QSeries  # noqa: E402
from helpers import schoolbook_product  # noqa: E402

rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.sampled_from([1, 240, 691, 2**61 - 1])),
)
scalars = st.one_of(st.integers(-50, 50), rationals)


@st.composite
def series(draw, weight=4):
    if draw(st.integers(0, 9)) == 0:
        return QSeries(weight, (0,) * draw(st.integers(1, 12)))
    return QSeries(weight, draw(st.lists(rationals, min_size=1, max_size=12)))


def assert_canonical(s: QSeries) -> None:
    assert s.denominator > 0
    assert gcd(s.denominator, *s.numerators) == 1
    assert s == QSeries(s.weight, s.coeffs)
    assert hash(s) == hash(QSeries(s.weight, s.coeffs))


def check(s: QSeries, weight: int, expected) -> None:
    assert s.weight == weight
    assert s.coeffs == tuple(expected)
    assert_canonical(s)


common = settings(derandomize=True, max_examples=200, deadline=None)


@common
@given(series(), series())
def test_add_sub_neg(a, b):
    x, y = a.coeffs, b.coeffs
    check(a + b, 4, [p + q for p, q in zip(x, y)])
    check(a - b, 4, [p - q for p, q in zip(x, y)])
    check(-a, 4, [-p for p in x])


@common
@given(series(), scalars)
def test_scalar_multiply_and_divide(a, c):
    x = a.coeffs
    check(a * c, 4, [p * c for p in x])
    check(c * a, 4, [c * p for p in x])
    if c != 0:
        check(a / c, 4, [p / c for p in x])
    else:
        with pytest.raises(ZeroDivisionError):
            a / c


@common
@given(series(4), series(6))
def test_series_multiply(a, b):
    expected = schoolbook_product(a, b).coeffs
    check(a * b, 10, expected)
    check(b * a, 10, expected)


@common
@given(series(), st.data())
def test_truncate(a, data):
    precision = data.draw(st.integers(1, a.precision))
    check(a.truncate(precision), 4, a.coeffs[:precision])


@common
@given(series(), series(), st.one_of(st.integers(1, 50), st.integers(-50, -1), rationals))
def test_equal_values_by_different_routes_are_equal(a, b, c):
    n = min(a.precision, b.precision)
    routes = [a.truncate(n), (a + b) - b, (a - b) + b, -(-a.truncate(n))]
    if c != 0:
        routes += [(a * c) / c, (a / c) * c]
    routes = [s.truncate(n) for s in routes]
    for s in routes:
        assert s == routes[0]
        assert hash(s) == hash(routes[0])
