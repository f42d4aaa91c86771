"""Property tests of QSeries arithmetic against a plain Fraction reference.

Series are drawn with signed rational coefficients, all-zero series and
precision 1 included.  Every operation on the integer-numerator form must
give the coefficients the Fraction computation gives, and the stored form
must stay in lowest terms, so that equal values built by different routes
compare and hash equal.  Scalars and series are also drawn to share prime
powers, so that a scalar's numerator meets the series' denominator and its
denominator meets the numerators' content.

The lowest-terms routine that series and RatMatrix rows share guesses the
content from the denominator and the two end numerators; rows given as k
times a row, and rows whose ends share a factor the middle lacks, must
come out as the gcd of the whole row gives them, on both branches.
"""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eisbasis import QSeries, RatMatrix  # noqa: E402
from eisbasis.qseries import _lowest_terms  # noqa: E402
from helpers import schoolbook_product  # noqa: E402

rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.sampled_from([1, 240, 691, 2**61 - 1])),
)
# scalars whose numerator or denominator shares prime powers with the
# contented series below
shared = st.sampled_from([
    Fraction(240**3, 691),
    Fraction(691, 240),
    Fraction(-(2**7) * 691, 3**4),
    Fraction(3**4, 2**7 * 691),
])
scalars = st.one_of(st.integers(-50, 50), rationals, shared)


@st.composite
def series(draw, weight=4):
    if draw(st.integers(0, 9)) == 0:
        return QSeries(weight, (0,) * draw(st.integers(1, 12)))
    return QSeries(weight, draw(st.lists(rationals, min_size=1, max_size=12)))


@st.composite
def contented_series(draw, weight=4):
    """Series whose numerators share a factor k, over a denominator that
    shares prime powers with the scalars above."""
    k = draw(st.sampled_from([1, 240, 691, 2**7 * 3**4, 240**3 * 691]))
    den = draw(st.sampled_from([1, 240, 691, 2**5 * 3, 240**3]))
    numerators = draw(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=12))
    return QSeries(weight, [Fraction(k * v, den) for v in numerators])


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


def check_scalar(a, c):
    x = a.coeffs
    check(a * c, 4, [p * c for p in x])
    check(c * a, 4, [c * p for p in x])
    if c != 0:
        check(a / c, 4, [p / c for p in x])
    else:
        with pytest.raises(ZeroDivisionError):
            a / c


@common
@given(series(), scalars)
def test_scalar_multiply_and_divide(a, c):
    check_scalar(a, c)


@common
@given(contented_series(), st.one_of(shared, scalars))
def test_scalar_cancels_only_the_content_it_meets(a, c):
    check_scalar(a, c)
    check(-a, 4, [-p for p in a.coeffs])


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


def reference_row(numerators, den):
    g = gcd(den, *numerators)
    return tuple(v // g for v in numerators), den // g


lowest_terms_branches = set()


@common
@given(
    st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=8),
    st.integers(1, 10**20),
    st.sampled_from([1, 2, 240, 691, 2**61 - 1, 240**3 * 691]),
    st.sampled_from([1, 3, 7 * 691, 2**64]),
)
def check_lowest_terms(numerators, den, k, end):
    """The row as drawn, as k * row over k * den, and with both ends times
    `end` over den times `end`, so the guess may exceed the content."""
    ends = list(numerators)
    ends[0] *= end
    ends[-1] *= end
    for row, d in ((numerators, den), ([k * v for v in numerators], k * den), (ends, den * end)):
        want = reference_row(row, d)
        got_numerators, got_den = _lowest_terms(list(row), d)
        assert (tuple(got_numerators), got_den) == want
        assert RatMatrix([(row, d)] + [([0] * len(row), 1)] * (len(row) - 1))._rows[0] == want
        guess, content = gcd(d, row[0], row[-1]), d // want[1]
        branch = "none" if guess == 1 else "exact" if guess == content else "large"
        lowest_terms_branches.add(branch)


def test_lowest_terms_matches_the_gcd_of_the_whole_row():
    lowest_terms_branches.clear()
    check_lowest_terms()
    assert lowest_terms_branches == {"none", "exact", "large"}
