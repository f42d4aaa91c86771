"""Property test of RatMatrix.solve on random small rational systems.

Denominators and numerators are drawn partly from the first two moduli the
modular solve tries, 2^61 - 1 and 2^61 - 3, and from 29, a factor of the
second, so systems singular modulo a working modulus but not over Q, row
scales that share a factor with one, and entries whose reduction needs
those numbers come up regularly.  The solve works modulo 2^61 - 1, or the
next odd modulus below it at which every pivot is a unit.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import rat_matrix  # noqa: E402

FACTORS = [2**61 - 1, 2**61 - 3, 29]

rationals = st.builds(
    lambda num, scale, den: Fraction(num * scale, den),
    st.integers(-(10**12), 10**12),
    st.sampled_from([1, 1, 1] + FACTORS),
    st.one_of(st.integers(1, 50), st.sampled_from(FACTORS + [FACTORS[0] * 7])),
)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # make the last row a combination of two others: singular over Q
        a, b = draw(rationals), draw(rationals)
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    rhs = draw(st.lists(rationals, min_size=n, max_size=n))
    return rows, rhs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(systems())
def test_solve_is_exact_or_rejects_a_singular_matrix(system):
    rows, rhs = system
    matrix = rat_matrix(rows)
    if matrix.determinant() == 0:
        with pytest.raises(ValueError, match="singular"):
            matrix.solve(rhs)
    else:
        x = matrix.solve(rhs)
        assert [sum(a * v for a, v in zip(row, x)) for row in rows] == rhs
