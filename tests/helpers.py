"""Independent oracles shared across the test suite.

Everything here deliberately avoids the library's own computation paths:
Bernoulli numbers come from the full recurrence over all indices, divisor
sums from exhaustive enumeration, series products from the schoolbook
convolution sum, determinants from Leibniz expansion, linear solves from
Gaussian elimination over Fractions, and the discriminant cusp form from
the unit-normalized series combination.  The
Hecke operator T_2 acts on coefficients directly; its traces take express()
as given and check that the series it is fed are modular forms at all.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, lcm

from eisbasis import (
    Basis,
    BasisElement,
    QSeries,
    RatMatrix,
    basis_for,
    dimension_data,
    eisenstein,
    express,
)
from eisbasis.basis import BasisKind


def bernoulli_table(n: int) -> list[Fraction]:
    """B_0..B_n (all indices, B_1 = -1/2) by solving the defining recurrence
    sum_{j=0}^{m} C(m+1, j) B_j = 0 for B_m, one index at a time."""
    table = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(comb(m + 1, j) * table[j] for j in range(m))
        table.append(Fraction(-acc, m + 1))
    return table


def bernoulli_ratio_correction(u: int, v: int, table: list[Fraction]) -> Fraction:
    """The cusp correction of G_u * G_v by its Bernoulli-ratio formula
    (B_u / u) (B_v / v) (k / B_2k), u + v = 2k, from a bernoulli_table."""
    return (table[u] / u) * (table[v] / v) * (Fraction(u + v, 2) / table[u + v])


def brute_sigma(r: int, m: int) -> int:
    return sum(d**r for d in range(1, m + 1) if m % d == 0)


def delta_series(precision: int) -> QSeries:
    """The discriminant cusp form from the unit-constant-term combination
    ((240 G_4)^3 - (-504 G_6)^2) / 1728; coefficients are the tau values."""
    e4 = 240 * eisenstein(4, precision)
    e6 = -504 * eisenstein(6, precision)
    return (e4**3 - e6**2) / 1728


def hecke_t2(series: QSeries, precision: int) -> QSeries:
    """T_2 of a weight-w series to `precision` terms (it reads 2 * precision - 1):
    b(n) = a(2n) + 2^(w-1) a(n/2), the second term for even n only."""
    scale = 2 ** (series.weight - 1)
    coeffs = [
        series.coefficient(2 * n) + (scale * series.coefficient(n // 2) if n % 2 == 0 else 0)
        for n in range(precision)
    ]
    return QSeries(series.weight, coeffs)


def t2_traces(weight: int, kind, powers: int) -> list[Fraction]:
    """tr(T_2^k) for k = 1..powers in the `kind` basis at `weight`.

    T_2 of each element of the basis built at 2P terms, expressed in the
    basis built at P = 2 * dim_modular + 8, is one row of T_2's matrix (its
    transpose, which has the same traces); the powers are taken over
    Fractions.
    """
    precision = 2 * dimension_data(weight).dim_modular + 8
    short = basis_for(weight, kind, precision)
    long = basis_for(weight, kind, 2 * precision)
    matrix = [express(hecke_t2(el.series, precision), short) for el in long.elements]
    n = len(matrix)
    traces, power = [], matrix
    for _ in range(powers):
        traces.append(sum((power[i][i] for i in range(n)), Fraction(0)))
        power = [
            [sum((row[l] * matrix[l][j] for l in range(n)), Fraction(0)) for j in range(n)]
            for row in power
        ]
    return traces


def schoolbook_product(a: QSeries, b: QSeries) -> QSeries:
    """a * b by the direct Fraction convolution sum, truncated to the shorter
    precision."""
    n = min(a.precision, b.precision)
    return QSeries(
        a.weight + b.weight,
        tuple(
            sum((a.coeffs[l] * b.coeffs[i - l] for l in range(i + 1)), Fraction(0))
            for i in range(n)
        ),
    )


def det_leibniz(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by signed permutation expansion; fine for n <= 5."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = Fraction(1) if inversions % 2 == 0 else Fraction(-1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def rat_matrix(rows) -> RatMatrix:
    """The RatMatrix with the given rows of ints and Fractions, each row
    cleared to integer numerators over the lcm of its denominators."""
    cleared = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*[x.denominator for x in row])
        cleared.append(([x.numerator * (den // x.denominator) for x in row], den))
    return RatMatrix(cleared)


def gauss_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """x with rows * x = rhs by Gaussian elimination over Fractions and back
    substitution; raises ValueError("matrix is singular") when no pivot is
    left."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        a[k], a[pivot_row] = a[pivot_row], a[k]
        pivot = a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor:
                for j in range(k, n + 1):
                    a[i][j] -= factor * a[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))
        x[k] = acc / a[k][k]
    return x


def tamper(basis: Basis) -> Basis:
    """The basis with one coefficient broken so that verification must fail.

    A nonzero constant term trips the cusp vanishing check; for the
    single-element full-space basis of a cuspless weight a zeroed constant
    term makes the 1x1 coefficient matrix singular.
    """
    element = basis.elements[0]
    bad = Fraction(1) if basis.kind is BasisKind.NEW_S else Fraction(0)
    coeffs = (bad,) + element.series.coeffs[1:]
    broken = BasisElement(element.descriptor, QSeries(element.series.weight, coeffs))
    return Basis(basis.weight, basis.kind, basis.precision, (broken,) + basis.elements[1:])


def tampered_at(basis_for, weight: int):
    """`basis_for`, except that at `weight` one basis comes back tampered:
    new-s where the weight has cusp forms, new-m where it has none."""
    bad_kind = BasisKind.NEW_S if dimension_data(weight).dim_cusp else BasisKind.NEW_M

    def build(w, kind, precision=None):
        basis = basis_for(w, kind, precision)
        return tamper(basis) if w == weight and BasisKind(kind) is bad_kind else basis

    return build


# Ramanujan tau values tau(1)..tau(20), frozen from the delta_series
# construction above (a_0 = 0 precedes them).
TAU = [
    1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920,
    534612, -370944, -577738, 401856, 1217160, 987136, -6905934, 2727432,
    10661420, -7109760,
]
