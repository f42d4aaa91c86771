"""Independent oracles shared across the test suite.

Everything here deliberately avoids the library's own computation paths:
Bernoulli numbers come from the full recurrence over all indices, divisor
sums from exhaustive enumeration, series products from the schoolbook
convolution sum, determinants from Leibniz expansion, inverses mod m from
plain Gauss-Jordan elimination, linear solves from Gaussian elimination
over Fractions, and the discriminant cusp form from the unit-normalized
series combination.  The Hecke operators T_p act on
coefficients directly, and the traces express() gives them are checked
against the Eichler-Selberg trace formula, with Hurwitz class numbers
counted from reduced binary quadratic forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, gcd, isqrt, lcm

from eisbasis import (
    Basis,
    BasisElement,
    QSeries,
    RatMatrix,
    basis_for,
    dimension_data,
    eisenstein,
    express,
    verify_report,
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


def hecke(series: QSeries, p: int, precision: int) -> QSeries:
    """T_p of a weight-w series to `precision` terms (it reads p * precision - p + 1):
    b(n) = a(pn) + p^(w-1) a(n/p), the second term for n divisible by p only."""
    scale = p ** (series.weight - 1)
    coeffs = [
        series.coefficient(p * n) + (scale * series.coefficient(n // p) if n % p == 0 else 0)
        for n in range(precision)
    ]
    return QSeries(series.weight, coeffs)


def hecke_traces(weight: int, kind, p: int, powers: int) -> list[Fraction]:
    """tr(T_p^k) for k = 1..powers in the `kind` basis at `weight`.

    T_p of each element of the basis built at pP terms, expressed in the
    basis built at P = 2 * dim_modular + 8, is one row of T_p's matrix (its
    transpose, which has the same traces); the powers are taken over
    Fractions.
    """
    precision = 2 * dimension_data(weight).dim_modular + 8
    short = basis_for(weight, kind, precision)
    long = basis_for(weight, kind, p * precision)
    matrix = [express(hecke(el.series, p, precision), short) for el in long.elements]
    n = len(matrix)
    traces, power = [], matrix
    while True:
        traces.append(sum((power[i][i] for i in range(n)), Fraction(0)))
        if len(traces) == powers:
            return traces
        power = [
            [sum((row[l] * matrix[l][j] for l in range(n)), Fraction(0)) for j in range(n)]
            for row in power
        ]


def hurwitz_class_number(n: int) -> Fraction:
    """H(n) for n = 0 or n > 0 with n = 0, 3 mod 4: the number of reduced
    forms ax^2 + bxy + cy^2 with b^2 - 4ac = -n, that is |b| <= a <= c and
    b >= 0 when |b| = a or a = c.  A form that is a multiple of x^2 + y^2
    counts 1/2, one that is a multiple of x^2 + xy + y^2 counts 1/3, and
    H(0) = -1/12."""
    if n == 0:
        return Fraction(-1, 12)
    total = Fraction(0)
    a = 1
    while 3 * a * a <= n:  # a reduced form has n = 4ac - b^2 >= 3a^2
        for b in range(1 - a, a + 1):
            c, r = divmod(b * b + n, 4 * a)
            if r or c < a or (c == a and b < 0):
                continue
            total += Fraction(1, 2) if c == a and b == 0 else Fraction(1, 3) if c == a == b else 1
        a += 1
    return total


def eichler_selberg_trace(weight: int, n: int) -> Fraction:
    """Tr(T_n | S_k) at level one, k = weight even and >= 4, by the
    Eichler-Selberg trace formula

        -1/2 sum_{t^2 <= 4n} P_k(t, n) H(4n - t^2) - 1/2 sum_{dd' = n} min(d, d')^(k-1),

    P_k(t, n) the coefficient of x^(k-2) in 1 / (1 - tx + nx^2)."""

    def p_k(t: int) -> int:
        previous, current = 0, 1  # the coefficients of x^-1 and x^0
        for _ in range(weight - 2):
            previous, current = current, t * current - n * previous
        return current

    bound = isqrt(4 * n)
    classes = sum(p_k(t) * hurwitz_class_number(4 * n - t * t) for t in range(-bound, bound + 1))
    divisors = sum(min(d, n // d) ** (weight - 1) for d in range(1, n + 1) if n % d == 0)
    return -(classes + divisors) / 2


def trace_formula_mismatches(p: int, weights) -> list[tuple]:
    """(weight, kind, trace, formula) for every weight and kind at which the
    trace of T_p that express() gives differs from the Eichler-Selberg
    formula; new-m and classical span G_w too, whose eigenvalue 1 + p^(w-1)
    adds to the cusp trace."""
    mismatches = []
    for weight in weights:
        cusp = eichler_selberg_trace(weight, p)
        for kind in BasisKind:
            want = cusp if kind is BasisKind.NEW_S else cusp + 1 + p ** (weight - 1)
            got = hecke_traces(weight, kind, p, 1)[0]
            if got != want:
                mismatches.append((weight, kind.value, got, want))
    return mismatches


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


def inverse_mod(rows: list[list[int]], m: int) -> list[list[int]] | None:
    """The inverse modulo m of the square integer matrix `rows`, by plain
    Gauss-Jordan elimination on [rows | I] with unit pivots, every entry
    kept below m, or None when a column has no unit left to pivot on."""
    n = len(rows)
    a = [[v % m for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if gcd(a[i][k], m) == 1), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        inverse = pow(a[k][k], -1, m)
        top = a[k] = [v * inverse % m for v in a[k]]
        for i, row in enumerate(a):
            factor = row[k]
            if factor and i != k:
                a[i] = [(v - factor * t) % m for v, t in zip(row, top)]
    return [row[n:] for row in a]


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


def tampered_at(verify_basis, weight: int):
    """`verify_basis`, except that at `weight` one report is that of a
    tampered basis: new-s where the weight has cusp forms, new-m where it
    has none."""
    bad_kind = BasisKind.NEW_S if dimension_data(weight).dim_cusp else BasisKind.NEW_M

    def verify(w, kind):
        if w == weight and BasisKind(kind) is bad_kind:
            return verify_report(tamper(basis_for(w, kind)))
        return verify_basis(w, kind)

    return verify


# Ramanujan tau values tau(1)..tau(20), frozen from the delta_series
# construction above (a_0 = 0 precedes them).
TAU = [
    1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920,
    534612, -370944, -577738, 401856, 1217160, 987136, -6905934, 2727432,
    10661420, -7109760,
]
