"""Bases for the weight-2k spaces of modular and cusp forms, plus the exact
linear algebra used to certify them and to express forms in coordinates.

Three families are built:

* ``new-m``      -- G_{2k} together with two-factor products G_u * G_v,
                    the factor weights stepping by 4 through the parity
                    class of 2k,
* ``new-s``      -- the same products, each corrected by an exact rational
                    multiple of G_{2k} so the constant term cancels,
* ``classical``  -- the monomials G_4^alpha * G_6^beta.

Construction shares its work.  The products G_u * G_v are cached for the
life of the process, like eisenstein(), so new-s reuses those new-m built.
Each G_w and the powers of G_4 and G_6 sit in one table per precision, exact
or mod m, so a monomial costs a lookup plus at most one multiply; the last
two are kept, as a verify sweep never returns to a window length it passed.

Certification never touches floating point: a family is confirmed as a
basis when its element count equals the space's dimension and the leading
square matrix of q-coefficients has nonzero determinant.  A form in the
weight-2k space vanishing in its first dim-many coefficients is zero, so
that pairing is non-degenerate and the determinant test is sound.  For an
integer matrix R, det(R mod m) = det(R) mod m, so elimination on R mod
m = 2^31 - 1 proves det(R) != 0 by a nonzero residue: R is the cleared
numerator rows in nonsingular(), and in verify_basis, which builds no
series, R_i = D_i * A_i mod m from residues of q * G_w, a_0(G_w) = p/q, for
the exact row A_i and D_i a product of a_0 denominators, so det(R) =
prod(D_i) * det(A).  Only a residue of 0 builds A, as `determinant` does.

The new-s determinant is taken through new-m's matrix.  When every new-s
element S_i has a_0 = 0, the (n+1)-square matrix over a_0..a_n with rows
G_2k and S_i - c_i * G_2k becomes, after adding c_i times the first row
to row i, block-triangular with first column (a_0(G_2k), 0, ..., 0), so
its determinant is a_0(G_2k) times the new-s determinant over a_1..a_n.
That holds for any c_i (an element's correction, or 0 if it has none), so
it serves whenever the constant terms vanish; with c_i the cusp correction
the rows are the new-m products, whose entries are a few times smaller.
They are integer rows: N_i L/D_i - p_i g L/(q_i d) over L = lcm(D_i, q_i d),
for S_i = N_i/D_i, c_i = p_i/q_i and G_2k = g/d, each cancelled once.
The last four determinants are kept, keyed by their exact integer rows, so
certifying new-s after new-m and classical, as verify does, repeats no
elimination: the new-s residue matrix is new-m's, and so is the exact one
when it is read.  Unlike the series caches the memo is bounded, and a hit
needs an identical integer matrix, so it never changes a determinant.

Expressing a form in coordinates solves the leading square window by p-adic
(Dixon) lifting on the target's integer numerators over their denominator
E.  Window row i, over d_i, is scaled by E / gcd(d_i, E), a divisor of E,
so one inverse of E unscales every row.  From the first express() on, the
basis keeps its window inverted modulo 2^61 - 1, or the next odd modulus
below it, coprime to E, at which every pivot is a unit, so each form costs
O(n^2) per digit of its coordinates in that base, read back in one pass
by rational reconstruction, as integers over one denominator.  That may be
wrong, so the solve returns only numerators that satisfy every scaled row
exactly, giving up past a Hadamard limit taken in bits, and express()
checks every other coefficient exactly before it builds Fractions.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod
from operator import mul

from ._record import Record
from .arith import _check_weight, _is_int, dimension_data
from .eisenstein import _cleared, _constant_term, eisenstein, eisenstein_product
from .qseries import QSeries, _as_fraction, _kronecker, _lowest_terms, _numerators


class BasisKind(str, Enum):
    NEW_M = "new-m"
    NEW_S = "new-s"
    CLASSICAL = "classical"

    def dimension(self, weight: int) -> int:
        """How many elements a basis of this kind has at `weight`: the
        dimension of the cusp space for new-s, of the full space otherwise."""
        dims = dimension_data(weight)
        return dims.dim_cusp if self is BasisKind.NEW_S else dims.dim_modular


class Single(Record):
    """The Eisenstein series G_weight on its own."""

    weight: int

    def label(self) -> str:
        return f"G_{self.weight}"

    def realize(self, precision: int, modulus: int | None = None) -> QSeries | tuple[int, ...]:
        """The exact series, or with `modulus` the residues of q * G_weight (_cleared)."""
        return _eisenstein_power(self.weight, 1, precision, modulus)


class Product(Record):
    """The product G_u * G_v."""

    u: int
    v: int

    def label(self) -> str:
        return f"G_{self.u}*G_{self.v}"

    def realize(self, precision: int, modulus: int | None = None) -> QSeries | tuple[int, ...]:
        """The cached exact product, or with `modulus` the product of residues."""
        if modulus is None:
            return eisenstein_product(self.u, self.v, precision)
        u, v = (_eisenstein_power(w, 1, precision, modulus) for w in (self.u, self.v))
        return _times(u, v, modulus)


class CuspCombo(Record):
    """G_u * G_v + c * G_{u+v}, with c the exact correction that kills the
    constant term (cusp_correction).  c is stored signed; rendering shows
    "- |c|" when c is negative."""

    u: int
    v: int
    c: Fraction

    @property
    def weight(self) -> int:
        return self.u + self.v

    def label(self) -> str:
        tail = f"G_{self.weight}"
        if self.c < 0:
            return f"G_{self.u}*G_{self.v} - {-self.c}*{tail}"
        return f"G_{self.u}*G_{self.v} + {self.c}*{tail}"

    def realize(self, precision: int) -> QSeries:
        """The corrected product, checked to have an exactly vanishing
        constant term; a nonzero one is an arithmetic bug, not bad input."""
        product = eisenstein_product(self.u, self.v, precision)
        series = product + self.c * eisenstein(self.weight, precision)
        if series.numerators[0]:
            a0 = series.coefficient(0)
            raise ArithmeticError(f"constant term failed to cancel for {self.label()}: {a0}")
        return series


class Monomial(Record):
    """The classical monomial G_4^alpha * G_6^beta."""

    alpha: int
    beta: int

    def label(self) -> str:
        parts = []
        if self.alpha:
            parts.append("G_4" if self.alpha == 1 else f"G_4^{self.alpha}")
        if self.beta:
            parts.append("G_6" if self.beta == 1 else f"G_6^{self.beta}")
        return "*".join(parts)

    def realize(self, precision: int, modulus: int | None = None) -> QSeries | tuple[int, ...]:
        """A lookup in the shared G_4 and G_6 power tables, exact or mod
        `modulus`, plus one multiply when both exponents are nonzero."""
        alpha, beta = self.alpha, self.beta
        if not beta:
            return _eisenstein_power(4, alpha, precision, modulus)
        if not alpha:
            return _eisenstein_power(6, beta, precision, modulus)
        g4 = _eisenstein_power(4, alpha, precision, modulus)
        return _times(g4, _eisenstein_power(6, beta, precision, modulus), modulus)


def _times(a, b, modulus: int | None):
    """a * b: series exactly, or residue tuples by _kronecker mod `modulus`."""
    return a * b if modulus is None else tuple([v % modulus for v in _kronecker(a, b)])


@lru_cache(maxsize=2, typed=True)
def _table(precision: int, modulus: int | None) -> dict:
    """{weight: {exponent: G_weight^exponent}} to `precision` terms, exact, or
    cleared residue rows mod `modulus`.  Two are kept, as no traffic holds
    more: verify's window (n, CERTIFY_MODULUS) and one exact precision."""
    return {}


def _eisenstein_power(weight: int, exponent: int, precision: int, modulus: int | None = None):
    """G_weight^exponent (exponent >= 1) from _table, each missing power one
    multiply from the one below, and G_weight itself eisenstein() or, mod
    `modulus`, its _cleared row.  A concurrent fill is idempotent: at worst
    two callers repeat a multiply and store the same value."""
    powers = _table(precision, modulus).setdefault(weight, {})
    if 1 not in powers:
        powers[1] = (eisenstein(weight, precision) if modulus is None
                     else _cleared(weight, precision, modulus))
    for e in range(2, exponent + 1):
        if e not in powers:
            powers[e] = _times(powers[e - 1], powers[1], modulus)
    return powers[exponent]


Descriptor = Single | Product | CuspCombo | Monomial


class BasisElement(Record):
    descriptor: Descriptor
    series: QSeries


class Basis(Record):
    weight: int
    kind: BasisKind
    precision: int
    elements: tuple[BasisElement, ...]

    def __init__(self, weight: int, kind: BasisKind | str, precision: int, elements):
        # a kind may be given by name; every reader of a basis relies on the
        # window fitting in `precision` and on each element filling it
        super().__init__(weight, BasisKind(kind), precision, tuple(elements))
        expected = self.kind.dimension(weight)
        if len(self.elements) != expected:
            raise ValueError(
                f"a {self.kind.value} basis of weight {weight} has {expected} elements, "
                f"but {len(self.elements)} were given"
            )
        if not _is_int(precision):
            raise ValueError(f"basis precision must be an integer, got {precision}")
        if self.precision < self.window.stop:
            raise ValueError(f"precision {self.precision} below the window end {self.window.stop}")
        for index, el in enumerate(self.elements):
            # the certificate holds for forms of this weight only
            if el.series.weight != self.weight:
                raise ValueError(
                    f"element {index} ({el.descriptor.label()}) has weight "
                    f"{el.series.weight}, not the basis weight {self.weight}"
                )
            if el.series.precision != self.precision:
                raise ValueError(
                    f"element {index} has {el.series.precision} coefficients, not {self.precision}"
                )

    def labels(self) -> list[str]:
        return [el.descriptor.label() for el in self.elements]

    @property
    def window(self) -> range:
        """Indices of the coefficients that pair with the elements in a
        square system: a_0..a_{n-1}, or a_1..a_n for the cusp kind, whose
        constant terms all vanish."""
        start = 1 if self.kind is BasisKind.NEW_S else 0
        return range(start, start + len(self.elements))

    @cached_property
    def _express_system(self) -> tuple[int, list[list[int]], RatMatrix]:
        """For express(), kept from its first call: the lcm L of the element
        denominators, every coefficient column over L, and the RatMatrix of
        the window's columns, which keeps its factorisation."""
        series = [el.series for el in self.elements]
        common = lcm(*[s.denominator for s in series])
        scales = [common // s.denominator for s in series]
        columns = [
            [s.numerators[j] * c for s, c in zip(series, scales)] for j in range(self.precision)
        ]
        return common, columns, RatMatrix([(columns[j], common) for j in self.window])


def default_precision(weight: int) -> int:
    """The precision a basis is built to when none is given, as for a
    printed basis: dim_cusp + 10 terms, at least 16.  Verification builds
    at the floor instead, and express() needs a basis as long as its
    target."""
    return max(dimension_data(weight).dim_cusp + 10, 16)


def _precision_floor(weight: int) -> int:
    """dim_cusp + 2 terms: one more than the square window a basis is
    certified on needs, a_0..a_dim_cusp at most."""
    return dimension_data(weight).dim_cusp + 2


def _checked_precision(weight: int, precision: int | None) -> int:
    """`precision`, or default_precision(weight) when it is None.  A
    precision that is not an int, or is below the floor, is rejected."""
    if precision is None:
        return default_precision(weight)
    if not _is_int(precision):
        raise ValueError(f"precision must be a positive integer, got {precision}")
    floor = _precision_floor(weight)
    if precision < floor:
        raise ValueError(f"precision {precision} too small for weight {weight}: need >= {floor}")
    return precision


def basis_descriptors(weight: int, kind: BasisKind | str) -> list[Descriptor]:
    """The descriptors of the `kind` basis at `weight`, in basis order, with
    no series realized; only the cusp corrections cost anything: a Fraction
    each, and a Bernoulli number per constant term not yet cached.

    new-m is G_{2k}, then the products in increasing first-factor order:
    the factor weights run (4i, 2k-4i) when 2k = 0 mod 4 and
    (4i+2, 2k-4i-2) when 2k = 2 mod 4, for i = 1..dim_cusp, so both factors
    always land at weight >= 4.  new-s is the same products with their cusp
    corrections.  classical is every (alpha, beta) with
    4*alpha + 6*beta = 2k, in increasing beta order.
    """
    kind = BasisKind(kind)
    dims = dimension_data(weight)
    if kind is BasisKind.CLASSICAL:
        pairs = [
            ((weight - 6 * beta) // 4, beta)
            for beta in range(weight // 6 + 1)
            if (weight - 6 * beta) % 4 == 0
        ]
        return [Monomial(alpha, beta) for alpha, beta in pairs]
    offset = 0 if weight % 4 == 0 else 2
    products = [Product(4 * i + offset, weight - 4 * i - offset) for i in range(1, dims.dim_cusp + 1)]
    if kind is BasisKind.NEW_M:
        return [Single(weight), *products]
    return [CuspCombo(p.u, p.v, cusp_correction(p.u, p.v)) for p in products]


def _realize(weight: int, kind: BasisKind, precision: int | None) -> Basis:
    """The `kind` basis at `weight`, every descriptor realized to a checked precision."""
    precision = _checked_precision(weight, precision)
    elements = [BasisElement(d, d.realize(precision)) for d in basis_descriptors(weight, kind)]
    return Basis(weight, kind, precision, elements)


def new_basis(weight: int, precision: int | None = None) -> Basis:
    """The G_{2k}-plus-products basis for the full weight-2k space."""
    return _realize(weight, BasisKind.NEW_M, precision)


def cusp_correction(u: int, v: int) -> Fraction:
    """The coefficient c making G_u * G_v + c * G_{u+v} a cusp form:
    -a_0(G_u) a_0(G_v) / a_0(G_{u+v}), one Fraction built from the integer
    constant terms eisenstein() uses, once both are checked as weights."""
    _check_weight(u)
    _check_weight(v)
    (pu, qu), (pv, qv), (pw, qw) = map(_constant_term, (u, v, u + v))
    return Fraction(-pu * pv * qw, qu * qv * pw)


def cusp_basis(weight: int, precision: int | None = None) -> Basis:
    """The corrected-product basis for the weight-2k cusp forms; each
    element checks that its constant term cancels (CuspCombo.realize)."""
    return _realize(weight, BasisKind.NEW_S, precision)


def classical_basis(weight: int, precision: int | None = None) -> Basis:
    """The monomial basis G_4^alpha * G_6^beta for the full weight-2k space."""
    return _realize(weight, BasisKind.CLASSICAL, precision)


def basis_for(weight: int, kind: BasisKind | str, precision: int | None = None) -> Basis:
    kind = BasisKind(kind)
    if kind is BasisKind.NEW_M:
        return new_basis(weight, precision)
    if kind is BasisKind.NEW_S:
        return cusp_basis(weight, precision)
    return classical_basis(weight, precision)


# the prime RatMatrix.nonsingular() works modulo; Bareiss on n-square
# residues grows entries to about 31n bits, half what 2^61 - 1 would give
CERTIFY_MODULUS = (1 << 31) - 1


class RatMatrix:
    """Dense matrix of exact rationals with an exact determinant, a
    nonsingularity test certified modulo a prime, and a linear solve that
    is modular inside but certified exactly.

    It is built from cleared rows: row i is a pair (numerators, denominator)
    of ints (not bools), denominator > 0, holding the entries numerators[j] /
    denominator.  There must be at least one row, and the matrix must be
    square.  Each row is kept in lowest terms, which makes the cleared rows
    of a matrix of rationals unique.
    """

    def __init__(self, rows):
        # a square matrix with a row has a column too
        if not rows:
            raise ValueError("matrix needs at least one row and one column")
        n = len(rows)
        cleared = []
        for numerators, den in rows:
            if len(numerators) != n:
                raise ValueError(f"matrix must be square: {n} rows, a row of {len(numerators)}")
            if {*map(type, (den, *numerators))} != {int}:
                bad = next(type(v) for v in (den, *numerators) if type(v) is not int)
                raise TypeError(f"{bad.__name__} values are not allowed; use Fraction or int")
            if den < 1:
                raise ValueError(f"row denominators must be positive, got {den}")
            cleared.append(_lowest_terms(numerators, den))
        self._rows = tuple(cleared)
        self._kept = None

    @property
    def rows(self) -> int:
        return len(self._rows)

    def row_list(self) -> list[list[Fraction]]:
        return [[Fraction(v, den) for v in numerators] for numerators, den in self._rows]

    def nonsingular(self) -> bool:
        """Whether det != 0, certified modulo the prime m = CERTIFY_MODULUS:
        det(N mod m) = det(N) mod m for the cleared numerators N, so a
        nonzero residue proves it; only a residue of 0 asks for the exact
        determinant.  Both are determinant() calls, which the memo serves."""
        m = CERTIFY_MODULUS
        residues = RatMatrix([([v % m for v in numerators], 1) for numerators, _ in self._rows])
        return residues.determinant() % m != 0 or self.determinant() != 0

    def determinant(self) -> Fraction:
        """Exact determinant, by Bareiss elimination on the cleared rows.

        The results for the last four matrices are kept for the process,
        keyed by those exact integer rows, so a matrix seen again
        (verify_report's new-s matrix is new-m's) costs a lookup.  A hit
        needs an identical matrix, so it cannot change the answer.
        """
        return _bareiss(self._rows)

    def solve(self, rhs) -> list[Fraction]:
        """Solve self * x = rhs exactly: each entry of rhs passes the rational
        gate, and _solve takes their numerators over their lcm E and returns
        those of x over one denominator."""
        if len(rhs) != self.rows:
            raise ValueError(f"right-hand side length {len(rhs)} does not match {self.rows} rows")
        nums, den = self._solve(*_numerators([_as_fraction(b) for b in rhs]))
        return [Fraction(v, den) for v in nums]

    def _solve(self, targets, den: int) -> tuple[list[int], int]:
        """x with self * x = targets / E (integers over one E = den > 0), by
        p-adic lifting certified exactly, as its numerators over the lcm
        D > 0 of its denominators.

        Row i, numerators N_i over d_i, times s_i = E / gcd(d_i, E) is the
        integer row s_i N_i x = t_i = targets_i * d_i / gcd(d_i, E).  Every
        s_i divides E, so with N inverted once modulo an m coprime to E (see
        _factor), s_i^-1 = gcd(d_i, E) * E^-1 mod m: one modular inverse per
        solve.  Each base-m digit y of x costs O(n^2): y solves the system
        mod m, and (t - diag(s) N y) / m is the next right-hand side (Dixon
        lifting).  After geometrically more digits x is read back over D,
        and returned only if it satisfies every scaled row exactly, which
        certifies the rows.  Past twice a squared Hadamard bound on Cramer's
        rule for the scaled system, 2 * (prod_i b_i)^2 with
        b_i = s_i |N_i| + |t_i|, reconstruction cannot fail for a
        nonsingular matrix, so a candidate failing there is ArithmeticError.
        The limit is taken in bits, as m^k >= 2^(2 * sum_i bits(b_i) + 1),
        at most 2n bits past the bound.
        """
        m, inverse = self._factor(den)
        unit = pow(den, -1, m)
        shared = [gcd(d, den) for _, d in self._rows]
        scales = [den // g for g in shared]
        scaled = [t * (d // g) for (_, d), t, g in zip(self._rows, targets, shared)]
        unscale = [g * unit % m for g in shared]
        sizes = zip(scales, self._norms, scaled)
        limit_bits = 2 * sum((s * a + abs(t)).bit_length() for s, a, t in sizes) + 1
        residual, residues, modulus, digits, next_try = scaled, [0] * len(scaled), 1, 0, 1
        while True:
            v = [r % m * u for r, u in zip(residual, unscale)]
            y = [sum(map(mul, row, v)) % m for row in inverse]
            residues = [r + modulus * d for r, d in zip(residues, y)]
            modulus *= m
            digits += 1
            past_bound = modulus.bit_length() > limit_bits
            # a failed reconstruction costs a Euclidean pass over the whole
            # modulus, so the digits between tries grow with their count:
            # tries come after 1, 2, 3, 4, 6, 8, 11, 14, 18, 23, ... digits
            if digits == next_try or past_bound:
                next_try = digits + 1 + digits // 4
                x = _reconstruct_vector(residues, modulus)
                if x is not None:
                    # X / D solves row i when s_i * sum_j a_ij X_j == t_i D
                    nums, x_den = x
                    rows = zip(self._rows, scales, scaled)
                    if all(s * sum(map(mul, a, nums)) == t * x_den for (a, _), s, t in rows):
                        return x
            if past_bound:
                raise ArithmeticError(
                    "modular solve found no exact solution within the Hadamard bound"
                )
            rows = zip(residual, scales, self._rows)
            residual = [(r - s * sum(map(mul, a, y))) // m for r, s, (a, _) in rows]

    @cached_property
    def _norms(self) -> list[int]:
        """An integer bound above the Euclidean norm of each numerator row."""
        return [isqrt(sum(v * v for v in numerators)) + 1 for numerators, _ in self._rows]

    def _factor(self, den: int) -> tuple[int, list[list[int]]]:
        """(m, N^-1 mod m) for the numerator matrix N, at m = 2^61 - 1 (a
        prime) or the next odd modulus below it that is coprime to the
        right-hand side's denominator E = den and at which every pivot of N
        is a unit.  m need not be prime: lifting needs only N and the row
        scales, which divide E, invertible mod m, and rational reconstruction
        works for any m.  The first pair found is kept with the matrix and
        reused while its modulus is coprime to E.  Each modulus that fails
        for N asks the exact determinant, memoised by _bareiss, if it is 0.
        """
        if self._kept and gcd(den, self._kept[0]) == 1:
            return self._kept
        for m in range((1 << 61) - 1, 1, -2):
            if gcd(den, m) != 1:
                continue
            inverse = _inverse_mod([numerators for numerators, _ in self._rows], m)
            if inverse is not None:
                self._kept = self._kept or (m, inverse)
                return m, inverse
            if self.determinant() == 0:
                raise ValueError("matrix is singular")


# verify certifies new-m, classical, then new-s, whose matrix is new-m's;
# four matrices cover that order with room to spare
@lru_cache(maxsize=4)
def _bareiss(rows: tuple[tuple[tuple[int, ...], int], ...]) -> Fraction:
    """The determinant of the square matrix with cleared rows `rows`.

    Bareiss fraction-free elimination runs over the integer numerators
    (every division below is exact); the row denominators divide back out
    at the end.  After step k every entry of a row below the pivot is a
    minor bordering the leading (k+1)-square block, so a row that becomes
    all zero is a combination of the pivot rows and the determinant is 0
    without further steps.
    """
    n = len(rows)
    m = [list(numerators) for numerators, _ in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot, top = m[k][k], m[k][k + 1 :]
        # column k below the pivot is never read again
        for row in m[k + 1 :]:
            factor = row[k]
            tail = [(pivot * v - factor * t) // prev for v, t in zip(row[k + 1 :], top)]
            if not any(tail):
                return Fraction(0)
            row[k + 1 :] = tail
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], prod(den for _, den in rows))


def _inverse_mod(rows: list[tuple[int, ...]], m: int) -> list[list[int]] | None:
    """The inverse modulo m of the square integer matrix `rows`, by
    Gauss-Jordan elimination on [rows | I] with unit pivots, or None when a
    column has no unit left to pivot on.  That includes every m at which
    the matrix is singular; a composite m may also fail for an invertible
    one."""
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


def _reconstruct_vector(residues: list[int], m: int) -> tuple[list[int], int] | None:
    """(N, D): every residue read back as a fraction N_j / D, over the lcm
    D > 0 of their denominators, or None at the first that has none.

    Residue u reads back as the r/t with |r|, |t| <= sqrt(m/2) and
    r = u*t mod m (Wang's rational reconstruction: the extended Euclidean
    algorithm on m and u, stopped halfway); when it exists it is unique.
    The entries of a solution often share their denominator (Cramer's
    rule), so each residue is first scaled by the lcm D of the denominators
    found so far: when D * x_j is a small integer it is read off at once,
    with no Euclidean pass.  Past the Hadamard bound that shortcut can only
    give the true x_j; before it, the exact check catches a wrong one.
    """
    half = m // 2
    bound = isqrt(half)
    read, den = [], 1
    for u in residues:
        v = u * den % m
        if v > half:
            v -= m
        if abs(v) > bound:
            r0, r1, t0, t1 = m, u, 0, 1
            while r1 > bound:
                q, r = divmod(r0, r1)
                r0, r1 = r1, r
                t0, t1 = t1, t0 - q * t1
            if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
                return None
            den = lcm(den, t1)
            v = r1 * den // t1
        read.append((v, den))
    return [v * (den // d) for v, d in read], den


class VerificationReport(Record):
    """Outcome of the exact basis certification for one weight and kind.

    ``nonsingular`` (RatMatrix.nonsingular) is None only for the vacuous
    empty cusp basis.  ``constant_terms_vanish`` is None for the full-space
    kinds, where no vanishing is expected.  ``determinant`` is the exact
    value, computed on first read by calling `exact`; it is not a field.
    """

    weight: int
    kind: BasisKind
    element_count: int
    nonsingular: bool | None
    constant_terms_vanish: bool | None

    def __init__(self, weight, kind, element_count, nonsingular, constant_terms_vanish, exact=None):
        super().__init__(weight, kind, element_count, nonsingular, constant_terms_vanish)
        object.__setattr__(self, "_exact", exact)

    @cached_property
    def determinant(self) -> Fraction | None:
        """exact(), or None when there is no window."""
        return None if self._exact is None else self._exact()

    @property
    def confirmed(self) -> bool:
        return self.nonsingular is not False and self.constant_terms_vanish is not False


def verify_report(basis: Basis) -> VerificationReport:
    """Certify an already-built basis.

    The square matrix with one row per element, holding its coefficients
    over ``basis.window``, must be non-singular (RatMatrix.nonsingular).
    Cusp kind: every constant term must also vanish exactly.

    When they all vanish, the new-s matrix is certified through the rows
    G_2k and S_i - c_i * G_2k over a_0..a_n, whose determinant is a_0(G_2k)
    times the new-s one, for any c_i (see the module docstring); c_i is the
    element's correction, or 0 when it has none.  Untampered, those rows
    are new-m's matrix, whose residue determinant the memo usually holds.
    """
    count = len(basis.elements)
    vanish = None
    if basis.kind is BasisKind.NEW_S:
        vanish = all(el.series.numerators[0] == 0 for el in basis.elements)
    if not count:
        return VerificationReport(basis.weight, basis.kind, count, None, vanish)
    start, stop = basis.window.start, basis.window.stop
    series, a0 = [el.series for el in basis.elements], 1
    rows = [(s.numerators[start:stop], s.denominator) for s in series]
    if vanish:
        g = eisenstein(basis.weight, basis.precision)
        d, top, a0 = g.denominator, g.numerators[:stop], g.coefficient(0)
        rows = [(top, d)]
        for s, el in zip(series, basis.elements):
            c = getattr(el.descriptor, "c", 0)
            den = lcm(s.denominator, c.denominator * d)
            a, b = den // s.denominator, c.numerator * (den // (c.denominator * d))
            rows.append(([v * a - b * w for v, w in zip(s.numerators, top)], den))
    matrix = RatMatrix(rows)
    return VerificationReport(basis.weight, basis.kind, count, matrix.nonsingular(), vanish,
                              lambda: matrix.determinant() / a0)


@lru_cache(maxsize=2)
def _residue_window(weight: int, kind: BasisKind, modulus: int) -> RatMatrix:
    """Each `kind` descriptor realized mod `modulus` on the window from a_0,
    over 1.  Two are kept, so new-s after classical reuses new-m's."""
    descriptors = basis_descriptors(weight, kind)
    return RatMatrix([(d.realize(len(descriptors), modulus), 1) for d in descriptors])


def verify_basis(weight: int, kind: BasisKind | str) -> VerificationReport:
    """verify_report of the `kind` basis at the precision floor, certified
    mod m = CERTIFY_MODULUS on its cleared rows D_i * A_i (_residue_window);
    new-s on new-m's, as verify_report does, once its constant terms vanish
    exactly.  A constant term that does not cancel, or a zero residue, falls
    back to verify_report on the floor basis, as reading `determinant` does.
    """
    floor, kind = _precision_floor(weight), BasisKind(kind)

    def exact() -> VerificationReport:
        return verify_report(basis_for(weight, kind, floor))

    count, vanish, m = kind.dimension(weight), None, CERTIFY_MODULUS
    if kind is BasisKind.NEW_S:
        # a_0(G_u) a_0(G_v) + c a_0(G_{u+v}) == 0, over the integers
        descriptors = basis_descriptors(weight, kind)
        terms = [(d.c, *map(_constant_term, (d.u, d.v, d.weight))) for d in descriptors]
        vanish = all(pu * pv * c.denominator * qw + c.numerator * pw * qu * qv == 0
                     for c, (pu, qu), (pv, qv), (pw, qw) in terms)
        if not count:
            return VerificationReport(weight, kind, 0, None, vanish)
    window = _residue_window(weight, BasisKind.NEW_M if kind is BasisKind.NEW_S else kind, m)
    if vanish is False or window.determinant() % m == 0:
        return exact()
    return VerificationReport(weight, kind, count, True, vanish, lambda: exact().determinant)


class SpanError(ValueError):
    """The target series is not an exact combination of the basis elements."""

    def __init__(self, index: int, expected: Fraction, actual: Fraction):
        self.index = index
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"residual at coefficient index {index}: target has {expected}, "
            f"reconstruction gives {actual}"
        )


def _check_target_precision(target: QSeries) -> None:
    """A target needs 2 * dim_modular + 8 coefficients: the square window
    to solve on, then at least as many again to verify the solution on."""
    need = 2 * dimension_data(target.weight).dim_modular + 8
    if target.precision < need:
        raise ValueError(
            f"target precision {target.precision} too small: need >= {need} "
            f"coefficients to solve and then verify"
        )


def express(target: QSeries, basis: Basis) -> list[Fraction]:
    """Coordinates of `target` in `basis`, certified by over-verification.

    The square system on the target's numerators in ``basis.window`` is
    solved, and certified, by RatMatrix._solve; the integer numerators N
    over one denominator D it returns are then compared, over common
    denominators, against every other coefficient of the target, so the
    basis must be as long as the target.  Any mismatch raises SpanError
    carrying the first bad index: the input is not in the span, i.e. not a
    modular form of this weight.  Only then are the N_j / D built.
    """
    if target.weight != basis.weight:
        raise ValueError(
            f"target weight {target.weight} does not match basis weight {basis.weight}"
        )
    _check_target_precision(target)
    count = len(basis.elements)
    limit = target.precision
    start, stop = basis.window.start, basis.window.stop
    nums, den, scale = [], 1, 1
    if count:
        if basis.precision < limit:
            raise ValueError(
                f"basis precision {basis.precision} too small for expression: "
                f"rebuild with precision >= {limit}"
            )
        common, columns, matrix = basis._express_system
        nums, den = matrix._solve(target.numerators[start:stop], target.denominator)
        scale = den * common
    # the solve certified the window exactly; off it, with coordinates N / D
    # and t_j = T_j / E, sum(N * columns[j]) / (D * L) must equal T_j / E
    for j in [*range(start), *range(stop, limit)]:
        total = sum(map(mul, nums, columns[j])) if count else 0
        if total * target.denominator != target.numerators[j] * scale:
            raise SpanError(j, target.coefficient(j), Fraction(total, scale))
    return [Fraction(v, den) for v in nums]
