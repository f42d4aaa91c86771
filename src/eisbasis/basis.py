"""Bases for the weight-2k spaces of modular and cusp forms, plus the exact
linear algebra used to certify them and to express forms in coordinates.

Three families are built:

* ``new-m``      -- G_{2k} together with two-factor products G_u * G_v,
                    the factor weights stepping by 4 through the parity
                    class of 2k,
* ``new-s``      -- the same products, each corrected by an exact rational
                    multiple of G_{2k} so the constant term cancels,
* ``classical``  -- the monomials G_4^alpha * G_6^beta.

Construction shares its work.  The products G_u * G_v are cached per
precision, so new-s reuses the products new-m built; the powers of G_4 and
G_6 sit in one table per (weight, precision) that every classical basis
draws from, so a monomial costs a lookup plus at most one multiply.  Like
the eisenstein() cache, both live for the life of the process.

Certification never touches floating point: a family is confirmed as a
basis when its element count equals the space's dimension and the leading
square matrix of q-coefficients has nonzero exact determinant, computed by
fraction-free elimination on the series' integer numerators.  A form in
the weight-2k space vanishing in its first dim-many coefficients is zero,
so that pairing is non-degenerate and the determinant test is sound.

The new-s determinant is taken through new-m's matrix.  When every new-s
element S_i has a_0 = 0, the (n+1)-square matrix over a_0..a_n with rows
G_2k and S_i - c_i * G_2k becomes, after adding c_i times the first row
to row i, block-triangular with first column (a_0(G_2k), 0, ..., 0), so
its determinant is a_0(G_2k) times the new-s determinant over a_1..a_n.
That holds for any c_i (an element's correction, or 0 if it has none), so
it serves whenever the constant terms vanish; with c_i the cusp correction
the rows are the new-m products, whose entries are a few times smaller.
The last four determinants are kept, keyed by their exact integer rows, so
certifying new-s after new-m and classical, as verify does, repeats no
elimination.  Unlike the series caches the memo is bounded, and a hit
needs an identical integer matrix, so it never changes a determinant.

Expressing a form in coordinates solves the leading square window by p-adic
(Dixon) lifting on the target's integer numerators over their denominator
E.  Window row i, over d_i, is scaled by E / gcd(d_i, E), a divisor of E,
so one inverse of E unscales every row.  From the first express() on, the
basis keeps its window inverted modulo 2^61 - 1, or the next odd modulus
below it, coprime to E, at which every pivot is a unit, so each form costs
O(n^2) per digit of its coordinates in that base, read back by rational
reconstruction.  That may be wrong, so the solve returns only numerators
that satisfy every scaled row exactly, giving up past a Hadamard limit
taken in bits, and express() checks every other coefficient exactly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod
from operator import mul

from ._record import Record
from .arith import _check_weight, _is_int, dimension_data, sigma
from .eisenstein import eisenstein, eisenstein_product
from .qseries import QSeries, _as_fraction, _numerators


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

    def realize(self, precision: int) -> QSeries:
        return eisenstein(self.weight, precision)


class Product(Record):
    """The product G_u * G_v."""

    u: int
    v: int

    def label(self) -> str:
        return f"G_{self.u}*G_{self.v}"

    def realize(self, precision: int) -> QSeries:
        return eisenstein_product(self.u, self.v, precision)


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

    def realize(self, precision: int) -> QSeries:
        """A lookup in the shared G_4 and G_6 power tables, plus one
        multiply when both exponents are nonzero."""
        alpha, beta = self.alpha, self.beta
        if not beta:
            return _eisenstein_power(4, alpha, precision)
        if not alpha:
            return _eisenstein_power(6, beta, precision)
        return _eisenstein_power(4, alpha, precision) * _eisenstein_power(6, beta, precision)


# (weight, precision) -> {exponent: G_weight^exponent}, for the life of the
# process, like the eisenstein() cache
_power_tables: dict[tuple[int, int], dict[int, QSeries]] = {}


def _eisenstein_power(weight: int, exponent: int, precision: int) -> QSeries:
    """G_weight^exponent (exponent >= 1) from its shared power table, each
    missing power one multiply from the one below.  Entries are keyed by
    exponent, so a concurrent fill is idempotent: at worst two callers
    repeat a multiply and store the same value."""
    table = _power_tables.setdefault((weight, precision), {1: eisenstein(weight, precision)})
    for e in range(2, exponent + 1):
        if e not in table:
            table[e] = table[e - 1] * table[1]
    return table[exponent]


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
    no series realized; only the cusp corrections cost anything (the
    constant terms sigma(r, 0), from Bernoulli numbers).

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
    -a_0(G_u) a_0(G_v) / a_0(G_{u+v}), read from the constant terms
    sigma(r, 0) that eisenstein() uses, once both are checked as weights."""
    _check_weight(u)
    _check_weight(v)
    return -sigma(u - 1, 0) * sigma(v - 1, 0) / sigma(u + v - 1, 0)


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


class RatMatrix:
    """Dense matrix of exact rationals with an exact determinant and a
    linear solve that is modular inside but certified exactly.

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
            if bool in map(type, (den, *numerators)):
                raise TypeError("bool values are not allowed; use Fraction or int")
            if den < 1:
                raise ValueError(f"row denominators must be positive, got {den}")
            # gcd takes integers only: a float entry raises TypeError here
            g = gcd(den, *numerators)
            cleared.append((tuple([v // g for v in numerators]), den // g))
        self._rows = tuple(cleared)
        self._kept = None

    @property
    def rows(self) -> int:
        return len(self._rows)

    def row_list(self) -> list[list[Fraction]]:
        return [[Fraction(v, den) for v in numerators] for numerators, den in self._rows]

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
        gate, and _solve takes their numerators over their lcm E."""
        if len(rhs) != self.rows:
            raise ValueError(f"right-hand side length {len(rhs)} does not match {self.rows} rows")
        return self._solve(*_numerators([_as_fraction(b) for b in rhs]))[0]

    def _solve(self, targets, den: int) -> tuple[list[Fraction], list[int], int]:
        """x with self * x = targets / E (integers over one E = den > 0), by
        p-adic lifting certified exactly, as (x, N, D) with x = N / D.

        Row i, numerators N_i over d_i, times s_i = E / gcd(d_i, E) is the
        integer row s_i N_i x = t_i = targets_i * d_i / gcd(d_i, E).  Every
        s_i divides E, so with N inverted once modulo an m coprime to E (see
        _factor), s_i^-1 = gcd(d_i, E) * E^-1 mod m: one modular inverse per
        solve.  Each base-m digit y of x costs O(n^2): y solves the system
        mod m, and (t - diag(s) N y) / m is the next right-hand side (Dixon
        lifting).  x is read back by rational reconstruction after
        geometrically more digits, and returned only if it satisfies every
        scaled row exactly, which certifies the rows.  Past twice a squared
        Hadamard bound on Cramer's rule for the scaled system,
        2 * (prod_i b_i)^2 with b_i = s_i |N_i| + |t_i|, reconstruction
        cannot fail for a nonsingular matrix, so a candidate failing there
        is ArithmeticError.  The limit is taken in bits, as
        m^k >= 2^(2 * sum_i bits(b_i) + 1), at most 2n bits past the bound.
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
                    # with x = N / D over one denominator, exactly
                    # s_i * sum_j a_ij N_j == t_i D for every row i
                    nums, x_den = _numerators(x)
                    rows = zip(self._rows, scales, scaled)
                    if all(s * sum(map(mul, a, nums)) == t * x_den for (a, _), s, t in rows):
                        return x, nums, x_den
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


def _reconstruct(u: int, m: int) -> Fraction | None:
    """The fraction r/t with |r|, |t| <= sqrt(m/2) and r = u*t mod m, or
    None if there is none (Wang's rational reconstruction: the extended
    Euclidean algorithm on m and u, stopped halfway).  When it exists it is
    unique."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _reconstruct_vector(residues: list[int], m: int) -> list[Fraction] | None:
    """Every residue reconstructed, or None at the first that fails.

    The entries of a solution often share their denominator (Cramer's
    rule), so each residue is first scaled by the lcm T of the denominators
    found so far: when T * x_j is a small integer it is read off at once,
    with no Euclidean pass.  Past the Hadamard bound that shortcut can only
    give the true x_j; before it, the exact check catches a wrong one.
    """
    half = m // 2
    bound = isqrt(half)
    x, den = [], 1
    for u in residues:
        v = u * den % m
        if v > half:
            v -= m
        if abs(v) <= bound:
            x.append(Fraction(v, den))
            continue
        value = _reconstruct(u, m)
        if value is None:
            return None
        x.append(value)
        den = lcm(den, value.denominator)
    return x


class VerificationReport(Record):
    """Outcome of the exact basis certification for one weight and kind.

    ``determinant`` is None only for the vacuous empty cusp basis.
    ``constant_terms_vanish`` is None for the full-space kinds, where no
    vanishing is expected.
    """

    weight: int
    kind: BasisKind
    element_count: int
    determinant: Fraction | None
    constant_terms_vanish: bool | None

    @property
    def confirmed(self) -> bool:
        return self.determinant != 0 and self.constant_terms_vanish is not False


def verify_report(basis: Basis) -> VerificationReport:
    """Certify an already-built basis.

    The square matrix with one row per element, holding its coefficients
    over ``basis.window``, must be non-singular.  Cusp kind: every constant
    term must also vanish exactly.

    When they all vanish, the new-s determinant is that of the rows G_2k
    and S_i - c_i * G_2k over a_0..a_n divided by a_0(G_2k), for any c_i
    (see the module docstring); c_i is the element's correction, or 0 when
    it has none.  Untampered, those rows are new-m's matrix, which the
    determinant memo usually holds already.
    """
    count = len(basis.elements)
    vanish = None
    if basis.kind is BasisKind.NEW_S:
        vanish = all(el.series.numerators[0] == 0 for el in basis.elements)
    det = None
    if count:
        start, stop = basis.window.start, basis.window.stop
        series, a0 = [el.series for el in basis.elements], 1
        if vanish:
            g = eisenstein(basis.weight, basis.precision)
            corrections = [getattr(el.descriptor, "c", 0) for el in basis.elements]
            series = [g] + [s - c * g for s, c in zip(series, corrections)]
            start, a0 = 0, g.coefficient(0)
        rows = [(s.numerators[start:stop], s.denominator) for s in series]
        det = RatMatrix(rows).determinant() / a0
    return VerificationReport(basis.weight, basis.kind, count, det, vanish)


def verify_basis(weight: int, kind: BasisKind | str) -> VerificationReport:
    """Certify the `kind` basis at `weight`, built at the precision floor:
    the report reads only the square window, so longer series add nothing."""
    return verify_report(basis_for(weight, kind, _precision_floor(weight)))


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
    solved, and certified, by RatMatrix._solve; its integer numerators are
    then compared, over common denominators, against every other
    coefficient of the target, so the basis must be as long as the target.
    Any mismatch raises SpanError carrying the first bad index: the input
    is not in the span, i.e. not a modular form of this weight.
    """
    if target.weight != basis.weight:
        raise ValueError(
            f"target weight {target.weight} does not match basis weight {basis.weight}"
        )
    _check_target_precision(target)
    count = len(basis.elements)
    limit = target.precision
    start, stop = basis.window.start, basis.window.stop
    coords, nums, scale = [], [], 1
    if count:
        if basis.precision < limit:
            raise ValueError(
                f"basis precision {basis.precision} too small for expression: "
                f"rebuild with precision >= {limit}"
            )
        common, columns, matrix = basis._express_system
        coords, nums, den = matrix._solve(target.numerators[start:stop], target.denominator)
        scale = den * common
    # the solve certified the window exactly; off it, with coords = N / D and
    # t_j = T_j / E, sum(N * columns[j]) / (D * L) must equal T_j / E
    for j in [*range(start), *range(stop, limit)]:
        total = sum(map(mul, nums, columns[j])) if count else 0
        if total * target.denominator != target.numerators[j] * scale:
            raise SpanError(j, target.coefficient(j), Fraction(total, scale))
    return coords
