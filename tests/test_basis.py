import random
import re
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import pytest

from eisbasis import (
    Basis,
    BasisElement,
    QSeries,
    RatMatrix,
    SpanError,
    basis_for,
    classical_basis,
    cusp_basis,
    cusp_correction,
    dimension_data,
    eisenstein,
    express,
    new_basis,
    verify_basis,
    verify_report,
)
from eisbasis import basis as basis_module
from eisbasis.arith import dimension_oracle, sigma
from eisbasis.basis import (
    CERTIFY_MODULUS,
    BasisKind,
    CuspCombo,
    Monomial,
    Product,
    Single,
    basis_descriptors,
)
from eisbasis.cli import basis_from_document, basis_to_document
from helpers import (
    bernoulli_ratio_correction,
    bernoulli_table,
    delta_series,
    det_leibniz,
    eichler_selberg_trace,
    gauss_solve,
    hecke,
    inverse_mod,
    hecke_traces,
    rat_matrix,
    trace_formula_mismatches,
)

# the first modulus the modular solve works with, a prime
FIRST_PRIME = 2**61 - 1


def counted_calls(monkeypatch, name):
    """Replace basis_module.<name> by a wrapper that records the arguments
    of every call; returns the list it records into."""
    calls = []
    function = getattr(basis_module, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(basis_module, name, counted)
    return calls


def factor_moduli(monkeypatch) -> list[int]:
    """Record the modulus of every _eliminate call that inverts a window for
    a solve: the tracked calls, less those the exact determinant makes at
    CERTIFY_MODULUS; returns the list it records into."""
    moduli = []
    eliminate = basis_module._eliminate

    def recorded(rows, m, track=False):
        if track and m != CERTIFY_MODULUS:
            moduli.append(m)
        return eliminate(rows, m, track)

    monkeypatch.setattr(basis_module, "_eliminate", recorded)
    return moduli


def determinant_calls(monkeypatch) -> list[bool]:
    """Record every RatMatrix.determinant() call: True when each entry of
    the matrix is an integer in [0, CERTIFY_MODULUS), as in a residue
    matrix, False for an exact elimination."""
    calls = []
    determinant = RatMatrix.determinant

    def recorded(self):
        entries = [v for row in self.row_list() for v in row]
        calls.append(all(v.denominator == 1 and 0 <= v < CERTIFY_MODULUS for v in entries))
        return determinant(self)

    monkeypatch.setattr(RatMatrix, "determinant", recorded)
    return calls


class TestDescriptors:
    def test_weight_36_lists_the_expected_products(self):
        labels = [d.label() for d in basis_descriptors(36, "new-m")]
        assert labels == ["G_36", "G_4*G_32", "G_8*G_28", "G_12*G_24"]

    def test_weight_4_has_no_products(self):
        assert basis_descriptors(4, "new-m") == [Single(4)]

    def test_weight_38_uses_the_odd_parity_branch(self):
        assert basis_descriptors(38, "new-m") == [Single(38), Product(6, 32), Product(10, 28)]

    def test_count_matches_dimension_up_to_120(self):
        for w in range(4, 122, 2):
            assert dimension_data(w).dim_modular == dimension_oracle(w)
            for kind in BasisKind:
                expected = dimension_oracle(w) - (kind is BasisKind.NEW_S)
                assert len(basis_descriptors(w, kind)) == expected, (w, kind)

    def test_factor_weights_legal_up_to_400(self):
        for w in range(4, 402, 2):
            for d in basis_descriptors(w, "new-m")[1:]:
                assert d.u >= 4 and d.v >= 4 and d.u + d.v == w

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            basis_descriptors(5, "new-m")


class TestCuspCorrections:
    def test_weight_12_constant(self):
        assert cusp_correction(4, 8) == Fraction(-91, 110560)

    def test_weight_36_first_constant(self):
        assert cusp_correction(4, 32) == Fraction(
            -1479565184909325423, 286310154497221833818240
        )

    def test_matches_the_bernoulli_ratio_formula_up_to_240(self):
        table = bernoulli_table(240)
        for w in range(8, 242, 2):
            for u in range(4, w - 2, 2):
                assert cusp_correction(u, w - u) == bernoulli_ratio_correction(u, w - u, table)

    def test_constant_terms_cancel_exactly(self):
        for w in range(4, 62, 2):
            for el in cusp_basis(w).elements:
                assert el.series.coefficient(0) == 0

    def test_a_constant_term_that_does_not_cancel_is_an_arithmetic_error(self):
        combo = CuspCombo(4, 8, cusp_correction(4, 8) + 1)
        with pytest.raises(ArithmeticError, match=r"^constant term failed to cancel for G_4\*G_8 "):
            combo.realize(16)

    def test_empty_at_weight_4(self):
        basis = cusp_basis(4)
        assert basis.elements == ()
        assert basis.kind is BasisKind.NEW_S

    def test_precision_floor_enforced(self):
        # every constructor refuses a precision below dim_cusp + 2
        for build in (new_basis, cusp_basis, classical_basis):
            with pytest.raises(ValueError, match="^precision 3 too small for weight 36: need >= 5$"):
                build(36, 3)

    @pytest.mark.parametrize(
        "build, weight, precision, bad",
        [
            (classical_basis, 24, 16, 16.0),
            (new_basis, 12, 16, 16.0),
            (cusp_basis, 24, 16, 16.0),
            (classical_basis, 24, 23, 23.0),
            # the type is checked before the floor comparison could raise TypeError
            (new_basis, 12, 16, "16"),
            # a descriptor realized on its own reads the shared series table,
            # whose entry for the int precision must not answer the float
            (lambda weight, p: Single(weight).realize(p), 12, 16, 16.0),
            (lambda weight, p: Monomial(weight // 4, 0).realize(p), 12, 16, 16.0),
            (lambda weight, p: Product(4, 8).realize(p), 12, 16, 16.0),
        ],
    )
    def test_precision_that_is_not_an_int_is_rejected_whether_or_not_its_int_basis_was_built(
        self, build, weight, precision, bad
    ):
        message = f"^precision must be a positive integer, got {bad}$"
        with pytest.raises(ValueError, match=message):
            build(weight, bad)
        build(weight, precision)
        with pytest.raises(ValueError, match=message):
            build(weight, bad)

    def test_a_rejected_float_precision_evicts_no_series_table(self):
        # a float precision is refused before a table is made for it, so the
        # two tables kept stay those of the last builds
        table = basis_module._table
        new_basis(40)
        for realize, bad in ((Product(4, 8).realize, 16.0), (Monomial(3, 0).realize, 17.0)):
            with pytest.raises(ValueError, match=f"^precision must be a positive integer, got {bad}$"):
                realize(bad)
        misses = table.cache_info().misses
        new_basis(40)
        assert table.cache_info().misses == misses

    def test_basis_for_calls_each_builder_by_its_module_name(self, monkeypatch):
        # the benchmark's tracer records builds by rebinding these names
        builders = {"new-m": "new_basis", "new-s": "cusp_basis", "classical": "classical_basis"}
        calls = {name: counted_calls(monkeypatch, name) for name in builders.values()}
        for kind in builders:
            assert basis_for(36, kind, 8).kind is BasisKind(kind)
        assert calls == {name: [(36, 8)] for name in builders.values()}


class TestClassicalBasis:
    @pytest.mark.parametrize(
        "weight, pairs",
        [
            (12, [(3, 0), (0, 2)]),
            (4, [(1, 0)]),
            (36, [(9, 0), (6, 2), (3, 4), (0, 6)]),
            (10, [(1, 1)]),
        ],
    )
    def test_exponent_enumeration(self, weight, pairs):
        assert [(d.alpha, d.beta) for d in basis_descriptors(weight, "classical")] == pairs

    def test_monomial_realization_matches_direct_powers(self):
        # the shared power tables against each monomial built on its own
        for basis in [classical_basis(12, 8)] + [classical_basis(w) for w in range(4, 74, 2)]:
            g4, g6 = eisenstein(4, basis.precision), eisenstein(6, basis.precision)
            for el in basis.elements:
                alpha, beta = el.descriptor.alpha, el.descriptor.beta
                if alpha and beta:
                    expected = g4**alpha * g6**beta
                else:
                    expected = g4**alpha if alpha else g6**beta
                assert el.series == expected, el.descriptor

    def test_shared_tables_match_fresh_products_as_precision_moves(self):
        # the series tables, powers and products alike, are shared across
        # calls; an entry keyed without its precision would come back at
        # the wrong length or with the wrong coefficients
        weight = 48
        for precision in (16, 24, 40, 24, 16, 12):

            def fresh(w):
                return QSeries(w, tuple(sigma(w - 1, m) for m in range(precision)))

            g4, g6 = fresh(4), fresh(6)
            for el in classical_basis(weight, precision).elements:
                alpha, beta = el.descriptor.alpha, el.descriptor.beta
                if alpha and beta:
                    expected = g4**alpha * g6**beta
                else:
                    expected = g4**alpha if alpha else g6**beta
                assert el.series == expected, (precision, el.descriptor)
            new_m = new_basis(weight, precision).elements
            assert new_m[0].series == fresh(weight)
            for el in new_m[1:]:
                expected = fresh(el.descriptor.u) * fresh(el.descriptor.v)
                assert el.series == expected, (precision, el.descriptor)
            for el in cusp_basis(weight, precision).elements:
                u, v, c = el.descriptor.u, el.descriptor.v, el.descriptor.c
                expected = fresh(u) * fresh(v) + c * fresh(weight)
                assert el.series == expected, (precision, el.descriptor)

    def test_builds_keep_series_only_in_the_bounded_table(self, monkeypatch):
        # no build fills eisenstein()'s unbounded cache, and at most two
        # tables are held however many weights are built
        size = eisenstein.cache_info().currsize
        for weight in range(4, 122, 2):
            for kind in BasisKind:
                basis_for(weight, kind)
                assert basis_module._table.cache_info().currsize <= 2, (weight, kind)
        assert eisenstein.cache_info().currsize == size
        # new-s reads the products and G_96 new-m left in the table at its
        # precision, so it multiplies no series of its own
        new_basis(96)
        calls = counted_calls(monkeypatch, "_times")
        cusp_basis(96)
        assert calls == []

    def test_labels(self):
        assert [el.descriptor.label() for el in classical_basis(36, 6).elements] == [
            "G_4^9",
            "G_4^6*G_6^2",
            "G_4^3*G_6^4",
            "G_6^6",
        ]
        assert Monomial(1, 1).label() == "G_4*G_6"


class TestRatMatrix:
    def test_identity_determinant(self):
        identity = rat_matrix([[int(i == j) for j in range(3)] for i in range(3)])
        assert identity.determinant() == 1
        assert identity.nonsingular()

    def test_weight_12_block_determinant(self):
        assert verify_report(new_basis(12)).determinant == Fraction(1, 17472)

    def test_repeated_row_is_singular(self):
        m = rat_matrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
        assert m.determinant() == 0
        assert m.nonsingular() is False

    def test_a_unit_residue_certifies_without_the_exact_determinant(self, monkeypatch):
        calls = determinant_calls(monkeypatch)
        assert rat_matrix([[2, 1], [-1, 3]]).nonsingular() is True
        assert calls == [True]

    def test_a_determinant_divisible_by_the_modulus_takes_the_exact_fallback(self, monkeypatch):
        # det = m is 0 mod m: the residue proves nothing, the exact value decides
        m = CERTIFY_MODULUS
        calls = determinant_calls(monkeypatch)
        assert rat_matrix([[m, 0], [0, 1]]).nonsingular() is True
        assert calls == [True, False]
        calls.clear()
        assert rat_matrix([[m, 2 * m], [1, 2]]).nonsingular() is False
        assert calls == [True, False]

    def test_row_denominators_divisible_by_the_modulus_do_not_matter(self):
        # the certificate reads the cleared numerators, not the entries
        m = CERTIFY_MODULUS
        assert rat_matrix([[Fraction(1, m), 0], [0, Fraction(2, m)]]).nonsingular() is True
        assert rat_matrix([[Fraction(1, m), 1], [Fraction(1, m), 1]]).nonsingular() is False

    def test_takes_no_modulus(self):
        # residue matrices are internal: RatMatrix._residues
        with pytest.raises(TypeError):
            RatMatrix([([1], 1)], CERTIFY_MODULUS)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            rat_matrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_floats_and_ragged_rows(self):
        with pytest.raises(TypeError):
            RatMatrix([([0.5], 1)])
        # a float between integer ends would pass the content's divmod
        with pytest.raises(TypeError, match="^float values are not allowed"):
            RatMatrix([([2, 4.0], 2), ([0, 1], 1)])
        with pytest.raises(ValueError):
            RatMatrix([([1, 2], 1), ([3], 1)])
        with pytest.raises(ValueError):
            RatMatrix([])
        for den in (0, -2):
            with pytest.raises(ValueError, match="denominator"):
                RatMatrix([([1], den)])
        # bools are ints to gcd, but refused as everywhere else
        message = "^bool values are not allowed; use Fraction or int$"
        for rows in (
            [([True, 0], 1), ([0, 1], 1)],
            [([1, 0], 1), ([0, 1], True)],
            [([True, 0], 1), ([0, 1], True)],
            [([1, False], 1), ([0, 1], 1)],
        ):
            with pytest.raises(TypeError, match=message):
                RatMatrix(rows)

    def test_matches_permutation_expansion(self):
        rng = random.Random(1159)
        for n in (1, 2, 3, 4):
            for _ in range(12):
                rows = [
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
                    for _ in range(n)
                ]
                assert rat_matrix(rows).determinant() == det_leibniz(rows)
                assert rat_matrix(rows).nonsingular() == (det_leibniz(rows) != 0)

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_dependent_row_matches_permutation_expansion(self, position):
        # the elimination stops at the first row that clears to zero; a
        # combination of two other rows must give 0 wherever it sits
        rng = random.Random(4241)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                rows = [
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
                    for _ in range(n - 1)
                ]
                i, j = rng.randrange(n - 1), rng.randrange(n - 1)
                a, b = Fraction(rng.randint(-4, 4), rng.randint(1, 4)), rng.randint(-3, 3)
                combination = [a * x + b * y for x, y in zip(rows[i], rows[j])]
                index = {"first": 0, "middle": (n - 1) // 2, "last": n - 1}[position]
                rows.insert(index, combination)
                assert det_leibniz(rows) == 0
                assert rat_matrix(rows).determinant() == 0
                assert rat_matrix(rows).nonsingular() is False

    def test_sparse_matrices_match_permutation_expansion(self):
        # mostly-zero rows often clear to zero in part without the matrix
        # being singular
        rng = random.Random(8191)
        for n in (2, 3, 4, 5):
            for _ in range(40):
                rows = [
                    [Fraction(rng.choice((0, 0, 0, rng.randint(-3, 3))), rng.randint(1, 3))
                     for _ in range(n)]
                    for _ in range(n)
                ]
                assert rat_matrix(rows).determinant() == det_leibniz(rows)
                assert rat_matrix(rows).nonsingular() == (det_leibniz(rows) != 0)

    def test_pivoting_handles_leading_zeros(self):
        m = rat_matrix([[0, 1], [1, 0]])
        assert m.determinant() == -1
        assert m.nonsingular()

    def test_solve_round_trip(self):
        rng = random.Random(74207281)
        for n in (1, 2, 3, 4, 5):
            for _ in range(8):
                rows = [
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
                    for _ in range(n)
                ]
                m = rat_matrix(rows)
                if m.determinant() == 0:
                    continue
                x = [Fraction(rng.randint(-7, 7), rng.randint(1, 7)) for _ in range(n)]
                rhs = [sum(rows[i][j] * x[j] for j in range(n)) for i in range(n)]
                assert m.solve(rhs) == x

    def test_solve_singular_raises(self):
        with pytest.raises(ValueError):
            rat_matrix([[1, 2], [2, 4]]).solve([1, 1])
        with pytest.raises(ValueError, match="singular"):
            rat_matrix([[1, 2, 3], [4, 5, 6], [5, 7, 9]]).solve([1, 2, 3])

    def test_solve_matches_fraction_elimination(self):
        rng = random.Random(2203)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(10):
                rows = [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                    for _ in range(n)
                ]
                rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                if rat_matrix(rows).determinant() == 0:
                    continue
                assert rat_matrix(rows).solve(rhs) == gauss_solve(rows, rhs)

    def test_solve_rejects_string_rhs(self):
        with pytest.raises(TypeError, match="^str values are not allowed; use Fraction or int$"):
            rat_matrix([[2, 0], [0, 1]]).solve(["1/2", 3])

    def test_solve_rejects_float_rhs(self):
        with pytest.raises(TypeError):
            rat_matrix([[2, 0], [0, 1]]).solve([0.5, 1.0])
        with pytest.raises(TypeError):
            rat_matrix([[2, 0], [0, 1]]).solve([Fraction(1, 2), 1.0])
        with pytest.raises(TypeError, match="^bool values are not allowed; use Fraction or int$"):
            rat_matrix([[2, 0], [0, 1]]).solve([True, 1])

    def test_moduli_start_at_2_to_61_minus_1_and_step_by_minus_2(self, monkeypatch):
        # the matrix is singular modulo each of the first four moduli, three
        # of them composite, and is inverted at the fifth, also composite
        moduli = [FIRST_PRIME - 2 * i for i in range(5)]
        product = prod(moduli[:4])
        factorisations = factor_moduli(monkeypatch)
        assert rat_matrix([[product, 0], [0, 1]]).solve([1, 1]) == [Fraction(1, product), 1]
        assert factorisations == moduli

    def test_solve_at_an_invertible_modulus_with_no_unit_pivot(self, monkeypatch):
        # 2^61 - 3 = 29 * q, and b = q / 29 mod 2^61 - 1, so the matrix is
        # singular mod 2^61 - 1; mod 2^61 - 3 its determinant is a unit but
        # neither 29 nor q is, so the solve moves on to 2^61 - 5
        q = (FIRST_PRIME - 2) // 29
        rows = [[29, 1], [q, q * pow(29, -1, FIRST_PRIME) % FIRST_PRIME]]
        assert gcd(29 * rows[1][1] - q, FIRST_PRIME - 2) == 1
        factorisations = factor_moduli(monkeypatch)
        bareiss = counted_calls(monkeypatch, "_bareiss")
        assert rat_matrix(rows).solve([1, 1]) == gauss_solve(rows, [1, 1])
        assert factorisations == [FIRST_PRIME, FIRST_PRIME - 2, FIRST_PRIME - 4]
        # the determinant is eliminated once, then read from the matrix
        assert len(bareiss) == 1

    def test_rhs_denominator_sharing_a_factor_with_the_modulus(self, monkeypatch):
        # singular mod 2^61 - 1, the matrix keeps 2^61 - 3 = 29 * q; a row
        # scale of 29 skips that modulus, both kept and in the search
        p = FIRST_PRIME
        matrix = rat_matrix([[p, 0], [0, 1]])
        factorisations = factor_moduli(monkeypatch)
        assert matrix.solve([1, 1]) == [Fraction(1, p), 1]
        assert matrix.solve([Fraction(1, 29), 1]) == [Fraction(1, 29 * p), 1]
        assert factorisations == [p, p - 2, p, p - 4]

    def test_solve_with_the_first_prime_as_a_denominator(self):
        p = FIRST_PRIME
        rows = [[Fraction(1, p), Fraction(2)], [Fraction(3), Fraction(5, p)]]
        x = [Fraction(7, 3), Fraction(-2, p)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        assert rat_matrix(rows).solve(rhs) == x
        assert rat_matrix(rows).solve([Fraction(1, p), Fraction(1, p)]) == gauss_solve(
            rows, [Fraction(1, p), Fraction(1, p)]
        )

    def test_solve_singular_mod_the_first_prime_only(self, monkeypatch):
        p = FIRST_PRIME
        calls = []
        determinant = RatMatrix.determinant

        def counted(self):
            calls.append(self.rows)
            return determinant(self)

        monkeypatch.setattr(RatMatrix, "determinant", counted)
        assert rat_matrix([[p, 0], [0, 1]]).solve([1, 1]) == [Fraction(1, p), 1]
        assert calls == [2]  # singularity is decided once, exactly
        calls.clear()
        with pytest.raises(ValueError, match="singular"):
            rat_matrix([[p, 2 * p], [1, 2]]).solve([1, 1])
        assert calls == [2]

    def test_solve_singular_mod_two_primes_eliminates_once(self, monkeypatch):
        # each modulus at which N is singular asks for the determinant; the
        # matrix keeps it, so every ask after the first eliminates nothing
        p1, p2 = FIRST_PRIME, FIRST_PRIME - 2
        matrix = rat_matrix([[p1 * p2, 0], [0, 1]])
        eliminations = counted_calls(monkeypatch, "_eliminate")
        bareiss = counted_calls(monkeypatch, "_bareiss")
        assert matrix.solve([1, 1]) == [Fraction(1, p1 * p2), 1]
        assert len(bareiss) == 1
        assert [args[1] for args in eliminations] == [p1, CERTIFY_MODULUS, p2, p2 - 2]

    def test_solve_needs_several_digits_for_500_bit_numerators(self, monkeypatch):
        rng = random.Random(500)
        rows = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(4)]
        assert rat_matrix(rows).determinant() != 0
        x = [Fraction(rng.getrandbits(500) | 1 << 499, rng.randint(1, 10**6)) for _ in range(4)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        factorisations, moduli = factor_moduli(monkeypatch), []
        reconstruct = basis_module._reconstruct_vector

        def recorded(residues, m):
            moduli.append(m)
            return reconstruct(residues, m)

        monkeypatch.setattr(basis_module, "_reconstruct_vector", recorded)
        assert rat_matrix(rows).solve(rhs) == x
        # a 500-bit numerator cannot be read back from fewer than 9 base-p
        # digits, and every digit is lifted with the one factorisation
        assert factorisations == [FIRST_PRIME]
        assert moduli[-1] >= FIRST_PRIME**9
        assert all(FIRST_PRIME ** round(m.bit_length() / 61) == m for m in moduli)

    def test_rhs_with_the_working_prime_as_a_denominator(self, monkeypatch):
        # row scale p: the solve skips p for the next modulus, and the kept
        # factorisation stays the first modulus's
        p, second = FIRST_PRIME, FIRST_PRIME - 2
        rows = [[1, 2], [3, 4]]
        matrix = rat_matrix(rows)
        assert matrix.solve([1, 1]) == gauss_solve(rows, [1, 1])
        factorisations = factor_moduli(monkeypatch)
        for rhs in ([Fraction(1, p), 1], [Fraction(3, 7), Fraction(5, p * p)]):
            assert matrix.solve(rhs) == gauss_solve(rows, rhs)
        assert factorisations == [second, second]
        assert matrix.solve([5, Fraction(1, 3)]) == gauss_solve(rows, [5, Fraction(1, 3)])
        assert len(factorisations) == 2

    def test_target_denominator_a_multiple_of_the_kept_modulus(self, monkeypatch):
        # G_12 / (2^61 - 1) + Delta lies over a multiple of the modulus the
        # window keeps, so the solve factors it at the next one, 2^61 - 3,
        # and the kept factorisation serves the next target again
        basis = new_basis(12, 21)
        delta = delta_series(21)
        coords = [Fraction(-91, 600), Fraction(2764, 15)]
        assert express(delta, basis) == coords
        factorisations = factor_moduli(monkeypatch)
        target = eisenstein(12, 21) / FIRST_PRIME + delta
        assert target.denominator % FIRST_PRIME == 0
        assert express(target, basis) == [coords[0] + Fraction(1, FIRST_PRIME), coords[1]]
        assert factorisations == [FIRST_PRIME - 2]
        assert express(delta, basis) == coords
        assert len(factorisations) == 1

    def test_one_modular_inverse_per_solve(self, monkeypatch):
        # rows over several denominators and a right-hand side over another:
        # once the window is factored, a solve takes only the inverse of E
        rows = [[Fraction(1, 6), 2, 3], [4, Fraction(5, 9), 6], [7, 8, Fraction(10, 21)]]
        matrix = rat_matrix(rows)
        matrix.solve([1, 2, 3])
        inverses = []

        def counted(base, exponent, modulus):
            inverses.append(base)
            return pow(base, exponent, modulus)

        monkeypatch.setattr(basis_module, "pow", counted, raising=False)
        for rhs in ([Fraction(1, 4), 5, Fraction(-2, 35)], [Fraction(3, 10), 0, 7]):
            inverses.clear()
            assert matrix.solve(rhs) == gauss_solve(rows, rhs)
            assert inverses == [lcm(*[Fraction(b).denominator for b in rhs])]

    def test_integer_core_matches_the_rational_gate(self):
        # targets over a denominator that is not their lcm give the same x,
        # as its numerators over the lcm of its denominators
        rows = [[Fraction(1, 3), 2], [5, Fraction(7, 4)]]
        matrix = rat_matrix(rows)
        rhs = [Fraction(1, 2), Fraction(-3, 5)]
        x = matrix.solve(rhs)
        for scale in (1, 3, 4, 12, FIRST_PRIME):
            nums, den = matrix._solve([5 * scale, -6 * scale], 10 * scale)
            coords = [Fraction(v, den) for v in nums]
            assert coords == x == gauss_solve(rows, rhs)
            assert den == lcm(*[v.denominator for v in x])

    def test_shared_denominator_shortcut_past_the_wang_bound(self, monkeypatch):
        # p * q is above the one-digit Wang bound 2^30, so 1 / (p * q) can be
        # read back at the first modulus only as 1 over the lcm of the
        # denominators found before it; Wang alone gives a wrong fraction
        p, q = 1048573, 1048571
        read = basis_module._reconstruct_vector
        residues = [pow(d, -1, FIRST_PRIME) for d in (p, q, p * q)]
        assert read(residues, FIRST_PRIME) == ([q, p, 1], p * q)
        assert read(residues[2:], FIRST_PRIME) == ([-2097168], 102760207)
        calls = counted_calls(monkeypatch, "_reconstruct_vector")
        x = rat_matrix([[p, 0, 0], [0, q, 0], [0, 0, p * q]]).solve([1, 1, 1])
        assert x == [Fraction(1, p), Fraction(1, q), Fraction(1, p * q)]
        assert [m for _, m in calls] == [FIRST_PRIME]

    def test_solve_one_by_one(self):
        assert rat_matrix([[3]]).solve([5]) == [Fraction(5, 3)]
        assert rat_matrix([[Fraction(-2, 7)]]).solve([Fraction(4, 9)]) == [Fraction(-14, 9)]
        assert rat_matrix([[FIRST_PRIME]]).solve([1]) == [Fraction(1, FIRST_PRIME)]
        assert rat_matrix([[7]]).solve([0]) == [0]
        with pytest.raises(ValueError, match="singular"):
            rat_matrix([[0]]).solve([1])

    def test_solve_never_returns_an_unchecked_answer(self, monkeypatch):
        # a reconstruction that is always wrong must end in ArithmeticError at
        # the Hadamard bound, neither looping on nor returning its candidate
        monkeypatch.setattr(
            basis_module, "_reconstruct_vector", lambda residues, m: ([0] * len(residues), 1)
        )
        with pytest.raises(ArithmeticError):
            rat_matrix([[1, 2], [3, 4]]).solve([1, 1])

    @pytest.mark.parametrize(
        "rows, rhs",
        [
            ([[1, Fraction(2, 3)], [3, 4]], [Fraction(1, 3), Fraction(-5, 7)]),
            (
                # a Vandermonde matrix with row i over i + 1
                [[Fraction((i + 2) ** j, i + 1) for j in range(6)] for i in range(6)],
                [Fraction(1, 2), 3, Fraction(-7, 9), Fraction(10**30, 11), 0, Fraction(5, 12)],
            ),
        ],
    )
    def test_solve_gives_up_just_past_the_hadamard_bound(self, monkeypatch, rows, rhs):
        # with every reconstruction wrong, the last try must come past
        # 2 * (prod_i (s_i |N_i| + |t_i|))^2, where reconstruction is sure to
        # succeed, and at most one digit later than the first modulus past it
        moduli = []

        def wrong(residues, m):
            moduli.append(m)
            return [0] * len(residues), 1

        monkeypatch.setattr(basis_module, "_reconstruct_vector", wrong)
        with pytest.raises(ArithmeticError):
            rat_matrix(rows).solve(rhs)
        # the scaled system: row i, cleared to N_i over d_i, times
        # s_i = E / gcd(d_i, E), with E the lcm of the rhs denominators
        common = lcm(*[Fraction(b).denominator for b in rhs])
        bound = 1
        for row, b in zip(rows, rhs):
            row = [Fraction(v) for v in row]
            den = lcm(*[v.denominator for v in row])
            nums = [v.numerator * (den // v.denominator) for v in row]
            g = gcd(den, *nums)
            nums, den = [v // g for v in nums], den // g
            scale = common // gcd(den, common)
            target = b * den * scale
            assert target.denominator == 1
            bound *= scale * (isqrt(sum(v * v for v in nums)) + 1) + abs(target.numerator)
        limit = 2 * bound * bound
        assert limit < moduli[-1] <= limit * FIRST_PRIME**2

    def test_solve_shape_checks(self):
        with pytest.raises(ValueError, match="square"):
            rat_matrix([[1, 2]])
        with pytest.raises(ValueError):
            rat_matrix([[1, 0], [0, 1]]).solve([1])


class TestVerification:
    def test_weight_12_new_m(self):
        report = verify_basis(12, "new-m")
        assert report.determinant == Fraction(1, 17472)
        assert report.nonsingular is True
        assert report.confirmed

    def test_weight_4_cusp_is_vacuous(self):
        report = verify_basis(4, BasisKind.NEW_S)
        assert report.element_count == 0
        assert report.determinant is None
        assert report.nonsingular is None
        assert report.confirmed

    def test_weight_36_new_m_nonzero(self):
        report = verify_basis(36, BasisKind.NEW_M)
        assert report.element_count == 4
        assert report.determinant != 0
        assert report.confirmed

    def test_all_kinds_confirm_up_to_120(self):
        # verify_basis builds at the precision floor; the report must be the
        # one of the basis built at the default precision
        for w in range(4, 122, 2):
            for kind in BasisKind:
                report = verify_basis(w, kind)
                assert report.confirmed, (w, kind)
                assert report == verify_report(basis_for(w, kind)), (w, kind)
                # the residue certificate agrees with the exact determinant
                if report.element_count:
                    assert report.nonsingular == (report.determinant != 0), (w, kind)
                else:
                    assert report.nonsingular is report.determinant is None, (w, kind)

    def test_corrupted_cusp_basis_is_rejected(self):
        basis = cusp_basis(12)
        el = basis.elements[0]
        broken = BasisElement(
            el.descriptor, QSeries(12, (Fraction(1),) + el.series.coeffs[1:])
        )
        report = verify_report(Basis(12, BasisKind.NEW_S, basis.precision, (broken,)))
        assert report.constant_terms_vanish is False
        assert not report.confirmed

    def test_element_shorter_than_the_window_is_rejected(self):
        basis = cusp_basis(36)
        last = basis.elements[-1]
        short = basis.elements[:-1] + (BasisElement(last.descriptor, last.series.truncate(3)),)
        with pytest.raises(ValueError, match="coefficient"):
            verify_report(Basis(36, BasisKind.NEW_S, basis.precision, short))

    def test_series_of_another_weight_are_rejected(self):
        # G_16 and G_4*G_12 are weight-16 forms: the window certificate
        # says nothing about them as a weight-12 basis
        message = "^element 0 \\(G_16\\) has weight 16, not the basis weight 12$"
        with pytest.raises(ValueError, match=message):
            Basis(12, BasisKind.NEW_M, 16, new_basis(16, 16).elements)
        with pytest.raises(ValueError, match="not the basis weight 12"):
            Basis(12, BasisKind.CLASSICAL, 16, classical_basis(16, 16).elements)

    def test_express_into_a_basis_of_another_weight_is_rejected(self):
        with pytest.raises(ValueError, match="not the basis weight 12"):
            express(delta_series(21), Basis(12, BasisKind.NEW_M, 21, new_basis(16, 21).elements))

    def test_duplicated_row_is_rejected(self):
        basis = new_basis(12)
        doubled = Basis(
            12, BasisKind.NEW_M, basis.precision, (basis.elements[0], basis.elements[0])
        )
        report = verify_report(doubled)
        assert report.determinant == 0
        assert report.nonsingular is False
        assert not report.confirmed

    def test_the_exact_determinant_is_eliminated_when_read_and_kept(self, monkeypatch):
        basis = new_basis(36)
        calls = determinant_calls(monkeypatch)
        report = verify_report(basis)
        assert calls == [True]
        assert report.determinant == det_leibniz([el.series.coeffs[:4] for el in basis.elements])
        assert report.determinant == report.determinant
        assert calls == [True, False]

    def test_confirming_new_m_at_240_runs_no_exact_elimination(self, monkeypatch):
        basis = new_basis(240)
        calls = determinant_calls(monkeypatch)
        assert verify_report(basis).confirmed
        assert calls == [True]


class TestBasisConstruction:
    """A Basis checks its kind, precision and element lengths when built."""

    def test_precision_other_than_the_element_length_is_rejected(self):
        with pytest.raises(ValueError, match="^element 0 has 16 coefficients, not 99$"):
            Basis(12, BasisKind.NEW_M, 99, new_basis(12).elements)

    def test_kind_by_name_becomes_its_basis_kind(self):
        built = new_basis(12, 16)
        basis = Basis(12, "new-m", 16, built.elements)
        assert basis.kind is BasisKind.NEW_M
        assert verify_report(basis) == verify_report(built)
        assert verify_report(basis).confirmed
        assert basis_to_document(basis) == basis_to_document(built)
        assert basis_from_document(basis_to_document(basis)) == built

    def test_elements_given_as_a_list_are_kept_as_a_tuple(self):
        built = new_basis(12)
        listed = Basis(12, "new-m", 16, list(built.elements))
        assert type(listed.elements) is tuple
        assert listed == built
        assert hash(listed) == hash(built)

    def test_cusp_kind_by_name_expresses_on_its_own_window(self):
        elements = cusp_basis(12, 21).elements
        assert express(elements[0].series, Basis(12, "new-s", 21, elements)) == [1]

    def test_weight_that_is_not_an_even_int_of_at_least_4_is_rejected(self):
        elements = new_basis(12, 16).elements
        with pytest.raises(ValueError, match="^weight must be an even integer >= 4, got 12.0$"):
            Basis(12.0, "new-m", 16, elements)
        # an empty new-s basis has no element to pin its weight
        with pytest.raises(ValueError, match="^weight must be an even integer >= 4, got 13$"):
            Basis(13, "new-s", 16, ())

    # a bool is an int subclass, and True reaches the end of an empty new-s window
    @pytest.mark.parametrize("weight, kind, precision", [(12, "new-m", 16.0), (4, "new-s", True)])
    def test_precision_that_is_not_an_int_is_rejected(self, weight, kind, precision):
        elements = basis_for(weight, kind, 16).elements
        with pytest.raises(ValueError, match=f"^basis precision must be an integer, got {precision}$"):
            Basis(weight, kind, precision, elements)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="newm"):
            Basis(12, "newm", 16, new_basis(12, 16).elements)

    def test_element_count_other_than_the_dimension_is_rejected(self):
        message = "^a new-s basis of weight 12 has 1 elements, but 0 were given$"
        with pytest.raises(ValueError, match=message):
            Basis(12, "new-s", 16, ())
        elements = new_basis(24, 16).elements
        message = "^a new-m basis of weight 24 has 3 elements, but 2 were given$"
        with pytest.raises(ValueError, match=message):
            Basis(24, "new-m", 16, elements[:2])

    def test_precision_below_the_window_is_rejected(self):
        elements = new_basis(12).elements
        short = tuple(BasisElement(el.descriptor, el.series.truncate(1)) for el in elements)
        with pytest.raises(ValueError, match="^precision 1 below the window end 2$"):
            Basis(12, BasisKind.NEW_M, 1, short)
        with pytest.raises(ValueError, match="window"):
            Basis(4, BasisKind.NEW_S, 0, ())


def window_determinant(basis: Basis) -> Fraction:
    """The new-s determinant straight from its window a_1..a_n."""
    n = len(basis.elements)
    rows = [(el.series.numerators[1 : n + 1], el.series.denominator) for el in basis.elements]
    return RatMatrix(rows).determinant()


def with_element(basis: Basis, index: int, descriptor, series: QSeries) -> Basis:
    elements = list(basis.elements)
    elements[index] = BasisElement(descriptor, series)
    return Basis(basis.weight, basis.kind, basis.precision, tuple(elements))


class TestNewSThroughNewM:
    """verify_report takes the new-s determinant on its own window a_1..a_n,
    and it is det(new-m matrix) / a_0(G_2k), the identity verify_basis
    certifies new-s by."""

    def test_identity_matches_the_direct_window_through_120(self):
        for weight in range(4, 122, 2):
            a0 = eisenstein(weight, 1).coefficient(0)
            new_m = verify_report(new_basis(weight))
            basis = cusp_basis(weight)
            new_s = verify_report(basis)
            assert new_m.nonsingular == (new_m.determinant != 0), weight
            if not basis.elements:
                assert new_s.determinant is new_s.nonsingular is None
                assert new_m.determinant == a0, weight
                continue
            assert new_s.determinant == window_determinant(basis), weight
            assert new_s.determinant * a0 == new_m.determinant, weight
            assert new_s.nonsingular == (new_s.determinant != 0), weight

    def test_new_s_certifies_and_reads_its_exact_value_on_its_own_window(self, monkeypatch):
        # the verdict is one residue elimination on a_1..a_n, and reading the
        # exact value runs Bareiss once, on those n rows and no G_2k row
        assert verify_report(new_basis(96)).determinant != 0
        basis = cusp_basis(96)
        n, m = len(basis.elements), CERTIFY_MODULUS
        calls = determinant_calls(monkeypatch)
        eliminations = counted_calls(monkeypatch, "_eliminate")
        bareiss = counted_calls(monkeypatch, "_bareiss")
        report = verify_report(basis)
        window = []
        for el in basis.elements:
            numerators = el.series.numerators[1 : n + 1]
            common = gcd(*numerators, el.series.denominator)
            window.append(tuple(v // common % m for v in numerators))
        assert calls == [True]
        assert eliminations == [(window, m)]
        determinant = report.determinant
        assert [len(rows) for rows, in bareiss] == [n]
        assert determinant == window_determinant(basis) != 0

    def test_nonvanishing_constant_term_keeps_the_direct_value(self):
        basis = cusp_basis(36)
        el = basis.elements[0]
        raised = QSeries(36, (Fraction(1),) + el.series.coeffs[1:])
        broken = with_element(basis, 0, el.descriptor, raised)
        report = verify_report(broken)
        assert report.constant_terms_vanish is False
        assert report.determinant == window_determinant(broken) != 0
        assert not report.confirmed

    @pytest.mark.parametrize("weight", [36, 120])
    def test_last_element_the_sum_of_the_first_two_is_singular(self, weight, monkeypatch):
        basis = cusp_basis(weight)
        first, second, last = basis.elements[0], basis.elements[1], basis.elements[-1]
        singular = with_element(basis, -1, last.descriptor, first.series + second.series)
        calls = determinant_calls(monkeypatch)
        report = verify_report(singular)
        # a zero residue proves nothing; the exact determinant decides
        assert calls == [True, False]
        assert report.constant_terms_vanish is True
        assert report.nonsingular is False
        assert report.determinant == 0
        assert not report.confirmed

    def test_descriptor_other_than_a_cusp_combo_gives_the_direct_value(self):
        # the report reads only the series: a plain product descriptor, or
        # every correction moved by one or replaced by the int 0, changes nothing
        basis = cusp_basis(60)
        el = basis.elements[1]
        plain = with_element(basis, 1, Product(el.descriptor.u, el.descriptor.v), el.series)
        tampered = [plain]
        combos = [el.descriptor for el in basis.elements]
        for correction in (lambda c: c + 1, lambda c: 0):
            elements = tuple(
                BasisElement(CuspCombo(d.u, d.v, correction(d.c)), member.series)
                for d, member in zip(combos, basis.elements)
            )
            tampered.append(Basis(basis.weight, basis.kind, basis.precision, elements))
        for other in tampered:
            report = verify_report(other)
            assert report.determinant == window_determinant(basis) != 0
            assert report.confirmed

    def test_singular_control_after_new_m_at_240_reads_zero(self, monkeypatch):
        basis = new_basis(240)
        assert verify_report(basis).confirmed
        first, second, last = basis.elements[0], basis.elements[1], basis.elements[-1]
        control = with_element(basis, -1, last.descriptor, first.series + second.series)
        calls = determinant_calls(monkeypatch)
        report = verify_report(control)
        assert calls == [True, False]
        assert report.nonsingular is False
        assert report.determinant == 0
        assert not report.confirmed

    def test_matrices_differing_in_one_entry_keep_their_own_determinants(self):
        basis = new_basis(60)
        rows = [(list(el.series.numerators[:6]), el.series.denominator) for el in basis.elements]
        changed = [(list(nums), den) for nums, den in rows]
        changed[-1][0][-1] += 1
        original = RatMatrix(rows).determinant()
        other = RatMatrix(changed).determinant()
        assert original == verify_report(basis).determinant
        assert other != original
        assert other == det_leibniz(RatMatrix(changed).row_list())
        assert RatMatrix(rows).determinant() == original


def floor_basis(weight: int, kind) -> Basis:
    """The `kind` basis at `weight` built at the precision floor, dim_cusp + 2."""
    return basis_for(weight, kind, dimension_data(weight).dim_cusp + 2)


def residue_rows(weight: int, kind: BasisKind) -> list[tuple[int, ...]]:
    """The rows verify_basis certifies `kind` at `weight` on, each over 1:
    every descriptor realized mod m as a cleared row, new-m's for new-s."""
    kind = BasisKind.NEW_M if kind is BasisKind.NEW_S else kind
    window = basis_module._residue_window(weight, kind, CERTIFY_MODULUS)
    return [numerators for numerators, _ in window._rows]


def clearing_factor(descriptor) -> int:
    """D_i: the product of a_0 denominators that verify_basis's residue
    window multiplies the exact row of `descriptor` by."""
    def den(weight):
        return sigma(weight - 1, 0).denominator

    if isinstance(descriptor, Single):
        return den(descriptor.weight)
    if isinstance(descriptor, Product):
        return den(descriptor.u) * den(descriptor.v)
    return den(4) ** descriptor.alpha * den(6) ** descriptor.beta


def exact_residue(rows, m: int) -> int:
    """det(rows) mod m for integer rows, by exact Bareiss elimination on
    the rows reduced mod m."""
    reduced = tuple((tuple(v % m for v in r), 1) for r in rows)
    return int(basis_module._bareiss(reduced)) % m


def unimodular_times(rng, n: int, diagonal: list[int]) -> list[list[int]]:
    """L * diag(diagonal) * U for random unit lower and upper triangular L
    and U, so the determinant is the product of `diagonal`."""
    lower = [[rng.randint(-9, 9) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.randint(-9, 9) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    middle = [[lower[i][j] * diagonal[j] for j in range(n)] for i in range(n)]
    return [[sum(middle[i][l] * upper[l][j] for l in range(n)) for j in range(n)] for i in range(n)]


class TestEliminate:
    """The packed elimination mod m against exact Bareiss, the plain
    Gauss-Jordan inverse, and the exact determinant it can skip."""

    def test_residues_match_bareiss_on_every_verify_window_to_240(self):
        m = CERTIFY_MODULUS
        for weight in range(4, 242, 2):
            for kind in (BasisKind.NEW_M, BasisKind.CLASSICAL):
                rows = residue_rows(weight, kind)
                assert basis_module._eliminate(rows, m) == exact_residue(rows, m), (weight, kind)
            # verify_report's new-s residue window: a_1..a_n of the built series
            basis = floor_basis(weight, BasisKind.NEW_S)
            n = len(basis.elements)
            if n:
                rows = [el.series.numerators[1 : n + 1] for el in basis.elements]
                assert basis_module._eliminate(rows, m) == exact_residue(rows, m), weight

    @pytest.mark.parametrize("m", [CERTIFY_MODULUS, 7])
    def test_residues_match_bareiss_on_random_matrices(self, m):
        rng = random.Random(4099 + m)
        for n in range(1, 42):
            dense = [[rng.randint(-10**12, 10**12) for _ in range(n)] for _ in range(n)]
            sparse = [[rng.choice((0, 0, rng.randint(-m, m))) for _ in range(n)] for _ in range(n)]
            # det = m: singular mod m, but not over Q
            multiple = unimodular_times(rng, n, [m] + [1] * (n - 1))
            for rows in (dense, sparse, multiple):
                residue = exact_residue(rows, m)
                assert basis_module._eliminate(rows, m) == residue, n
                assert basis_module._eliminate(rows, m, True)[0] == residue, n
            assert exact_residue(multiple, m) == 0

    @pytest.mark.parametrize("m", [2**61 - 1, 3 * 5 * 7 * (2**31 - 1)])
    def test_tracked_inverse_matches_plain_gauss_jordan(self, m):
        # rows scaled by 3, 5 or 7 leave the composite modulus columns with
        # no unit pivot, and then both give up
        rng = random.Random(m % 1000)
        outcomes = set()
        for n in range(1, 26):
            for _ in range(3):
                rows = [[rng.randint(-10**20, 10**20) for _ in range(n)] for _ in range(n)]
                if rng.random() < 0.3:
                    rows = [[v * rng.choice((3, 5, 7)) for v in row] for row in rows]
                residue, transform = basis_module._eliminate(rows, m, True)
                expected = inverse_mod(rows, m)
                outcomes.add(expected is None)
                assert (residue != 0) == (expected is not None), n
                if expected is not None:
                    assert transform == expected, n
                    assert residue == exact_residue(rows, m)
        assert outcomes == ({False} if m == 2**61 - 1 else {True, False})

    def test_a_singular_matrix_leaves_a_left_kernel_row(self):
        m = CERTIFY_MODULUS
        rng = random.Random(31)
        for n in range(2, 20):
            rows = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n - 1)]
            rows.insert(rng.randrange(n), [a - 2 * b for a, b in zip(rows[0], rows[-1])])
            residue, transform = basis_module._eliminate(rows, m, True)
            y = transform[-1]
            assert residue == 0 and any(y)
            assert all(sum(a * r[j] for a, r in zip(y, rows)) % m == 0 for j in range(n))

    # new-s's dependency is the sum of the first two on its own window
    @pytest.mark.parametrize(
        "weight, kind",
        [(36, "new-m"), (120, "new-m"), (240, "new-m"), (120, "new-s"), (240, "new-s")],
        ids=["36", "120", "240", "new-s-120", "new-s-240"],
    )
    def test_a_dependency_proves_the_singular_control_zero_without_bareiss(
        self, weight, kind, monkeypatch
    ):
        basis = basis_for(weight, kind)
        first, second, last = basis.elements[0], basis.elements[1], basis.elements[-1]
        control = with_element(basis, -1, last.descriptor, first.series + second.series)
        bareiss = counted_calls(monkeypatch, "_bareiss")
        report = verify_report(control)
        assert report.nonsingular is False
        assert report.determinant == 0
        assert bareiss == []

    @pytest.mark.parametrize("m", [CERTIFY_MODULUS, 7])
    def test_a_nonzero_multiple_of_the_modulus_is_never_proved_zero(self, m, monkeypatch):
        monkeypatch.setattr(basis_module, "CERTIFY_MODULUS", m)
        rng = random.Random(m)
        for n in range(1, 12):
            for k in (1, 2, -3):
                rows = unimodular_times(rng, n, [k * m] + [1] * (n - 1))
                assert rat_matrix(rows).determinant() == k * m, (n, k)
                assert rat_matrix(rows).nonsingular() is True
        # rows that differ by a multiple of m: a small dependency mod m
        # that does not hold exactly
        rows = [[1, 2, 3], [1 + m, 2, 3 + 2 * m], [0, 1, 5]]
        assert rat_matrix(rows).determinant() == det_leibniz(rows) != 0

    def test_a_zero_residue_report_takes_its_exact_value_once(self, monkeypatch):
        basis = new_basis(36)
        first, second, last = basis.elements[0], basis.elements[1], basis.elements[-1]
        control = with_element(basis, -1, last.descriptor, first.series + second.series)
        eliminations = counted_calls(monkeypatch, "_eliminate")
        report = verify_report(control)
        assert report.nonsingular is False
        # the residue, then the exact value's residue and its one tracked
        # elimination, which the read reuses from the window's matrix
        assert [len(args) for args in eliminations] == [2, 2, 3]
        assert report.determinant == 0
        assert len(eliminations) == 3

    def test_a_matrix_works_out_its_determinant_once(self, monkeypatch):
        eliminations = counted_calls(monkeypatch, "_eliminate")
        bareiss = counted_calls(monkeypatch, "_bareiss")
        # by Bareiss, by Bareiss after a zero residue, and by a dependency
        for rows in ([[2, 1], [-1, 3]], [[CERTIFY_MODULUS, 0], [0, 1]], [[1, 2], [2, 4]]):
            matrix = rat_matrix(rows)
            determinant = matrix.determinant()
            eliminations.clear()
            bareiss.clear()
            assert matrix.determinant() == determinant == det_leibniz(rows)
            assert matrix.nonsingular() is (determinant != 0)
            assert eliminations == bareiss == [], rows

    def test_a_nonzero_residue_leaves_the_exact_determinant_to_bareiss(self, monkeypatch):
        eliminations = counted_calls(monkeypatch, "_eliminate")
        assert rat_matrix([[2, 1], [-1, 3]]).determinant() == 7
        assert rat_matrix([[CERTIFY_MODULUS, 0], [0, 1]]).determinant() == CERTIFY_MODULUS
        # one untracked elimination each, and only the second, 0 mod m, tracks
        assert [len(args) for args in eliminations] == [2, 2, 3]

    def test_new_s_reads_new_m_s_residue_with_no_second_elimination(self, monkeypatch):
        basis_module._residue_window.cache_clear()
        eliminations = counted_calls(monkeypatch, "_eliminate")
        for kind in (BasisKind.NEW_M, BasisKind.CLASSICAL, BasisKind.NEW_S):
            assert verify_basis(98, kind).confirmed
        assert len(eliminations) == 2


class TestResidueRoute:
    """verify_basis certifies from residues the windows verify_report
    certifies on the exact floor basis, and falls back to it."""

    def test_rows_and_reports_match_the_exact_floor_basis_through_240(self):
        m = CERTIFY_MODULUS
        for weight in range(4, 242, 2):
            n = dimension_data(weight).dim_modular
            for kind in BasisKind:
                basis = floor_basis(weight, kind)
                series = [el.series for el in basis.elements]
                descriptors = [el.descriptor for el in basis.elements]
                if kind is BasisKind.NEW_S:
                    # the certificate's rows: G_2k, then S_i - c_i G_2k,
                    # which are new-m's rows and are cleared as new-m's are
                    g = eisenstein(weight, basis.precision)
                    series = [g] + [s - el.descriptor.c * g for s, el in zip(series, basis.elements)]
                    descriptors = basis_descriptors(weight, BasisKind.NEW_M)
                exact = []
                for s, descriptor in zip(series, descriptors):
                    # D_i A_i is an integer row, reduced mod m
                    scaled = [clearing_factor(descriptor) * Fraction(v, s.denominator)
                              for v in s.numerators[:n]]
                    assert all(v.denominator == 1 for v in scaled), (weight, kind, descriptor)
                    exact.append(tuple(int(v) % m for v in scaled))
                assert residue_rows(weight, kind) == exact, (weight, kind)
                assert verify_basis(weight, kind) == verify_report(basis), (weight, kind)
                assert basis_module._table.cache_info().currsize <= 2
        # downward, every window length was passed and its table evicted, so
        # each is rebuilt; no more than two tables are ever held
        for weight in range(120, 2, -2):
            for kind in BasisKind:
                report = verify_basis(weight, kind)
                assert basis_module._table.cache_info().currsize <= 2
                assert report == verify_report(floor_basis(weight, kind)), (weight, kind)
                assert basis_module._table.cache_info().currsize <= 2

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_a_zero_residue_falls_back_to_the_exact_path(self, kind, monkeypatch):
        expected = verify_report(floor_basis(36, kind))
        calls = determinant_calls(monkeypatch)
        recorded = RatMatrix.determinant

        def zero_on_residues(self):
            value = recorded(self)
            return Fraction(0) if calls[-1] else value

        monkeypatch.setattr(RatMatrix, "determinant", zero_on_residues)
        report = verify_basis(36, kind)
        assert report == expected
        assert report.nonsingular is True
        assert False in calls  # the exact elimination decided

    @pytest.mark.parametrize("modulus", [7, 11, 13, 691])
    def test_small_moduli_certify_or_fall_back_to_the_exact_verdict(self, modulus, monkeypatch):
        # 7, 11 and 13 divide a_0 denominators (504 for G_6, 264 for G_10,
        # 65520 for G_12) and 691 divides the numerator of a_0(G_12), so
        # residues vanish often; every verdict must still be the exact one
        monkeypatch.setattr(basis_module, "CERTIFY_MODULUS", modulus)
        builds = counted_calls(monkeypatch, "basis_for")
        fell_back = {}
        for weight in range(4, 62, 2):
            for kind in BasisKind:
                before = len(builds)
                report = verify_basis(weight, kind)
                fell_back[weight, kind] = len(builds) > before
                assert report == verify_report(floor_basis(weight, kind)), (weight, kind)
                exact = None if report.determinant is None else report.determinant != 0
                assert report.nonsingular == exact, (weight, kind)
        if modulus == 7:
            # both routes run; at weight 12 the cleared rows certify every kind
            assert True in fell_back.values() and False in fell_back.values()
            assert not any(fell_back[12, kind] for kind in BasisKind)

    def test_weight_240_builds_no_series_until_a_determinant_is_read(self, monkeypatch):
        names = ("new_basis", "cusp_basis", "classical_basis")
        builders = [counted_calls(monkeypatch, name) for name in names]
        calls = determinant_calls(monkeypatch)
        report, *others = [verify_basis(240, kind) for kind in BasisKind]
        assert report.kind is BasisKind.NEW_M
        assert all(r.confirmed for r in [report, *others])
        assert builders == [[], [], []]
        assert calls and all(calls)
        residue_calls = len(calls)
        determinant = report.determinant
        assert report.determinant == determinant
        assert builders[0] == [(240, dimension_data(240).dim_cusp + 2)]
        assert calls[residue_calls:].count(False) == 1
        assert determinant == verify_report(new_basis(240)).determinant != 0

    def test_a_constant_term_that_does_not_cancel_fails_as_the_exact_path_does(self, monkeypatch):
        correction = basis_module.cusp_correction
        monkeypatch.setattr(basis_module, "cusp_correction", lambda u, v: correction(u, v) + 1)
        with pytest.raises(ArithmeticError, match="constant term failed to cancel"):
            verify_basis(36, "new-s")

    @pytest.mark.parametrize(
        "weight, kind, message",
        [
            (2, "new-m", "weight 2 rejected: the weight-2 Eisenstein series is only quasi-modular"),
            (5, "new-s", "weight must be an even integer >= 4, got 5"),
            (16.0, "classical", "weight must be an even integer >= 4, got 16.0"),
            (True, "new-m", "weight must be an even integer >= 4, got True"),
            (12, "newm", "'newm' is not a valid BasisKind"),
        ],
    )
    def test_bad_input_is_rejected_before_any_residue_work(self, weight, kind, message, monkeypatch):
        windows = counted_calls(monkeypatch, "_residue_window")
        calls = determinant_calls(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_basis(weight, kind)
        assert windows == calls == []


class TestExpress:
    def test_basis_element_itself(self):
        basis = new_basis(12, 21)
        assert express(eisenstein(12, 21), basis) == [1, 0]

    def test_discriminant_coordinates(self):
        coords = express(delta_series(21), new_basis(12, 21))
        assert coords == [Fraction(-91, 600), Fraction(2764, 15)]

    def test_discriminant_in_cusp_basis(self):
        assert express(delta_series(21), cusp_basis(12, 21)) == [Fraction(2764, 15)]

    def test_power_of_g4_in_weight_36_new_basis(self):
        target = eisenstein(4, 24) ** 9
        basis = new_basis(36, 24)
        coords = express(target, basis)
        reconstruction = QSeries(36, (0,) * 24)
        for c, el in zip(coords, basis.elements):
            reconstruction = reconstruction + c * el.series
        assert reconstruction == target

    def test_round_trip_random_coordinates(self):
        rng = random.Random(8191)
        for weight in range(4, 62, 2):
            dim = dimension_data(weight).dim_modular
            precision = 2 * dim + 8
            for kind in (BasisKind.NEW_M, BasisKind.CLASSICAL, BasisKind.NEW_S):
                basis = basis_for(weight, kind, precision)
                coords = [
                    Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                    for _ in basis.elements
                ]
                target = QSeries(weight, (0,) * precision)
                for c, el in zip(coords, basis.elements):
                    target = target + c * el.series
                assert express(target, basis) == coords

    def test_span_equivalence_both_directions(self):
        for weight in range(4, 42, 2):
            precision = 2 * dimension_data(weight).dim_modular + 8
            new = new_basis(weight, precision)
            classical = classical_basis(weight, precision)
            for el in classical.elements:
                express(el.series, new)  # raises on any residual
            for el in new.elements:
                express(el.series, classical)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            express(eisenstein(16, 21), new_basis(12, 21))

    def test_short_target_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            express(eisenstein(12, 5), new_basis(12, 21))

    def test_shallow_basis_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            express(eisenstein(12, 21), new_basis(12, 4))

    def test_basis_shorter_than_target_rejected(self):
        # a_30 lies past the basis precision, so it could not be verified
        target = eisenstein(12, 40)
        target = QSeries(12, target.coeffs[:30] + (target.coeffs[30] + 1,) + target.coeffs[31:])
        with pytest.raises(ValueError) as info:
            express(target, new_basis(12, 12))
        assert str(info.value) == (
            "basis precision 12 too small for expression: rebuild with precision >= 40"
        )

    def test_residual_reports_first_bad_index(self):
        # perturbing a_2 leaves the solve window (a_0, a_1) intact, so the
        # mismatch must surface exactly at index 2
        delta = delta_series(21)
        tampered = QSeries(
            12, delta.coeffs[:2] + (delta.coeffs[2] + 1,) + delta.coeffs[3:]
        )
        with pytest.raises(SpanError) as info:
            express(tampered, new_basis(12, 21))
        assert info.value.index == 2

    def test_non_cusp_series_fails_at_index_zero_in_cusp_basis(self):
        with pytest.raises(SpanError) as info:
            express(eisenstein(12, 21), cusp_basis(12, 21))
        assert info.value.index == 0

    def test_many_expressions_in_one_basis_factor_its_window_once(self, monkeypatch):
        factorisations = factor_moduli(monkeypatch)
        rng = random.Random(2024)
        basis = new_basis(60, 2 * dimension_data(60).dim_modular + 8)
        for _ in range(20):
            coords = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in basis.elements]
            target = QSeries(60, (0,) * basis.precision)
            for c, el in zip(coords, basis.elements):
                target = target + c * el.series
            assert express(target, basis) == coords
        assert len(factorisations) == 1

    def test_fresh_basis_with_the_same_elements_gives_the_same_coordinates(self):
        basis = new_basis(48, 40)
        target = eisenstein(4, 40) ** 12
        coords = express(target, basis)
        fresh = Basis(basis.weight, basis.kind, basis.precision, basis.elements)
        assert fresh == basis and "_express_system" not in vars(fresh)
        assert express(target, fresh) == coords
        tampered = bump(target, 30)
        with pytest.raises(SpanError) as kept:
            express(tampered, basis)
        with pytest.raises(SpanError) as rebuilt:
            express(tampered, Basis(basis.weight, basis.kind, basis.precision, basis.elements))
        assert str(kept.value) == str(rebuilt.value) and kept.value.index == 30

    def test_empty_cusp_basis_expresses_only_zero(self):
        basis = cusp_basis(4, 16)
        assert express(QSeries(4, (0,) * 16), basis) == []
        with pytest.raises(SpanError) as info:
            express(eisenstein(4, 16), basis)
        assert info.value.index == 0


def reference_express(target, basis):
    """express() rebuilt on the Fraction elimination oracle and Fraction sums."""
    elements = basis.elements
    limit = target.precision
    coords = []
    if elements:
        shift = int(basis.kind is BasisKind.NEW_S)
        window = range(shift, shift + len(elements))
        coords = gauss_solve(
            [[el.series.coefficient(j) for el in elements] for j in window],
            [target.coefficient(j) for j in window],
        )
        limit = min([limit] + [el.series.precision for el in elements])
    for j in range(limit):
        actual = sum((c * el.series.coefficient(j) for c, el in zip(coords, elements)), Fraction(0))
        if actual != target.coefficient(j):
            raise SpanError(j, target.coefficient(j), actual)
    return coords


def bump(series, index):
    coeffs = list(series.coeffs)
    coeffs[index] += 1
    return QSeries(series.weight, tuple(coeffs))


def outcome(fn, target, basis):
    try:
        return fn(target, basis)
    except SpanError as exc:
        return ("span", exc.index, exc.expected, exc.actual, str(exc))


class TestExpressAgainstReference:
    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_matches_fraction_reference_through_weight_96(self, kind):
        rng = random.Random(9601 + list(BasisKind).index(kind))
        for weight in range(4, 98, 2):
            precision = 2 * dimension_data(weight).dim_modular + 8
            basis = basis_for(weight, kind, precision)
            coords = [
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                for _ in basis.elements
            ]
            target = QSeries(weight, (0,) * precision)
            for c, el in zip(coords, basis.elements):
                target = target + c * el.series
            shift = int(kind is BasisKind.NEW_S)
            window_end = shift + len(basis.elements)
            cases = [(target, coords), (bump(target, rng.randrange(window_end, precision)), None)]
            if basis.elements:
                cases.append((bump(target, rng.randrange(shift, window_end)), None))
            for case, want in cases:
                got = outcome(express, case, basis)
                assert got == outcome(reference_express, case, basis), (weight, kind)
                if want is not None:
                    assert got == want
                else:
                    assert got[0] == "span"


class TestMultiDigitExpress:
    @pytest.mark.parametrize("kind", ["new-m", "new-s"])
    def test_hecke_images_at_weight_132_match_fraction_elimination(self, kind, monkeypatch):
        # T_2 of each element of the longer basis has coordinates of up to
        # about 650 bits, which take up to 23 base-(2^61 - 1) digits
        precision = 2 * dimension_data(132).dim_modular + 8
        short = basis_for(132, kind, precision)
        long = basis_for(132, kind, 2 * precision)
        moduli = []
        reconstruct = basis_module._reconstruct_vector

        def recorded(residues, m):
            moduli.append(m)
            return reconstruct(residues, m)

        monkeypatch.setattr(basis_module, "_reconstruct_vector", recorded)
        rows = [[el.series.coefficient(j) for el in short.elements] for j in short.window]
        for el in long.elements:
            image = hecke(el.series, 2, precision)
            rhs = [image.coefficient(j) for j in short.window]
            assert express(image, short) == gauss_solve(rows, rhs)
        assert max(moduli) > FIRST_PRIME**20

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_unrelated_150_bit_coordinates_at_weight_48(self, kind, monkeypatch):
        # distinct odd denominators share no factor, so every coordinate
        # takes its own Euclidean pass at a modulus of several digits
        rng = random.Random(4801 + list(BasisKind).index(kind))
        precision = 2 * dimension_data(48).dim_modular + 8
        basis = basis_for(48, kind, precision)
        dens = [rng.getrandbits(150) | 1 << 149 | 1 for _ in basis.elements]
        assert len(set(dens)) == len(dens)
        coords = [
            Fraction(rng.choice((-1, 1)) * (rng.getrandbits(150) | 1 << 149), d) for d in dens
        ]
        target = QSeries(48, (0,) * precision)
        for c, el in zip(coords, basis.elements):
            target = target + c * el.series
        calls = counted_calls(monkeypatch, "_reconstruct_vector")
        assert express(target, basis) == coords
        # a 150-bit numerator over a 150-bit denominator needs a modulus
        # above 2^301: five base-(2^61 - 1) digits at least
        assert calls[-1][1] >= FIRST_PRIME**5
        start, stop = basis.window.start, basis.window.stop
        for index in (rng.randrange(start, stop), rng.randrange(stop, precision)):
            bad = bump(target, index)
            got = outcome(express, bad, basis)
            assert got[0] == "span"
            assert got == outcome(reference_express, bad, basis), index


class TestHeckeT2:
    """T_2 maps each weight-w space to itself, so the traces of its powers
    are the same in every basis of that space; on the cusp space they lose
    the eigenvalue 1 + 2^(w-1) of G_w.  A series that is not a modular form
    has a T_2 image outside the span, so express() rejects it."""

    @pytest.mark.parametrize("weight", [24, 48, 96])
    def test_traces_agree_across_kinds(self, weight):
        new_m = hecke_traces(weight, "new-m", 2, 3)
        assert hecke_traces(weight, "classical", 2, 3) == new_m
        eigenvalue = 1 + 2 ** (weight - 1)
        cusp = [t - eigenvalue**k for k, t in enumerate(new_m, start=1)]
        assert hecke_traces(weight, "new-s", 2, 3) == cusp

    @pytest.mark.parametrize("weight", [24, 48, 96])
    def test_perturbed_constant_term_leaves_the_span(self, weight):
        precision = 2 * dimension_data(weight).dim_modular + 8
        g = eisenstein(weight, 2 * precision)
        perturbed = g + QSeries(weight, (1,) + (0,) * (2 * precision - 1))
        eigenvalue = 1 + 2 ** (weight - 1)
        for kind in ("new-m", "classical"):
            basis = basis_for(weight, kind, precision)
            image = express(hecke(g, 2, precision), basis)
            assert image == express(eigenvalue * g.truncate(precision), basis)
            with pytest.raises(SpanError):
                express(hecke(perturbed, 2, precision), basis)


class TestEichlerSelbergTraces:
    """The trace of T_p that express() gives in each kind, against a closed
    form no other test computes: Tr(T_p | S_k) by the Eichler-Selberg trace
    formula, plus the eigenvalue 1 + p^(k-1) of G_k in new-m and classical."""

    def test_formula_gives_known_values(self):
        assert [eichler_selberg_trace(12, p) for p in (2, 3, 5)] == [-24, 252, 4830]
        delta = delta_series(30)
        assert all(eichler_selberg_trace(12, n) == delta.coefficient(n) for n in range(1, 30))
        # S_24 is two-dimensional; T_2's eigenvalues are 540 +- 12 sqrt(144169)
        assert eichler_selberg_trace(24, 2) == 1080
        # S_k = 0 for k = 4..10 and 14
        assert all(eichler_selberg_trace(k, 2) == 0 for k in (4, 6, 8, 10, 14))

    @pytest.mark.parametrize("p", [2, 3])
    def test_express_traces_match_the_formula(self, p):
        assert trace_formula_mismatches(p, range(12, 97, 2)) == []
