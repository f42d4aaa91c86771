import random
from fractions import Fraction

import pytest

from eisbasis import (
    Basis,
    BasisElement,
    BasisKind,
    Monomial,
    Product,
    QSeries,
    RatMatrix,
    Single,
    SpanError,
    basis_for,
    classical_basis,
    classical_exponents,
    coefficient_matrix,
    cusp_basis,
    cusp_correction,
    dimension_data,
    dimension_oracle,
    eisenstein,
    express,
    new_basis,
    new_basis_descriptors,
    verify_basis,
    verify_report,
)
from helpers import delta_series, det_leibniz


class TestDescriptors:
    def test_weight_36_lists_the_expected_products(self):
        labels = [d.label() for d in new_basis_descriptors(36)]
        assert labels == ["G_36", "G_4*G_32", "G_8*G_28", "G_12*G_24"]

    def test_weight_4_has_no_products(self):
        assert new_basis_descriptors(4) == [Single(4)]

    def test_weight_38_uses_the_odd_parity_branch(self):
        assert new_basis_descriptors(38) == [Single(38), Product(6, 32), Product(10, 28)]

    def test_count_matches_dimension_up_to_120(self):
        for w in range(4, 122, 2):
            descriptors = new_basis_descriptors(w)
            assert len(descriptors) == dimension_data(w).dim_modular == dimension_oracle(w)

    def test_factor_weights_legal_up_to_400(self):
        for w in range(4, 402, 2):
            for d in new_basis_descriptors(w)[1:]:
                assert d.u >= 4 and d.v >= 4 and d.u + d.v == w

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            new_basis_descriptors(5)


class TestCuspCorrections:
    def test_weight_12_constant(self):
        assert cusp_correction(4, 8) == Fraction(-91, 110560)

    def test_weight_36_first_constant(self):
        assert cusp_correction(4, 32) == Fraction(
            -1479565184909325423, 286310154497221833818240
        )

    def test_constant_terms_cancel_exactly(self):
        for w in range(4, 62, 2):
            for el in cusp_basis(w).elements:
                assert el.series.coefficient(0) == 0

    def test_empty_at_weight_4(self):
        basis = cusp_basis(4)
        assert basis.elements == ()
        assert basis.kind is BasisKind.NEW_S

    def test_precision_floor_enforced(self):
        with pytest.raises(ValueError):
            cusp_basis(36, 3)


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
        assert classical_exponents(weight) == pairs

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

    def test_labels(self):
        assert [el.descriptor.label() for el in classical_basis(36, 6).elements] == [
            "G_4^9",
            "G_4^6*G_6^2",
            "G_4^3*G_6^4",
            "G_6^6",
        ]
        assert Monomial(1, 1).label() == "G_4*G_6"


class TestCoefficientMatrix:
    def test_weight_12_leading_block(self):
        m = coefficient_matrix(new_basis(12), 2)
        assert m.row_list() == [
            [Fraction(691, 65520), Fraction(1)],
            [Fraction(1, 115200), Fraction(1, 160)],
        ]

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError):
            coefficient_matrix(new_basis(12), 0)

    def test_cusp_constant_column_is_zero(self):
        m = coefficient_matrix(cusp_basis(12), 2)
        assert m.entry(0, 0) == 0

    def test_insufficient_precision_rejected(self):
        with pytest.raises(ValueError):
            coefficient_matrix(new_basis(12, 4), 5)


class TestRatMatrix:
    def test_identity_determinant(self):
        assert RatMatrix.identity(3).determinant() == 1

    def test_weight_12_block_determinant(self):
        m = coefficient_matrix(new_basis(12), 2)
        assert m.determinant() == Fraction(1, 17472)

    def test_repeated_row_is_singular(self):
        m = RatMatrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
        assert m.determinant() == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            RatMatrix([[1, 2, 3], [4, 5, 6]]).determinant()

    def test_rejects_floats_and_ragged_rows(self):
        with pytest.raises(TypeError):
            RatMatrix([[0.5]])
        with pytest.raises(ValueError):
            RatMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            RatMatrix([])

    def test_matches_permutation_expansion(self):
        rng = random.Random(1159)
        for n in (1, 2, 3, 4):
            for _ in range(12):
                rows = [
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
                    for _ in range(n)
                ]
                assert RatMatrix(rows).determinant() == det_leibniz(rows)

    def test_pivoting_handles_leading_zeros(self):
        m = RatMatrix([[0, 1], [1, 0]])
        assert m.determinant() == -1

    def test_solve_round_trip(self):
        rng = random.Random(74207281)
        for n in (1, 2, 3, 4, 5):
            for _ in range(8):
                rows = [
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
                    for _ in range(n)
                ]
                m = RatMatrix(rows)
                if m.determinant() == 0:
                    continue
                x = [Fraction(rng.randint(-7, 7), rng.randint(1, 7)) for _ in range(n)]
                rhs = [sum(rows[i][j] * x[j] for j in range(n)) for i in range(n)]
                assert m.solve(rhs) == x

    def test_solve_singular_raises(self):
        with pytest.raises(ValueError):
            RatMatrix([[1, 2], [2, 4]]).solve([1, 1])

    def test_solve_shape_checks(self):
        with pytest.raises(ValueError):
            RatMatrix([[1, 2]]).solve([1])
        with pytest.raises(ValueError):
            RatMatrix.identity(2).solve([1])


class TestVerification:
    def test_weight_12_new_m(self):
        report = verify_basis(12, "new-m")
        assert report.determinant == Fraction(1, 17472)
        assert report.confirmed

    def test_weight_4_cusp_is_vacuous(self):
        report = verify_basis(4, BasisKind.NEW_S)
        assert report.element_count == report.expected_count == 0
        assert report.determinant is None
        assert report.confirmed

    def test_weight_36_new_m_nonzero(self):
        report = verify_basis(36, BasisKind.NEW_M)
        assert report.element_count == 4
        assert report.determinant != 0
        assert report.confirmed

    def test_all_kinds_confirm_up_to_120(self):
        for w in range(4, 122, 2):
            for kind in BasisKind:
                assert verify_basis(w, kind).confirmed, (w, kind)

    def test_corrupted_cusp_basis_is_rejected(self):
        basis = cusp_basis(12)
        el = basis.elements[0]
        broken = BasisElement(
            el.descriptor, QSeries(12, (Fraction(1),) + el.series.coeffs[1:])
        )
        report = verify_report(Basis(12, BasisKind.NEW_S, basis.precision, (broken,)))
        assert report.constant_terms_vanish is False
        assert not report.confirmed

    def test_duplicated_row_is_rejected(self):
        basis = new_basis(12)
        doubled = Basis(
            12, BasisKind.NEW_M, basis.precision, (basis.elements[0], basis.elements[0])
        )
        report = verify_report(doubled)
        assert report.determinant == 0
        assert not report.confirmed


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
        reconstruction = QSeries.zero(36, 24)
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
                target = QSeries.zero(weight, precision)
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

    def test_empty_cusp_basis_expresses_only_zero(self):
        basis = cusp_basis(4, 16)
        assert express(QSeries.zero(4, 16), basis) == []
        with pytest.raises(SpanError) as info:
            express(eisenstein(4, 16), basis)
        assert info.value.index == 0
