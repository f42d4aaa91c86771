import random
from fractions import Fraction

import pytest

from eisbasis import QSeries, eisenstein
from eisbasis.arith import sigma
from helpers import schoolbook_product


def random_series(rng, weight, precision):
    return QSeries(
        weight,
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(precision)),
    )


class TestConstruction:
    def test_rejects_bad_weight(self):
        for weight in (2, 3, 0, -4, 12.0):
            with pytest.raises(ValueError):
                QSeries(weight, (Fraction(1),))

    def test_rejects_empty_coefficients(self):
        with pytest.raises(ValueError):
            QSeries(4, ())

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            QSeries(4, (0.5, 1))

    def test_rejects_strings(self):
        # only ints and Fractions are exact rationals; a string is not parsed
        with pytest.raises(TypeError, match="^str values are not allowed; use Fraction or int$"):
            QSeries(12, ["1/3"])

    def test_accepts_ints_and_normalizes(self):
        s = QSeries(4, (1, 2))
        assert s.coeffs == (Fraction(1), Fraction(2))
        assert s.precision == 2

    def test_coefficient_bounds(self):
        s = QSeries(4, (1, 2))
        assert s.coefficient(1) == 2
        with pytest.raises(ValueError):
            s.coefficient(2)
        with pytest.raises(ValueError):
            s.coefficient(-1)


class TestAddScale:
    def test_additive_identity(self):
        g4 = eisenstein(4, 6)
        assert g4 + QSeries(4, (0,) * 6) == g4

    def test_additive_inverse(self):
        g4 = eisenstein(4, 6)
        assert g4 + (-1 * g4) == QSeries(4, (0,) * 6)

    def test_doubling_the_weight_four_series(self):
        g4 = eisenstein(4, 3)
        assert (g4 + g4).coeffs == (Fraction(1, 120), 2, 18)

    def test_add_requires_equal_weights(self):
        with pytest.raises(ValueError):
            eisenstein(4, 3) + eisenstein(6, 3)

    def test_scale_identity_and_annihilation(self):
        g4 = eisenstein(4, 5)
        assert 1 * g4 == g4
        assert 0 * g4 == QSeries(4, (0,) * 5)

    def test_scale_clears_denominator(self):
        assert (eisenstein(4, 2) * 240).coeffs == (1, 240)

    def test_scale_preserves_weight_and_precision(self):
        s = eisenstein(8, 7) * Fraction(3, 5)
        assert s.weight == 8 and s.precision == 7

    def test_division_by_scalar(self):
        g4 = eisenstein(4, 4)
        assert (g4 * 240) / 240 == g4


class TestMultiply:
    def test_annihilation(self):
        z = QSeries(4, (0,) * 5) * eisenstein(8, 5)
        assert z == QSeries(12, (0,) * 5)

    def test_product_constant_term(self):
        prod = eisenstein(4, 2) * eisenstein(8, 2)
        assert prod.coefficient(0) == Fraction(1, 115200)
        assert prod.coefficient(1) == Fraction(1, 160)

    def test_weight_adds(self):
        assert (eisenstein(4, 3) * eisenstein(6, 3)).weight == 10

    def test_precision_is_min_of_operands(self):
        a = eisenstein(4, 9)
        b = eisenstein(6, 5)
        assert (a * b).precision == 5
        assert (a + a.truncate(4)).precision == 4

    def test_matches_direct_convolution(self):
        # same sum evaluated two ways: series multiply vs explicit terms
        prod = eisenstein(4, 10) * eisenstein(8, 10)
        direct = QSeries(
            12,
            tuple(
                sum(sigma(3, l) * sigma(7, n - l) for l in range(n + 1))
                for n in range(10)
            ),
        )
        assert prod.truncate(10) == direct.truncate(10)

    def test_power(self):
        g4 = eisenstein(4, 8)
        assert g4**3 == g4 * g4 * g4
        assert (g4**3).weight == 12
        with pytest.raises(ValueError):
            g4**0


class TestKroneckerAgainstSchoolbook:
    """The packed bigint multiply against the direct Fraction convolution."""

    def check(self, a, b):
        assert a * b == schoolbook_product(a, b)
        assert b * a == schoolbook_product(b, a)

    def test_random_signed_rational_series(self):
        rng = random.Random(20261017)
        for _ in range(200):
            n = rng.randint(1, 30)
            bits = rng.choice((1, 8, 40, 200))

            def draw():
                return Fraction(
                    rng.randint(-(2**bits), 2**bits), rng.randint(1, rng.choice((1, 9, 2**bits)))
                )

            a = QSeries(4, tuple(draw() for _ in range(n + rng.randint(0, 3))))
            b = QSeries(6, tuple(draw() for _ in range(n + rng.randint(0, 3))))
            self.check(a, b)

    def test_all_zero_series(self):
        self.check(QSeries(4, (0,) * 7), eisenstein(6, 7))
        self.check(QSeries(4, (0,) * 7), QSeries(6, (0,) * 7))

    def test_precision_one(self):
        self.check(eisenstein(4, 1), eisenstein(6, 1))
        self.check(QSeries(4, (Fraction(-3, 7),)), QSeries(6, (Fraction(5, 2),)))

    def test_negative_constant_term(self):
        # B_10 > 0, so G_10 has constant term -B_10/20 < 0
        assert eisenstein(10, 12).coefficient(0) < 0
        self.check(eisenstein(10, 12), eisenstein(4, 12))
        self.check(eisenstein(10, 12), eisenstein(10, 12))

    def test_bernoulli_sized_constant_term_beside_small_coefficients(self):
        big = eisenstein(240, 20)
        assert big.coefficient(0).numerator.bit_length() > 300
        self.check(big, eisenstein(4, 20))
        self.check(big, big)
        small = QSeries(4, (Fraction(1, 3),) + (Fraction(-1),) * 19)
        self.check(big, small)

    @pytest.mark.parametrize(
        "n, m",
        [
            (127, 1),  # bound 127: just inside one byte with its sign bit
            (1, 11),  # 121: just inside one byte
            (1, 12),  # 144: just past one byte
            (2, 8),  # 128: just past one byte
            (2, 127),  # 32258: just inside two bytes
            (2, 128),  # 32768: just past two bytes
            (2, 2**23 - 1),  # just under 2^47: just inside six bytes
            (2, 2**23),  # 2^47: just past six bytes
        ],
    )
    def test_products_at_byte_boundaries(self, n, m):
        # constant coefficients attain the bound n * m * m at index n - 1
        plus = QSeries(4, (m,) * n)
        minus = QSeries(6, (-m,) * n)
        self.check(plus, plus)
        self.check(plus, minus)
        self.check(minus, minus)
        assert (plus * minus).coefficient(n - 1) == -n * m * m
        alternating = QSeries(6, tuple(m if i % 2 else -m for i in range(n)))
        self.check(plus, alternating)
        self.check(alternating, alternating)


class TestRingAxioms:
    def test_random_commutativity_associativity_distributivity(self):
        rng = random.Random(20260811)
        for _ in range(25):
            a = random_series(rng, 4, rng.randint(3, 8))
            b = random_series(rng, 4, rng.randint(3, 8))
            c = random_series(rng, 6, rng.randint(3, 8))
            assert a + b == b + a
            assert a * c == c * a
            assert (a * b) * c == a * (b * c)
            n = min(a.precision, b.precision, c.precision)
            lhs = c * (a + b)
            rhs = c * a + c * b
            assert lhs.truncate(n) == rhs.truncate(n)


class TestEquality:
    def test_reflexive(self):
        g = eisenstein(4, 7)
        assert g.truncate(7) == g
        assert eisenstein(4, 9).truncate(7) == g

    def test_sign_flip_differs_at_first_term(self):
        g = eisenstein(4, 3)
        assert g.truncate(1) != (-1 * g).truncate(1)

    def test_truncate(self):
        g = eisenstein(4, 6)
        assert g.truncate(2).coeffs == g.coeffs[:2]
        for bad in (0, 7):
            with pytest.raises(ValueError):
                g.truncate(bad)


def test_str_rendering():
    assert str(eisenstein(4, 3)) == "1/240 + q + 9*q^2 + O(q^3)"
    assert str(QSeries(4, (0,) * 2)) == "0 + O(q^2)"
