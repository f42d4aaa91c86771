from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, gcd

import pytest

from eisbasis import dimension_data
from eisbasis.arith import bernoulli, dimension_oracle, sigma
from helpers import bernoulli_table, brute_sigma


class TestBernoulli:
    def test_base_case(self):
        assert bernoulli(0) == 1

    @pytest.mark.parametrize(
        "n, expected",
        [(2, Fraction(1, 6)), (4, Fraction(-1, 30)), (6, Fraction(1, 42)),
         (8, Fraction(-1, 30)), (12, Fraction(-691, 2730))],
    )
    def test_known_values(self, n, expected):
        assert bernoulli(n) == expected

    def test_matches_full_recurrence_oracle(self):
        table = bernoulli_table(60)
        for n in range(0, 62, 2):
            if n <= 60:
                assert bernoulli(n) == table[n], f"B_{n} disagrees with recurrence"

    def test_recurrence_identity_holds(self):
        # sum_{j=0}^{n} C(n+1, j) B_j = 0 with B_1 = -1/2 and zero odd tail
        for n in range(2, 62, 2):
            acc = Fraction(n + 1, -2)
            for j in range(0, n + 1, 2):
                acc += comb(n + 1, j) * bernoulli(j)
            assert acc == 0, f"recurrence fails at n={n}"

    @pytest.mark.parametrize("bad", [-2, -1, 1, 3, 7, 61])
    def test_rejects_odd_and_negative(self, bad):
        with pytest.raises(ValueError):
            bernoulli(bad)

    def test_concurrent_fill_is_consistent(self):
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(bernoulli, [80] * 16))
        assert len(set(results)) == 1
        assert results[0] == bernoulli(80)


class TestSigma:
    def test_single_divisor(self):
        assert sigma(3, 1) == 1

    def test_two_divisors(self):
        assert sigma(3, 2) == 9

    def test_zero_argument_convention(self):
        assert sigma(3, 0) == Fraction(1, 240)
        assert sigma(3, 0) == -bernoulli(4) / 8

    def test_matches_brute_force(self):
        for r in (3, 5, 7, 9, 11):
            for m in range(1, 61):
                assert sigma(r, m) == brute_sigma(r, m)

    def test_multiplicative_on_coprime_arguments(self):
        pairs = [(m, n) for m in range(1, 30) for n in range(1, 30) if gcd(m, n) == 1]
        for m, n in pairs:
            assert sigma(5, m * n) == sigma(5, m) * sigma(5, n)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97])
    def test_prime_values(self, p):
        assert sigma(7, p) == 1 + p**7

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sigma(3, -1)
        with pytest.raises(ValueError):
            sigma(2, 5)
        with pytest.raises(ValueError):
            sigma(-3, 5)
        with pytest.raises(ValueError):
            sigma(1, 0)  # weight-2 constant term must not exist

    def test_exponent_one_allowed_for_positive_argument(self):
        assert sigma(1, 6) == 1 + 2 + 3 + 6


class TestDimensions:
    @pytest.mark.parametrize(
        "weight, dim_cusp, dim_modular",
        [(12, 1, 2), (26, 1, 2), (36, 3, 4), (4, 0, 1), (68, 5, 6)],
    )
    def test_case_split(self, weight, dim_cusp, dim_modular):
        d = dimension_data(weight)
        assert (d.dim_cusp, d.dim_modular) == (dim_cusp, dim_modular)

    @pytest.mark.parametrize("weight, expected", [(12, 2), (36, 4), (14, 1)])
    def test_oracle_values(self, weight, expected):
        assert dimension_oracle(weight) == expected

    def test_formulas_agree_up_to_400(self):
        for w in range(4, 402, 2):
            assert dimension_data(w).dim_modular == dimension_oracle(w), w

    def test_no_cusp_forms_exactly_at_small_weights(self):
        zero = {w for w in range(4, 402, 2) if dimension_data(w).dim_cusp == 0}
        assert zero == {4, 6, 8, 10, 14}

    @pytest.mark.parametrize("bad", [2, 3, 0, -4, 7, 36.0])
    def test_rejects_invalid_weights(self, bad):
        with pytest.raises(ValueError):
            dimension_data(bad)
        with pytest.raises(ValueError):
            dimension_oracle(bad)
