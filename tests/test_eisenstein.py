import importlib
from fractions import Fraction

import pytest

from eisbasis import QSeries, eisenstein, eisenstein_product
from eisbasis.arith import bernoulli, dimension_data, sigma
from eisbasis.basis import CERTIFY_MODULUS

EISENSTEIN_MODULE = importlib.import_module("eisbasis.eisenstein")


@pytest.mark.parametrize(
    "weight, precision, expected",
    [
        (4, 3, (Fraction(1, 240), 1, 9)),
        (8, 2, (Fraction(1, 480), 1)),
        (12, 2, (Fraction(691, 65520), 1)),
        (6, 4, (Fraction(-1, 504), 1, 33, 244)),
    ],
)
def test_expansions(weight, precision, expected):
    assert eisenstein(weight, precision).coeffs == expected


def test_weight_tag_and_precision():
    s = eisenstein(10, 7)
    assert s.weight == 10
    assert s.precision == 7


@pytest.mark.parametrize("bad", [2, 3, 0, -4])
def test_rejects_bad_weights(bad):
    with pytest.raises(ValueError):
        eisenstein(bad, 5)


@pytest.mark.parametrize("bad", [0, True])
def test_rejects_bad_precision(bad):
    # a bool is an int subclass, but True is not a series length
    with pytest.raises(ValueError, match=f"^precision must be a positive integer, got {bad}$"):
        eisenstein(4, bad)


@pytest.mark.parametrize(
    "series, args",
    [(eisenstein, (4, 3)), (eisenstein_product, (4, 8, 3)), (eisenstein, (6, 1005))],
)
def test_float_precision_is_rejected_whether_or_not_its_int_is_cached(series, args):
    # eisenstein's cache is typed, so its int entry never answers a float
    # key; eisenstein_product has no cache and checks every call
    *head, precision = args
    message = f"^precision must be a positive integer, got {float(precision)}$"
    with pytest.raises(ValueError, match=message):
        series(*head, float(precision))
    series(*args)
    with pytest.raises(ValueError, match=message):
        series(*head, float(precision))


def test_repeated_calls_agree():
    assert eisenstein(4, 5) == eisenstein(4, 5)
    assert eisenstein(4, 8).truncate(5) == eisenstein(4, 5)


def test_constant_term_is_the_literal_definition():
    # sign is NOT constant across weights; assert the exact formula instead
    for weight in range(4, 62, 2):
        assert eisenstein(weight, 1).coefficient(0) == -bernoulli(weight) / (2 * weight)


def test_positive_integer_coefficients_past_the_constant():
    # the divisor sieve against sigma's trial division, the reference
    for weight in range(4, 242, 2):
        series = eisenstein(weight, 8)
        assert series.coefficient(1) == 1
        for m in range(1, 8):
            assert type(sigma(weight - 1, m)) is int
            value = series.coefficient(m)
            assert value.denominator == 1 and value > 0
        # the integer build equals, and hashes like, the Fraction constructor's
        for precision in (1, 2, 8, 25):
            direct = QSeries(weight, [sigma(weight - 1, m) for m in range(precision)])
            assert eisenstein(weight, precision) == direct
            assert hash(eisenstein(weight, precision)) == hash(direct)


@pytest.mark.parametrize("modulus", [7, 691, CERTIFY_MODULUS])
def test_residue_rows_are_the_exact_cleared_rows_reduced(modulus):
    # 7 divides a_0(G_6)'s denominator 504, so G_6's row is 0 past a_0, and
    # 691 divides a_0(G_12)'s numerator, so G_12's a_0 reduces to 0
    for weight in range(4, 242, 2):
        length = dimension_data(weight).dim_cusp + 2
        exact = eisenstein(weight, length).numerators
        residues = EISENSTEIN_MODULE._cleared(weight, length, modulus)
        assert residues == tuple(v % modulus for v in exact)


def test_sigma_is_read_only_for_the_constant_term(monkeypatch):
    # every coefficient past a_0 comes from the divisor sieve; a precision
    # no other test asks for keeps both caches from answering
    calls = []

    def recording(r, m):
        calls.append(m)
        return sigma(r, m)

    monkeypatch.setattr(EISENSTEIN_MODULE, "sigma", recording)
    series = eisenstein(22, 173)
    assert series == QSeries(22, [sigma(21, m) for m in range(173)])
    assert set(calls) <= {0}


@pytest.mark.parametrize(
    "u, v, precision, expected",
    [
        (4, 8, 2, (Fraction(1, 115200), Fraction(1, 160))),
        (4, 4, 1, (Fraction(1, 57600),)),
        (6, 6, 1, (Fraction(1, 254016),)),
    ],
)
def test_product_values(u, v, precision, expected):
    assert eisenstein_product(u, v, precision).coeffs == expected


def test_product_symmetry():
    for u in range(4, 22, 2):
        for v in range(u, 22, 2):
            assert eisenstein_product(u, v, 12) == eisenstein_product(v, u, 12)


def test_product_weight():
    assert eisenstein_product(6, 10, 3).weight == 16


def test_product_matches_convolution_sum():
    # direct two-divisor-sum evaluation vs series multiplication, for every
    # factor pair of total weight <= 40
    for total in range(8, 42, 2):
        for u in range(4, total - 3, 2):
            v = total - u
            if v < 4:
                continue
            direct = tuple(
                sum(sigma(u - 1, l) * sigma(v - 1, n - l) for l in range(n + 1))
                for n in range(20)
            )
            assert eisenstein_product(u, v, 20).coeffs == direct


@pytest.mark.parametrize("u, v", [(2, 10), (10, 2), (5, 7)])
def test_product_rejects_weight_two_factor(u, v):
    with pytest.raises(ValueError, match="weight"):
        eisenstein_product(u, v, 5)
