"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.
"""

import json
import time
from fractions import Fraction

import eisbasis
from eisbasis import (
    classical_basis,
    cusp_basis,
    eisenstein_product,
    express,
    new_basis,
    verify_basis,
)
from eisbasis.arith import bernoulli, dimension_oracle, sigma
from eisbasis.basis import BasisKind, basis_descriptors
from eisbasis.cli import main
from helpers import TAU, bernoulli_table, brute_sigma, delta_series

WEIGHT_36_SUBTRAHENDS = [
    "1479565184909325423/286310154497221833818240",
    "651138973032093/122102860006168135010720",
    "114819293577343/1149451061437375891652640",
]


def test_criterion_1_weight_36_example_reproduced_verbatim(capsys):
    started = time.monotonic()

    assert main(["basis", "--weight", "36", "--kind", "new-m", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [el["label"] for el in doc["elements"]] == [
        "G_36",
        "G_4*G_32",
        "G_8*G_28",
        "G_12*G_24",
    ]

    assert main(["basis", "--weight", "36", "--kind", "new-s", "--format", "text"]) == 0
    text = capsys.readouterr().out
    lines = [line for line in text.splitlines() if line.startswith("G_")]
    assert lines == [
        f"G_4*G_32 - {WEIGHT_36_SUBTRAHENDS[0]}*G_36",
        f"G_8*G_28 - {WEIGHT_36_SUBTRAHENDS[1]}*G_36",
        f"G_12*G_24 - {WEIGHT_36_SUBTRAHENDS[2]}*G_36",
    ]
    for el, subtrahend in zip(cusp_basis(36).elements, WEIGHT_36_SUBTRAHENDS):
        assert el.descriptor.c == -Fraction(subtrahend)

    assert time.monotonic() - started < 5.0


def test_criterion_2_full_space_bases_certified_to_weight_120():
    started = time.monotonic()
    for weight in range(4, 122, 2):
        basis = new_basis(weight)
        assert len(basis.elements) == dimension_oracle(weight)
        report = verify_basis(weight, BasisKind.NEW_M)
        assert report.determinant is not None and report.determinant != 0, weight
        assert report.nonsingular is True, weight
        assert report.confirmed, weight
    assert time.monotonic() - started < 60.0


def test_criterion_3_cusp_bases_certified_to_weight_120():
    for weight in range(4, 122, 2):
        basis = cusp_basis(weight)
        for el in basis.elements:
            assert el.series.coefficient(0) == 0, (weight, el.descriptor.label())
        report = verify_basis(weight, BasisKind.NEW_S)
        assert report.constant_terms_vanish is True
        assert report.element_count == dimension_oracle(weight) - 1
        if basis.elements:
            assert report.determinant != 0, weight
            assert report.nonsingular is True, weight
        assert report.confirmed, weight


def test_criterion_4_span_equivalence_to_weight_60():
    for weight in range(4, 62, 2):
        precision = 2 * len(basis_descriptors(weight, "new-m")) + 8
        new = new_basis(weight, precision)
        classical = classical_basis(weight, precision)
        for el in classical.elements:
            express(el.series, new)  # SpanError on any nonzero residual
        for el in new.elements:
            express(el.series, classical)


def test_criterion_5_discriminant_coordinates_and_tau_values():
    delta = delta_series(21)
    assert [delta.coefficient(n) for n in range(21)] == [0] + TAU

    basis = new_basis(12, 21)
    coords = express(delta, basis)
    assert coords == [Fraction(-91, 600), Fraction(2764, 15)]

    reconstruction = coords[0] * basis.elements[0].series + coords[1] * basis.elements[1].series
    for n in range(21):
        assert reconstruction.coefficient(n) == delta.coefficient(n)


def test_criterion_6_arithmetic_oracles():
    table = bernoulli_table(60)
    for n in range(0, 62, 2):
        if n <= 60:
            assert bernoulli(n) == table[n]

    for r in (3, 5, 7, 9, 11):
        for m in range(1, 201):
            assert sigma(r, m) == brute_sigma(r, m)

    for weight in range(8, 42, 2):
        for descriptor in basis_descriptors(weight, "new-m")[1:]:
            u, v = descriptor.u, descriptor.v
            product = eisenstein_product(u, v, 16)
            for n in range(16):
                direct = sum(sigma(u - 1, l) * sigma(v - 1, n - l) for l in range(n + 1))
                assert product.coefficient(n) == direct, (u, v, n)


def test_criterion_7_no_transcendental_surface():
    # The certification route is entirely constructive (criteria 2-4);
    # analytic machinery is deliberately absent from the public API.
    banned = ("period", "petersson", "l_series", "lseries", "eigenform", "rankin")
    for name in eisbasis.__all__:
        lowered = name.lower()
        assert not any(term in lowered for term in banned), name
