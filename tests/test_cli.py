import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import eisbasis.arith
import eisbasis.basis
import eisbasis.cli
from eisbasis import QSeries, basis_for, eisenstein, verify_basis
from eisbasis.basis import BasisKind
from eisbasis.cli import (
    _coefficient_parts,
    _coefficient_texts,
    basis_from_document,
    basis_to_document,
    format_rational,
    main,
    parse_rational,
    run,
    series_from_document,
    series_to_document,
)
from helpers import delta_series, tampered_at


# the package's eisenstein function hides the submodule of the same name
EISENSTEIN_MODULE = importlib.import_module("eisbasis.eisenstein")
FROZEN = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "frozen.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRationalStrings:
    def test_round_trip(self):
        for value in (Fraction(0), Fraction(-91, 600), Fraction(5), Fraction(7, 3)):
            assert parse_rational(format_rational(value)) == value

    def test_accepts_typographic_minus(self):
        assert parse_rational("\u221291/600") == Fraction(-91, 600)

    @pytest.mark.parametrize(
        "bad", ["+3", "3/1", "2/4", "-0", "03", "1/-2", "1.5", "", "1/0", "a/b"]
    )
    def test_rejects_non_canonical(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_output_is_canonical(self):
        assert format_rational(Fraction(-6, 4)) == "-3/2"
        assert format_rational(Fraction(8, 2)) == "4"


class TestSeriesDocuments:
    def test_round_trip(self):
        series = eisenstein(12, 6)
        doc = series_to_document(series)
        assert series_from_document(json.loads(json.dumps(doc))) == series

    def test_mixed_denominators_load_as_the_series_of_their_fractions(self):
        texts = ["1/2", "-1/3", "0", "5", "\u22127/12"]
        doc = {"weight": 4, "precision": len(texts), "coefficients": texts}
        series = QSeries(4, [Fraction(1, 2), Fraction(-1, 3), 0, 5, Fraction(-7, 12)])
        assert series_from_document(doc) == series
        assert series.denominator == 12

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            series_from_document({"weight": 4, "precision": 3, "coefficients": ["1"]})

    @pytest.mark.parametrize(
        "weight, coefficients, message",
        [
            # a malformed coefficient is reported before the weight
            (13, ["1", "x"], "^malformed rational string 'x'$"),
            (13, ["2/4"], "^non-canonical rational string '2/4'$"),
            (13, [], "^weight must be an even integer >= 4, got 13$"),
            (2, [], "^weight 2 rejected"),
            (12, [], "^a series needs at least one coefficient$"),
        ],
    )
    def test_errors_come_coefficients_first_then_weight_then_length(
        self, weight, coefficients, message
    ):
        doc = {"weight": weight, "precision": len(coefficients), "coefficients": coefficients}
        with pytest.raises(ValueError, match=message):
            series_from_document(doc)

    def test_rejects_extra_keys_and_bad_types(self):
        with pytest.raises(ValueError):
            series_from_document({"weight": 4, "precision": 1, "coefficients": ["1"], "x": 1})
        with pytest.raises(ValueError):
            series_from_document({"weight": "4", "precision": 1, "coefficients": ["1"]})
        with pytest.raises(ValueError):
            series_from_document([1, 2, 3])
        for key in ("weight", "precision", "coefficients"):
            doc = {"weight": 4, "precision": 1, "coefficients": ["1"]}
            del doc[key]
            with pytest.raises(ValueError, match=key):
                series_from_document(doc)


class TestCoefficientTexts:
    """Documents render coefficients from a series' integers with one
    full-size gcd per series; every text must be what str() of the
    coefficient's Fraction gives."""

    def test_every_basis_to_weight_120_renders_as_its_fractions(self):
        shared = 0
        for weight in range(4, 122, 2):
            for kind in BasisKind:
                for el in basis_for(weight, kind).elements:
                    coeffs = el.series.coeffs
                    assert _coefficient_texts(el.series) == [str(c) for c in coeffs]
                    parts = _coefficient_parts(el.series)
                    assert parts == [(c.numerator, c.denominator) for c in coeffs]
                    shared += any(d != el.series.denominator for n, d in parts if n)
        # many elements have a coefficient whose lowest terms drop a factor
        assert shared > 100

    def test_documents_leave_the_fraction_cache_empty(self):
        basis = basis_for(36, BasisKind.NEW_S, 16)
        basis_to_document(basis)
        series_to_document(basis.elements[0].series)
        assert all("coeffs" not in vars(el.series) for el in basis.elements)


class TestBasisDocuments:
    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_round_trip(self, kind):
        for weight in (4, 12, 36, 60):
            basis = basis_for(weight, kind, 8)
            doc = json.loads(json.dumps(basis_to_document(basis)))
            assert basis_from_document(doc) == basis, weight

    def test_round_trip_empty_cusp_basis(self):
        basis = basis_for(4, BasisKind.NEW_S, 16)
        assert basis_from_document(basis_to_document(basis)) == basis

    def test_rejects_precision_that_disagrees_with_coefficient_count(self):
        doc = basis_to_document(basis_for(12, BasisKind.NEW_M, 16))
        doc["precision"] = 999
        with pytest.raises(ValueError, match="precision 999"):
            basis_from_document(doc)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("weight", "abc"),
            ("weight", True),
            ("u", 4.0),
            # a string of sixteen digits must not load as sixteen coefficients
            ("coefficients", "1111111111111111"),
            ("elements", "abc"),
            ("elements", {"descriptor": {"type": "single", "weight": 12}}),
        ],
    )
    def test_rejects_non_integer_descriptor_field(self, field, bad):
        doc = basis_to_document(basis_for(12, BasisKind.NEW_M, 16))
        owner = {
            "elements": doc,
            "coefficients": doc["elements"][0],
            "weight": doc["elements"][0]["descriptor"],
            "u": doc["elements"][1]["descriptor"],
        }[field]
        owner[field] = bad
        with pytest.raises(ValueError, match=field):
            basis_from_document(doc)

    @pytest.mark.parametrize("key", ["weight", "kind", "precision", "elements"])
    def test_rejects_missing_field(self, key):
        doc = basis_to_document(basis_for(12, BasisKind.NEW_M, 16))
        del doc[key]
        with pytest.raises(ValueError):
            basis_from_document(doc)

    def test_rejects_element_that_is_not_an_object(self):
        doc = basis_to_document(basis_for(12, BasisKind.NEW_M, 16))
        doc["elements"][1] = ["G_4*G_8"]
        with pytest.raises(ValueError, match="element 1 must be a JSON object"):
            basis_from_document(doc)

    def test_ignores_unknown_keys(self):
        basis = basis_for(12, BasisKind.NEW_M, 16)
        doc = basis_to_document(basis)
        doc["note"] = "x"
        doc["elements"][0]["note"] = "y"
        assert basis_from_document(doc) == basis


class TestBasisDocumentRealization:
    """A document must be exactly what basis_to_document writes for the
    basis its weight, kind and precision fix."""

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_rejects_tampered_coefficient(self, kind):
        doc = basis_to_document(basis_for(36, kind, 16))
        coefficients = doc["elements"][2]["coefficients"]
        coefficients[9] = format_rational(parse_rational(coefficients[9]) + Fraction(1, 7))
        with pytest.raises(ValueError, match=r"element 2 .* coefficient index 9"):
            basis_from_document(doc)

    def test_rejects_correction_other_than_cusp_correction(self):
        # coefficients consistent with the wrong c: only the descriptor sees it
        basis = basis_for(36, BasisKind.NEW_S, 16)
        doc = basis_to_document(basis)
        descriptor = basis.elements[1].descriptor
        wrong = descriptor.c + 1
        u, v = descriptor.u, descriptor.v
        series = eisenstein(u, 16) * eisenstein(v, 16) + wrong * eisenstein(36, 16)
        doc["elements"][1]["descriptor"]["c"] = format_rational(wrong)
        doc["elements"][1]["coefficients"] = [format_rational(c) for c in series.coeffs]
        with pytest.raises(ValueError, match=rf'^element 1 \(G_8\*G_28 .*"c": "{wrong}"'):
            basis_from_document(doc)

    def test_correction_must_be_the_canonical_string(self):
        # U+2212 is a minus sign in coefficients, but not in a descriptor's c
        basis = basis_for(36, BasisKind.NEW_S, 16)
        doc = basis_to_document(basis)
        for element in doc["elements"]:
            element["coefficients"] = [c.replace("-", "\u2212") for c in element["coefficients"]]
        assert basis_from_document(doc) == basis
        doc["elements"][0]["descriptor"]["c"] = doc["elements"][0]["descriptor"]["c"].replace(
            "-", "\u2212"
        )
        with pytest.raises(ValueError, match="element 0 .* must have descriptor"):
            basis_from_document(doc)

    def test_rejects_document_weight_other_than_descriptor_weight(self):
        doc = basis_to_document(basis_for(36, BasisKind.NEW_M, 16))
        doc["weight"] = 38
        with pytest.raises(ValueError) as info:
            basis_from_document(doc)
        assert str(info.value) == (
            "a new-m basis of weight 38 has 3 elements, but the document has 4"
        )

    def test_rejects_descriptor_weight_other_than_document_weight(self):
        doc = basis_to_document(basis_for(36, BasisKind.CLASSICAL, 16))
        doc["elements"][1]["descriptor"]["g6_exponent"] += 1
        with pytest.raises(
            ValueError, match=r'^element 1 \(G_4\^6\*G_6\^2\) must have .*"g6_exponent": 3'
        ):
            basis_from_document(doc)

    @pytest.mark.parametrize(
        "kind, position, key, value",
        [
            ("classical", 0, "g4_exponent", 10**9),
            ("new-m", 1, "u", 10**7),
            ("new-s", 0, "u", 10**7),
        ],
        ids=["monomial", "product", "cusp-combo"],
    )
    def test_descriptor_weight_is_checked_before_anything_is_computed(
        self, monkeypatch, kind, position, key, value
    ):
        # a huge exponent or factor weight would fill that many table powers,
        # or compute divisor sums and Bernoulli numbers of that size: nothing
        # may be computed above the document weight, whether or not the
        # element count is right
        weight = 12

        def bounded(name, function, *limited):
            def wrapper(*args):
                assert all(args[i] <= weight for i in limited), (name, args)
                return function(*args)

            return wrapper

        doc = basis_to_document(basis_for(weight, kind, 16))
        doc["elements"][position]["descriptor"][key] = value
        count = len(doc["elements"])
        extra = dict(doc, elements=doc["elements"] + [doc["elements"][position]])
        # every constant term, the cusp corrections' too, reads sigma in
        # eisenstein, and sigma reads arith's bernoulli; every exact or
        # residue series starts its divisor sieve from its constant term
        monkeypatch.setattr(EISENSTEIN_MODULE, "sigma", bounded("sigma", eisbasis.arith.sigma, 0))
        monkeypatch.setattr(
            eisbasis.arith, "bernoulli", bounded("bernoulli", eisbasis.arith.bernoulli, 0)
        )
        monkeypatch.setattr(
            eisbasis.basis,
            "_eisenstein_power",
            bounded("power", eisbasis.basis._eisenstein_power, 0, 1),
        )
        with pytest.raises(ValueError) as info:
            basis_from_document(extra)
        assert str(info.value) == (
            f"a {kind} basis of weight 12 has {count} elements, but the document has {count + 1}"
        )
        with pytest.raises(ValueError, match=rf"^element {position} .* not .*{value}"):
            basis_from_document(doc)

    def test_rejects_factor_of_weight_zero(self):
        # nothing may compute the cusp correction of a weight-0 factor,
        # which would divide by it
        doc = basis_to_document(basis_for(36, BasisKind.NEW_S, 16))
        doc["elements"][0]["descriptor"].update(u=0, v=36)
        with pytest.raises(ValueError, match=r'^element 0 .*"u": 0, "v": 36'):
            basis_from_document(doc)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_rejects_values_that_only_compare_equal(self, value):
        # G_4*G_6 has both exponents 1, and Python has True == 1.0 == 1
        doc = basis_to_document(basis_for(10, BasisKind.CLASSICAL, 16))
        doc["elements"][0]["descriptor"]["g4_exponent"] = value
        with pytest.raises(ValueError, match=r"^element 0 \(G_4\*G_6\) must have descriptor"):
            basis_from_document(json.loads(json.dumps(doc)))

    def test_rejects_negative_monomial_exponent(self):
        doc = basis_to_document(basis_for(12, BasisKind.CLASSICAL, 16))
        doc["elements"][0]["descriptor"].update(g4_exponent=-3, g6_exponent=4)
        with pytest.raises(ValueError, match="exponent"):
            basis_from_document(doc)

    def test_rejects_classical_monomials_under_another_kind(self):
        # new-m and classical have the same element count at every weight
        doc = basis_to_document(basis_for(36, BasisKind.CLASSICAL, 16))
        doc["kind"] = "new-m"
        with pytest.raises(ValueError, match=r"^element 0 \(G_36\) must have descriptor"):
            basis_from_document(doc)

    def test_rejects_reordered_elements(self):
        doc = basis_to_document(basis_for(36, BasisKind.NEW_S, 16))
        doc["elements"].reverse()
        with pytest.raises(ValueError, match=r"^element 0 \(G_4\*G_32 .* must have descriptor"):
            basis_from_document(doc)

    def test_rejects_false_label(self):
        doc = basis_to_document(basis_for(36, BasisKind.NEW_M, 16))
        doc["elements"][1]["label"] = "G_8*G_28"
        with pytest.raises(ValueError, match="element 1 must have label 'G_4\\*G_32'"):
            basis_from_document(doc)

    def test_rejects_missing_element(self):
        doc = basis_to_document(basis_for(36, BasisKind.CLASSICAL, 16))
        del doc["elements"][-1]
        with pytest.raises(ValueError, match="has 4 elements, but the document has 3"):
            basis_from_document(doc)

    def test_rejects_wrong_descriptors_before_realizing_any_series(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("realized a series for a document with wrong descriptors")

        for name in ("eisenstein", "eisenstein_product", "_eisenstein_power"):
            monkeypatch.setattr(eisbasis.basis, name, unreachable)
        precision = eisbasis.basis.default_precision(600)
        element = {"descriptor": {}, "label": "", "coefficients": ["0"] * precision}
        doc = {"weight": 600, "kind": "new-m", "precision": precision, "elements": [element] * 51}
        with pytest.raises(ValueError, match=r"^element 0 \(G_600\) must have descriptor"):
            basis_from_document(doc)

    def test_rejects_wrong_cusp_descriptors_before_computing_any_correction(self, monkeypatch):
        original = eisbasis.arith.bernoulli

        def bounded(n):
            assert n <= 4, f"computed B_{n} for a document with wrong descriptors"
            return original(n)

        # every constant term, and so every correction, reads arith's bernoulli
        monkeypatch.setattr(eisbasis.arith, "bernoulli", bounded)
        precision = eisbasis.basis.default_precision(1200)
        element = {"descriptor": {}, "label": "", "coefficients": ["0"] * precision}
        doc = {"weight": 1200, "kind": "new-s", "precision": precision, "elements": [element] * 100}
        with pytest.raises(ValueError) as info:
            basis_from_document(doc)
        assert str(info.value) == (
            "element 0 (G_4*G_1196 + c*G_1200) must have descriptor type, u and v "
            '{"type": "cusp-combo", "u": 4, "v": 1196}, not {}'
        )
        doc["elements"] = [
            {"descriptor": {"type": "cusp-combo", "u": 4 * i, "v": 1200 - 4 * i, "c": "0"}}
            for i in range(1, 100)
        ] + [{"descriptor": {"type": "cusp-combo", "u": 400, "v": 800.0, "c": "0"}}]
        for element in doc["elements"]:
            element.update(label="", coefficients=["0"] * precision)
        with pytest.raises(ValueError, match=r'^element 99 \(G_400\*G_800 .*"v": 800\.0'):
            basis_from_document(doc)

    def test_rejects_short_cusp_document_before_computing_any_correction(self, monkeypatch):
        # right type, u and v, but too short to certify: the floor is checked
        # with the counts, before any Bernoulli number above B_4
        original = eisbasis.arith.bernoulli

        def bounded(n):
            assert n <= 4, f"computed B_{n} for a document below the precision floor"
            return original(n)

        monkeypatch.setattr(eisbasis.arith, "bernoulli", bounded)
        elements = [
            {"descriptor": {"type": "cusp-combo", "u": 4 * i, "v": 1200 - 4 * i, "c": "0"},
             "label": "", "coefficients": ["0"]}
            for i in range(1, 101)
        ]
        doc = {"weight": 1200, "kind": "new-s", "precision": 1, "elements": elements}
        with pytest.raises(ValueError) as info:
            basis_from_document(doc)
        assert str(info.value) == "precision 1 too small for weight 1200: need >= 102"

    def test_rejects_empty_document_of_a_huge_weight_before_building(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("built a basis for a document without elements")

        monkeypatch.setattr(eisbasis.cli, "basis_for", unreachable)
        doc = {"weight": 120000, "kind": "new-m", "precision": 10002, "elements": []}
        with pytest.raises(ValueError, match="has 10001 elements, but the document has 0"):
            basis_from_document(doc)


class TestDims:
    def test_single_weight_text(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--weight", "36")
        assert code == 0
        assert re.search(r"36\s+3\s+4", out)

    def test_sweep_json(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--max-weight", "14", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0] == {"weight": 4, "dim_cusp": 0, "dim_modular": 1}
        assert rows[-1] == {"weight": 14, "dim_cusp": 0, "dim_modular": 1}
        assert [r["weight"] for r in rows] == list(range(4, 16, 2))

    def test_invalid_weight_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "dims", "--weight", "7")
        assert code == 2
        assert "error" in err


class TestBasisCommand:
    def test_new_m_36_labels_in_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--weight", "36", "--kind", "new-m", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert [el["label"] for el in doc["elements"]] == [
            "G_36",
            "G_4*G_32",
            "G_8*G_28",
            "G_12*G_24",
        ]

    def test_new_s_36_constants(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--weight", "36", "--kind", "new-s", "--format", "json"
        )
        doc = json.loads(out)
        constants = [el["descriptor"]["c"] for el in doc["elements"]]
        assert constants == [
            "-1479565184909325423/286310154497221833818240",
            "-651138973032093/122102860006168135010720",
            "-114819293577343/1149451061437375891652640",
        ]

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--weight", "12", "--kind", "new-s", "--prec", "6",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["descriptor", "c", "a_0"]
        row = lines[1].split(",")
        assert row[0] == "G_4*G_8 + c*G_12"
        assert row[1] == "-91/110560"
        assert row[2] == "0"
        assert len(row) == 8

    def test_text_mirrors_subtraction(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--weight", "12", "--kind", "new-s")
        assert code == 0
        assert "G_4*G_8 - 91/110560*G_12" in out

    def test_empty_cusp_list_is_success(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--weight", "4", "--kind", "new-s", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["elements"] == []

    def test_precision_floor(self, capsys):
        code, _, err = run_cli(
            capsys, "basis", "--weight", "36", "--kind", "new-m", "--prec", "3"
        )
        assert code == 2
        assert "precision" in err

    def test_no_floats_and_canonical_strings_everywhere(self, capsys):
        for kind in ("new-m", "new-s", "classical"):
            code, out, _ = run_cli(
                capsys, "basis", "--weight", "24", "--kind", kind, "--format", "json"
            )
            assert code == 0
            doc = json.loads(out)

            def walk(node):
                assert not isinstance(node, float)
                if isinstance(node, dict):
                    for v in node.values():
                        walk(v)
                elif isinstance(node, list):
                    for v in node:
                        walk(v)
                elif isinstance(node, str) and re.match(r"^-?[0-9/]+$", node):
                    parse_rational(node)  # raises on "+", "p/1", non-reduced

            walk(doc)

    # SHA-256 of the stdout of `eisbasis basis --weight W --kind K --format F`
    # at the default precision, both parity classes; captured before the
    # descriptor format moved into one table, so any change here is a
    # change of output format
    GOLDEN = {
        (36, "new-m", "json"): "3759738f39b3ff247bdd42c9dccf12a3a57340d004a3d1a14f3c142680c94aa7",
        (36, "new-m", "csv"): "bad5c5c4858b82637113edcdd4ec2ca645acecbda007f06100019811a0147dac",
        (36, "new-m", "text"): "8eaccc1ef233757828107645ecdde780905af3ed257d27ff5454e7b416bee15e",
        (36, "new-s", "json"): "7cd564e940614e464e47b4a27fda33b1c89b1429546419fd2b427441c0b366fa",
        (36, "new-s", "csv"): "ebd03761fc6883074a2491ab319c87003fafca516d599d5468484426c88f3e42",
        (36, "new-s", "text"): "b99dc06bcaccf982ba21a42fe903b78475d51d665a83a2dbd4e6f6bd71694e8f",
        (36, "classical", "json"): "060ee07c80ce9a367df73d13cbd20bcfa6ca1b0a23d05e217b6fcc01b1c32e03",
        (36, "classical", "csv"): "576b8baaf6718a5b28bf324b4de8721dbc1c3f0feb960fa68c58b6a928fb39b4",
        (36, "classical", "text"): "381ae1eb20f5e230abeec1136c1561e08d23260912966bcdf164bd3365bb231b",
        (38, "new-m", "json"): "7a9ac1031691c507fc51b9968e7443c8746c5cb71fcfb6ffb2d2387f160056d6",
        (38, "new-m", "csv"): "a2899a8a4d396b0284056c9a4441b8d6056f998839fab59282bae15f402c2ad7",
        (38, "new-m", "text"): "a507e9add7a651ed511b9c47f7c96f6c6187673b6d41305cf323472eada57244",
        (38, "new-s", "json"): "9f3215571d41997886192f9a3f811824277cbc823569f869378da0e89fead7ae",
        (38, "new-s", "csv"): "cc6090eea0946e9633ccd5e2cb67651ebce2121ff5d40fd55fb6052ff50a9637",
        (38, "new-s", "text"): "84de037f7bb6dc283e7939f930428dd762fb33532107e0df51f5a37e53a2cd57",
        (38, "classical", "json"): "d4e6ec457538ea1983ab3c894ab2ecafac616530975dd1c16b193dbe695cbd78",
        (38, "classical", "csv"): "fee7240a5e8eb0c6102890c0fb4795fde546a0c03c5f7137cd5c126af4ad3417",
        (38, "classical", "text"): "6b72786590a2c246710b2df9582ecb16498ad798b5894b69b802adc46274d34f",
    }

    @pytest.mark.parametrize("weight, kind, fmt", sorted(GOLDEN))
    def test_output_is_byte_identical_to_golden(self, capsys, weight, kind, fmt):
        code, out, _ = run_cli(
            capsys, "basis", "--weight", str(weight), "--kind", kind, "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[weight, kind, fmt]


class TestVerifyCommand:
    def test_sweep_passes_in_ascending_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-weight", "24")
        assert code == 0
        weights = [int(m.group(1)) for m in re.finditer(r"weight\s+(\d+)", out)]
        assert weights == list(range(4, 26, 2))
        assert "all pass" in out

    def test_vacuous_minimum(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-weight", "4")
        assert code == 0
        assert "vacuous" in out

    def test_full_sweep_to_120(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-weight", "120")
        assert code == 0
        assert "all pass (59 weights)" in out

    def test_corruption_hook_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(eisbasis.cli, "verify_basis", tampered_at(verify_basis, 12))
        code, out, _ = run_cli(capsys, "verify", "--max-weight", "12")
        assert code == 1
        assert "FAIL" in out

    def test_corruption_hook_at_cuspless_weight(self, capsys, monkeypatch):
        monkeypatch.setattr(eisbasis.cli, "verify_basis", tampered_at(verify_basis, 4))
        code, out, _ = run_cli(capsys, "verify", "--max-weight", "4")
        assert code == 1

    def test_verify_lines_agree_with_confirmed_reports(self, capsys, monkeypatch):
        # verify prints its own checks and never reads
        # VerificationReport.confirmed, so the two must not drift apart
        for weight in range(4, 38, 2):
            assert all(verify_basis(weight, kind).confirmed for kind in BasisKind), weight
        for weight in range(4, 38, 2):
            tampered = tampered_at(verify_basis, weight)
            monkeypatch.setattr(eisbasis.cli, "verify_basis", tampered)
            _, out, _ = run_cli(capsys, "verify", "--max-weight", "36")
            lines = dict(zip(range(4, 38, 2), out.splitlines()))
            confirmed = all(tampered(weight, kind).confirmed for kind in BasisKind)
            assert lines.pop(weight).endswith("FAIL") == (not confirmed), weight
            assert all(line.endswith("pass") for line in lines.values()), weight

    def test_dimension_mismatch_fails(self, capsys, monkeypatch):
        # the dim check compares new-m's element count with the independent
        # oracle, so an oracle one too high must fail every weight
        oracle = eisbasis.cli.dimension_oracle
        monkeypatch.setattr(eisbasis.cli, "dimension_oracle", lambda weight: oracle(weight) + 1)
        code, out, _ = run_cli(capsys, "verify", "--max-weight", "8")
        lines = out.splitlines()
        assert code == 1
        assert len(lines) == 4
        for line in lines[:3]:
            assert "dim:BAD" in line and line.endswith("FAIL"), line
        assert lines[3] == "verified weights 4..8: FAILURES (3 weights)"

    def test_invalid_bound(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-weight", "3")
        assert code == 2

    @pytest.mark.parametrize("bound", ["40", "120"])
    def test_output_matches_the_benchmark_record(self, capsys, bound):
        # the stdout and exit code the benchmark holds every run to
        expected = json.loads(FROZEN.read_text(encoding="utf-8"))["verify"][bound]
        code, out, _ = run_cli(capsys, "verify", "--max-weight", bound)
        assert (code, out.splitlines()) == (expected["exit_code"], expected["stdout"])


def write_series(tmp_path, series, mutate=None):
    doc = series_to_document(series)
    if mutate:
        mutate(doc)
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestExpressCommand:
    def test_discriminant_new_m(self, capsys, tmp_path):
        path = write_series(tmp_path, delta_series(21))
        code, out, _ = run_cli(
            capsys, "express", "--weight", "12", "--kind", "new-m", "--input", path
        )
        assert code == 0
        assert json.loads(out) == ["-91/600", "2764/15"]

    def test_basis_element_document(self, capsys, tmp_path):
        path = write_series(tmp_path, eisenstein(12, 21))
        code, out, _ = run_cli(
            capsys, "express", "--weight", "12", "--kind", "new-m", "--input", path
        )
        assert code == 0
        assert json.loads(out) == ["1", "0"]

    def test_tampered_constant_term_fails_at_index_zero(self, capsys, tmp_path):
        def mutate(doc):
            doc["coefficients"][0] = "1"

        path = write_series(tmp_path, delta_series(21), mutate)
        code, _, err = run_cli(
            capsys, "express", "--weight", "12", "--kind", "new-s", "--input", path
        )
        assert code == 1
        assert "index 0" in err

    def test_weight_flag_must_match_document(self, capsys, tmp_path):
        path = write_series(tmp_path, delta_series(21))
        code, _, err = run_cli(
            capsys, "express", "--weight", "16", "--kind", "new-m", "--input", path
        )
        assert code == 2

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run_cli(
            capsys, "express", "--weight", "12", "--kind", "new-m", "--input", str(path)
        )
        assert code == 2

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "express", "--weight", "12", "--kind", "new-m",
            "--input", str(tmp_path / "absent.json"),
        )
        assert code == 2

    def test_rationals_past_the_interpreter_digit_limit(self, capsys, tmp_path):
        # the README discriminant document scaled by 10^4400: every nonzero
        # coefficient, and both coordinates, have more than 4300 digits
        scale = "0" * 4400
        tau = ["1", "-24", "252", "-1472", "4830", "-6048", "-16744", "84480",
               "-113643", "-115920", "534612"]
        doc = {"weight": 12, "precision": 12, "coefficients": ["0"] + [t + scale for t in tau]}
        path = tmp_path / "delta.json"
        path.write_text(json.dumps(doc))
        # interpreters before 3.10.7 have no limit and no getter
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        code, out, err = run_cli(
            capsys, "express", "--weight", "12", "--kind", "new-m", "--input", str(path)
        )
        assert (code, err) == (0, "")
        # -91/600 * 10^4400 = -455 * 10^4397 / 3 and
        # 2764/15 * 10^4400 = 5528 * 10^4399 / 3, written without int->str
        assert json.loads(out) == ["-455" + "0" * 4397 + "/3", "5528" + "0" * 4399 + "/3"]
        assert get_limit() == limit

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(
            capsys, "express", "--weight", "12", "--kind", "new-m", "--input", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: input is not valid JSON: ")

    def test_short_document_of_a_huge_weight_is_rejected_before_building(
        self, capsys, monkeypatch, tmp_path
    ):
        def unreachable(*args):
            raise AssertionError("built a basis for a target too short to express")

        monkeypatch.setattr(eisbasis.cli, "basis_for", unreachable)
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"weight": 2400, "precision": 1, "coefficients": ["0"]}))
        code, out, err = run_cli(
            capsys, "express", "--weight", "2400", "--kind", "new-s", "--input", str(path)
        )
        assert (code, out, err) == (
            2,
            "",
            "error: target precision 1 too small: "
            "need >= 410 coefficients to solve and then verify\n",
        )

    def test_short_document_is_usage_error(self, capsys, tmp_path):
        path = write_series(tmp_path, delta_series(6))
        code, _, err = run_cli(
            capsys, "express", "--weight", "12", "--kind", "new-m", "--input", path
        )
        assert code == 2
        assert "precision" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (["dims", "--weight", "12"], 0),
        (["dims", "--weight", "7"], 2),
        (["express", "--weight", "12", "--kind", "new-m", "--input", "absent.json"], 2),
    ],
)
def test_console_script_exits_with_main_code(capsys, monkeypatch, tmp_path, argv, code):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["eisbasis"] + argv)
    with pytest.raises(SystemExit) as info:
        run()
    assert info.value.code == code


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("module", ["eisbasis", "eisbasis.cli"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-weight", "3"],
        ["verify", "--max-weight", "16"],
        ["dims", "--weight", "12"],
        ["frobnicate"],
    ],
    ids=["bad-bound", "sweep", "dims", "unknown-command"],
)
def test_python_m_behaves_like_console_script(capsys, monkeypatch, module, argv):
    monkeypatch.setattr(sys, "argv", ["eisbasis"] + argv)
    with pytest.raises(SystemExit) as info:
        run()
    captured = capsys.readouterr()
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        info.value.code,
        captured.out,
        captured.err,
    )
    if argv[-1] == "3":
        assert proc.returncode == 2 and "error" in proc.stderr


def test_stdout_closed_early_exits_1_without_a_traceback():
    # the dimension table to 200000 is about 2.1 MB, far past any pipe
    # buffer, so the program is still writing when the reader leaves
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    with subprocess.Popen(
        [sys.executable, "-m", "eisbasis", "dims", "--max-weight", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    ) as proc:
        assert proc.stdout.readline().split() == [b"weight", b"dim_S", b"dim_M"]
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == 1
    assert b"Traceback" not in stderr, stderr.decode()
