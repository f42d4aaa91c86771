"""Property tests of the document parsers.

The rational parser reads the value straight from the pattern's groups and
checks canonical form structurally.  It must accept and reject exactly the
strings the definition below does, which parsed the string with Fraction
and compared it with str() of the result, and with the same messages.

Coefficient texts, rendered from a series' integers with one full-size gcd
per series, must be the strings of the coefficients' Fractions, both when
no coefficient drops a factor of the denominator and when some do.

Basis and series documents with one mutation applied must be rejected as
input errors: the loader raises ValueError, the express command exits 2,
and neither raises anything else or accepts the document.
"""

import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from eisbasis import Basis, QSeries, basis_for, dimension_data  # noqa: E402
from eisbasis.basis import BasisKind  # noqa: E402
from eisbasis.cli import (  # noqa: E402
    _coefficient_parts,
    _coefficient_texts,
    basis_from_document,
    basis_to_document,
    format_rational,
    main,
    parse_rational,
)

REFERENCE_RE = re.compile(r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$")


def reference_parse(text):
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    normalized = text.replace("\u2212", "-")
    if not REFERENCE_RE.match(normalized):
        raise ValueError(f"malformed rational string {text!r}")
    value = Fraction(normalized)
    if str(value) != normalized:
        raise ValueError(f"non-canonical rational string {text!r}")
    return value


def outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return "value", value, type(value)


digits = st.one_of(
    st.sampled_from(["0", "1", "00", "01", "2", "4", "10", "600"]),
    st.integers(0, 10**30).map(str),
    st.text(alphabet="0123456789", min_size=1, max_size=6),
)
structured = st.builds(
    lambda sign, num, den, tail: sign + num + den + tail,
    st.sampled_from(["", "-", "\u2212", "+", "--", "-\u2212"]),
    digits,
    st.one_of(st.just(""), st.just("/1"), digits.map(lambda d: "/" + d)),
    st.sampled_from(["", "\n", " ", "\n\n", "\t", " \n", "\r\n", "/"]),
)
inputs = st.one_of(structured, st.text(alphabet="0123456789-/\u2212 \n+.", max_size=8))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(inputs)
@example("-0")
@example("5/1")
@example("2/4")
@example("007")
@example("\u22123/4")
@example("5\n")
@example("0/5")
@example(3)
def test_parser_matches_its_earlier_definition(text):
    assert outcome(parse_rational, text) == outcome(reference_parse, text)


def test_digit_limit_errors_are_unchanged():
    huge = "1" * 5000
    for text in (huge, f"1/{huge}", f"2{huge}/4", f"-{huge}\n"):
        assert outcome(parse_rational, text) == outcome(reference_parse, text)
        assert "limit" in outcome(parse_rational, text)[1]


# --- coefficient texts -----------------------------------------------------

# products of powers of 2, 3 and 691, the primes that Bernoulli numbers put
# into the cusp basis's denominators
smooth = st.builds(
    lambda a, b, c: 2**a * 3**b * 691**c, st.integers(0, 8), st.integers(0, 5), st.integers(0, 2)
)


@st.composite
def integer_series(draw):
    """Series over D = 1, a smooth D or a large D, with zero, negative and
    smooth-sharing numerators, built through the Fraction constructor."""
    den = draw(st.one_of(st.just(1), smooth, st.integers(1, 10**30)))
    numerator = st.one_of(
        st.just(0),
        st.integers(-(10**40), 10**40),
        st.builds(lambda k, v: k * v, smooth, st.integers(-(10**6), 10**6)),
    )
    numerators = draw(st.lists(numerator, min_size=1, max_size=12))
    return QSeries(4, [Fraction(v, den) for v in numerators])


rendering_branches = set()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(integer_series())
def check_rendering(series):
    nonzero = [v for v in series.numerators if v]
    # g > 1: some coefficient's lowest terms drop a factor of D
    rendering_branches.add(gcd(prod(nonzero), series.denominator) > 1)
    assert _coefficient_texts(series) == [str(c) for c in series.coeffs]
    assert _coefficient_parts(series) == [(c.numerator, c.denominator) for c in series.coeffs]


def test_coefficient_texts_are_the_fractions_strings_on_both_branches():
    rendering_branches.clear()
    check_rendering()
    assert rendering_branches == {False, True}


@lru_cache(maxsize=None)
def basis_text(weight, kind):
    return json.dumps(basis_to_document(basis_for(weight, kind)))


def other_values(value):
    """JSON values that differ from `value` in type or in value."""
    if isinstance(value, int):
        return [float(value), True, str(value), value + 1]
    return [value + "x", 1, None]


@st.composite
def mutated_basis_documents(draw):
    """(mutation, basis document with that mutation applied once)."""
    weight = draw(st.sampled_from(range(12, 38, 2)))
    kind = draw(st.sampled_from([k.value for k in BasisKind]))
    doc = json.loads(basis_text(weight, kind))
    elements = doc["elements"]
    mutation = draw(st.sampled_from([
        "descriptor key", "descriptor value", "label", "precision", "short precision",
        "coefficient", "drop element", "duplicate element",
    ]))
    if mutation == "short precision":
        # counts that agree, but too few coefficients to certify
        floor = dimension_data(weight).dim_cusp + 2
        doc["precision"] = draw(st.integers(0, floor - 1))
        for element in elements:
            del element["coefficients"][doc["precision"]:]
        return mutation, doc
    # an empty new-s basis has no element to mutate, and with its precision
    # changed it is the valid document of another precision
    assume(elements)
    element = draw(st.sampled_from(elements))
    descriptor = element["descriptor"]
    if mutation == "descriptor key":
        key = draw(st.sampled_from(sorted(descriptor)))
        action = draw(st.sampled_from(["rename", "drop", "add"]))
        value = 0 if action == "add" else descriptor.pop(key)
        if action != "drop":
            descriptor[key + "_"] = value
    elif mutation == "descriptor value":
        key = draw(st.sampled_from(sorted(descriptor)))
        descriptor[key] = draw(st.sampled_from(other_values(descriptor[key])))
    elif mutation == "label":
        element["label"] = draw(st.sampled_from(other_values(element["label"])))
    elif mutation == "precision":
        old = doc["precision"]
        values = st.integers(-3, 3 * old) | st.sampled_from(other_values(old))
        doc["precision"] = draw(values.filter(lambda v: v != old or type(v) is not int))
    elif mutation == "coefficient":
        coefficients = element["coefficients"]
        j = draw(st.integers(0, len(coefficients) - 1))
        old = parse_rational(coefficients[j])
        new = draw(st.fractions(max_denominator=10**6).filter(lambda v: v != old))
        coefficients[j] = format_rational(new)
    elif mutation == "drop element":
        elements.remove(element)
    else:
        elements.insert(elements.index(element), json.loads(json.dumps(element)))
    return mutation, doc


@settings(derandomize=True, max_examples=100, deadline=None)
@given(mutated_basis_documents())
def test_mutated_basis_document_is_rejected(case):
    with pytest.raises(ValueError):
        basis_from_document(case[1])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from(range(4, 62, 2)),
    st.sampled_from(list(BasisKind)),
    st.integers(0, 10),
    st.integers(-20, 20).filter(bool),
)
def test_a_built_basis_round_trips_and_no_other_precision_fits(weight, kind, extra, d):
    basis = basis_for(weight, kind, dimension_data(weight).dim_cusp + 2 + extra)
    assert basis_from_document(basis_to_document(basis)) == basis
    # no element length pins the precision of an empty new-s basis
    if basis.elements:
        with pytest.raises(ValueError):
            Basis(basis.weight, basis.kind, basis.precision + d, basis.elements)


# --- series documents ------------------------------------------------------

DELTA = {
    "weight": 12,
    "precision": 12,
    "coefficients": ["0", "1", "-24", "252", "-1472", "4830", "-6048", "-16744", "84480",
                     "-113643", "-115920", "534612"],
}
# wrong for every key; [] is a list, but of the wrong length for "coefficients"
WRONG_TYPES = [None, True, 12.0, "12", [], {}]


@st.composite
def mutated_series_documents(draw):
    """(mutation, README discriminant document with one structural fault)."""
    doc = json.loads(json.dumps(DELTA))
    coefficients = doc["coefficients"]
    mutation = draw(st.sampled_from([
        "missing key", "extra key", "wrong type", "wrong coefficient type",
        "non-canonical", "precision", "length",
    ]))
    if mutation == "missing key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif mutation == "extra key":
        doc[draw(st.sampled_from(["note", "kind", "Weight", ""]))] = draw(st.sampled_from([0, "x"]))
    elif mutation == "wrong type":
        key = draw(st.sampled_from(sorted(doc) + [None]))
        if key is None:
            doc = draw(st.sampled_from([[], "doc", 12, None]))
        else:
            doc[key] = draw(st.sampled_from(WRONG_TYPES))
    elif mutation == "wrong coefficient type":
        coefficients[draw(st.integers(0, 11))] = draw(st.sampled_from([0, 1.5, None, ["1"]]))
    elif mutation == "non-canonical":
        texts = ["-0", "2/4", "3/1", "+1", " 1", "1 ", "01", "1/0", "0/5", "1.0", ""]
        coefficients[draw(st.integers(0, 11))] = draw(st.sampled_from(texts))
    elif mutation == "precision":
        doc["precision"] = draw(st.integers(-3, 40).filter(lambda v: v != 12))
    else:
        extra = draw(st.integers(-12, 8).filter(bool))
        del coefficients[12 + extra:]
        coefficients += ["0"] * extra
    return mutation, doc


def run_express(doc, kind):
    """main(["express", ...]) on `doc` written to a temporary file:
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["express", "--weight", "12", "--kind", kind, "--input", path])
    return code, out.getvalue(), err.getvalue()


def test_unmutated_series_document_is_expressed():
    assert run_express(DELTA, "new-m") == (0, '["-91/600", "2764/15"]\n', "")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(mutated_series_documents(), st.sampled_from([k.value for k in BasisKind]))
def test_mutated_series_document_exits_two(case, kind):
    mutation, doc = case
    code, out, err = run_express(doc, kind)
    assert (code, out) == (2, ""), (mutation, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err
