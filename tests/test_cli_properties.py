"""Property test of parse_rational against its earlier definition.

The parser reads the value straight from the pattern's groups and checks
canonical form structurally.  It must accept and reject exactly the strings
the definition below does, which parsed the string with Fraction and
compared it with str() of the result, and with the same messages.
"""

import re
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from eisbasis.cli import parse_rational  # noqa: E402

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
