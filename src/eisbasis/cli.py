"""Command-line surface: dimension tables, basis generation, certification
sweeps over weight ranges, and expressing user-supplied expansions in
coordinates.

All numeric output is exact: rationals serialize as canonical strings
("p" or "p/q" in lowest terms, q > 1, at most one leading "-"), never as
floating point.  Exit codes: 0 success, 1 verification or consistency
failure or stdout closed before the output ended, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .arith import _check_weight, _is_int, dimension_data, dimension_oracle
from .basis import (
    Basis,
    BasisKind,
    CuspCombo,
    Monomial,
    Product,
    Single,
    SpanError,
    _check_target_precision,
    _checked_precision,
    basis_descriptors,
    basis_for,
    express,
    verify_basis,
)
from .qseries import QSeries, _series

__all__ = [
    "format_rational",
    "parse_rational",
    "series_to_document",
    "series_from_document",
    "basis_to_document",
    "basis_from_document",
    "main",
    "run",
]

_RATIONAL_RE = re.compile(r"(-?)(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?$")


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string; reject anything non-canonical.

    U+2212 is accepted as a minus-sign alias on input (typeset sources
    and some editors produce it); output always uses ASCII "-".  Canonical
    means what format_rational writes: no "-0", no denominator 1, lowest
    terms, and nothing after the digits, not even the trailing newline
    that "$" lets through.
    """
    return Fraction(*_rational_parts(text))


def _rational_parts(text: str) -> tuple[int, int]:
    """The (numerator, denominator) of a canonical rational string, in
    lowest terms with denominator > 0, by parse_rational's rules."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    normalized = text.replace("\u2212", "-")
    match = _RATIONAL_RE.match(normalized)
    if not match:
        raise ValueError(f"malformed rational string {text!r}")
    sign, num, den = match.groups()
    numerator, denominator = int(num), int(den or 1)
    if (
        match.end() < len(normalized)
        or (sign and not numerator)
        or den == "1"
        or gcd(numerator, denominator) != 1
    ):
        raise ValueError(f"non-canonical rational string {text!r}")
    return (-numerator if sign else numerator), denominator


def _coefficient_parts(series: QSeries) -> list[tuple[int, int]]:
    """Each coefficient v_j / D as its lowest-terms (numerator, denominator),
    by one full-size gcd: for g = gcd(P, D), P the product of the nonzero
    v_j mod D, gcd(v_j, D) = gcd(v_j, g), and g is 1 for most series."""
    numerators, den, product = series.numerators, series.denominator, 1
    for v in filter(None, numerators):
        product = product * (v % den) % den
    g = gcd(product, den)
    shared = [gcd(v, g) if v else den for v in numerators]
    return [(v // h, den // h) for v, h in zip(numerators, shared)]


def _coefficient_texts(series: QSeries) -> list[str]:
    """format_rational of each coefficient, each denominator's text made once."""
    parts = _coefficient_parts(series)
    tails = {d: f"/{d}" if d != 1 else "" for d in {d for _, d in parts}}
    return [f"{n}{tails[d]}" for n, d in parts]


def series_to_document(series: QSeries) -> dict:
    texts = _coefficient_texts(series)
    return {"weight": series.weight, "precision": series.precision, "coefficients": texts}


def _int_field(obj: dict, key: str) -> int:
    value = obj.get(key)
    if not _is_int(value):
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _list_field(obj: dict, key: str) -> list:
    value = obj.get(key)
    if not isinstance(value, list):
        raise ValueError(f"field {key!r} must be a list, got {type(value).__name__}")
    return value


def series_from_document(obj) -> QSeries:
    if not isinstance(obj, dict):
        raise ValueError("series document must be a JSON object")
    extra = set(obj) - {"weight", "precision", "coefficients"}
    if extra:
        raise ValueError(f"unexpected series document keys: {sorted(extra)}")
    weight = _int_field(obj, "weight")
    precision = _int_field(obj, "precision")
    coefficients = _list_field(obj, "coefficients")
    if len(coefficients) != precision:
        raise ValueError(
            f"document precision {precision} does not match {len(coefficients)} coefficients"
        )
    # integers straight into the series, already in lowest terms over the lcm
    parts = [_rational_parts(c) for c in coefficients]
    _check_weight(weight)
    if not parts:
        raise ValueError("a series needs at least one coefficient")
    den = lcm(*[d for _, d in parts])
    return _series(weight, [n * (den // d) for n, d in parts], den)


# The descriptor format: each descriptor class has a document tag and the
# document keys of its fields, in field order.  The correction "c" is the
# only rational field and is written as a rational string (in CSV, in its
# own column); every other field is an integer.
_DESCRIPTORS = {
    Single: ("single", ("weight",)),
    Product: ("product", ("u", "v")),
    CuspCombo: ("cusp-combo", ("u", "v", "c")),
    Monomial: ("monomial", ("g4_exponent", "g6_exponent")),
}


def _descriptor_document(descriptor) -> dict:
    tag, keys = _DESCRIPTORS[type(descriptor)]
    doc = {"type": tag}
    for key, name in zip(keys, descriptor._fields):
        value = getattr(descriptor, name)
        doc[key] = format_rational(value) if key == "c" else value
    return doc


def basis_to_document(basis: Basis) -> dict:
    return {
        "weight": basis.weight,
        "kind": basis.kind.value,
        "precision": basis.precision,
        "elements": [
            {
                "descriptor": _descriptor_document(el.descriptor),
                "label": el.descriptor.label(),
                "coefficients": _coefficient_texts(el.series),
            }
            for el in basis.elements
        ],
    }


def _json(value) -> str:
    return json.dumps(value, sort_keys=True)


def basis_from_document(obj) -> Basis:
    """The basis a document describes.

    Weight, kind and precision fix a basis, so the document must be exactly
    what basis_to_document writes for the basis rebuilt from those three:
    the same descriptors, with the same JSON types, the same labels and the
    same coefficient values.  The document's shape, its element count,
    every element's coefficient count and the precision floor are checked
    first, so nothing is built for a document whose size does not match its
    header or is too short to certify; then the descriptors and labels, so
    no series is realized for a document whose elements are not the basis's.
    New-s descriptors have their type, u and v compared before any
    correction c, and so any Bernoulli number, is computed.
    """
    if not isinstance(obj, dict):
        raise ValueError("basis document must be a JSON object")
    weight = _int_field(obj, "weight")
    kind = BasisKind(obj.get("kind"))
    precision = _int_field(obj, "precision")
    entries = _list_field(obj, "elements")
    expected = kind.dimension(weight)
    if len(entries) != expected:
        raise ValueError(
            f"a {kind.value} basis of weight {weight} has {expected} elements, "
            f"but the document has {len(entries)}"
        )
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"element {index} must be a JSON object")
        count = len(_list_field(entry, "coefficients"))
        if count != precision:
            raise ValueError(
                f"document precision {precision} does not match the "
                f"{count} coefficients of element {index}"
            )
    _checked_precision(weight, precision)
    if kind is BasisKind.NEW_S:
        # a correction c costs the Bernoulli numbers up to the weight, so
        # every element's type, u and v are compared before any c is computed
        products = basis_descriptors(weight, BasisKind.NEW_M)[1:]
        for index, (entry, product) in enumerate(zip(entries, products)):
            want = {"type": _DESCRIPTORS[CuspCombo][0], "u": product.u, "v": product.v}
            got = entry.get("descriptor")
            if not isinstance(got, dict) or _json({k: got.get(k) for k in want}) != _json(want):
                raise ValueError(
                    f"element {index} (G_{product.u}*G_{product.v} + c*G_{weight}) must have "
                    f"descriptor type, u and v {_json(want)}, not {_json(got)}"
                )
    for index, (entry, descriptor) in enumerate(zip(entries, basis_descriptors(weight, kind))):
        label = descriptor.label()
        # compared as JSON text, so 4.0 and true are not the integers 4 and 1
        want = _json(_descriptor_document(descriptor))
        got = _json(entry.get("descriptor"))
        if got != want:
            raise ValueError(f"element {index} ({label}) must have descriptor {want}, not {got}")
        if entry.get("label") != label:
            raise ValueError(
                f"element {index} must have label {label!r}, not {entry.get('label')!r}"
            )
    basis = basis_for(weight, kind, precision)
    for index, (entry, el) in enumerate(zip(entries, basis.elements)):
        parts = _coefficient_parts(el.series)
        for j, (text, want) in enumerate(zip(entry["coefficients"], parts)):
            if _rational_parts(text) != want:
                raise ValueError(
                    f"element {index} ({el.descriptor.label()}) differs from what its "
                    f"descriptor gives at coefficient index {j}"
                )
    return basis


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dims(args) -> int:
    if args.weight is not None:
        weights = [args.weight]
    else:
        dimension_data(args.max_weight)  # validate before sweeping
        weights = list(range(4, args.max_weight + 1, 2))
    rows = [dimension_data(w) for w in weights]
    if args.format == "json":
        payload = [
            {"weight": d.weight, "dim_cusp": d.dim_cusp, "dim_modular": d.dim_modular}
            for d in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'weight':>6}  {'dim_S':>5}  {'dim_M':>5}")
        for d in rows:
            print(f"{d.weight:>6}  {d.dim_cusp:>5}  {d.dim_modular:>5}")
    return 0


def _cmd_basis(args) -> int:
    doc = basis_to_document(basis_for(args.weight, args.kind, args.prec))
    elements = doc["elements"]
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["descriptor", "c"] + [f"a_{i}" for i in range(doc["precision"])])
        for el in elements:
            d = el["descriptor"]
            # the c column carries the correction, so the descriptor cell
            # keeps a symbolic placeholder
            cell = f"G_{d['u']}*G_{d['v']} + c*G_{d['u'] + d['v']}" if "c" in d else el["label"]
            writer.writerow([cell, d.get("c", "")] + el["coefficients"])
    else:
        print(
            f"# basis weight={doc['weight']} kind={doc['kind']} "
            f"precision={doc['precision']} elements={len(elements)}"
        )
        for el in elements:
            print(el["label"])
            print("    " + ", ".join(el["coefficients"]))
    return 0


def _cmd_verify(args) -> int:
    dimension_data(args.max_weight)
    all_ok = True
    for weight in range(4, args.max_weight + 1, 2):
        # new-s last: its residue window is new-m's, still kept with its determinant
        kinds = (BasisKind.NEW_M, BasisKind.CLASSICAL, BasisKind.NEW_S)
        new_m, classical, new_s = [verify_basis(weight, kind) for kind in kinds]
        checks = [
            ("dim", new_m.element_count == dimension_oracle(weight)),
            ("new-m det", new_m.nonsingular),
            ("classical det", classical.nonsingular),
            ("cusp a_0", new_s.constant_terms_vanish is True),
            ("cusp det", new_s.nonsingular is not False),
        ]
        ok = all(flag for _, flag in checks)
        all_ok = all_ok and ok
        status = "pass" if ok else "FAIL"
        detail = "  ".join(f"{name}:{'ok' if flag else 'BAD'}" for name, flag in checks)
        cusp_note = "vacuous" if new_s.nonsingular is None else "checked"
        print(f"weight {weight:>3}  {detail}  [cusp {cusp_note}]  {status}")
    total = (args.max_weight - 2) // 2
    print(f"verified weights 4..{args.max_weight}: {'all pass' if all_ok else 'FAILURES'} ({total} weights)")
    return 0 if all_ok else 1


def _cmd_express(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read input file: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"input is not valid JSON: {exc}") from exc
    target = series_from_document(raw)
    if target.weight != args.weight:
        raise ValueError(
            f"document weight {target.weight} does not match requested weight {args.weight}"
        )
    _check_target_precision(target)
    basis = basis_for(args.weight, args.kind, target.precision)
    try:
        coords = express(target, basis)
    except SpanError as exc:
        print(
            f"input is not in the span of the {args.kind} weight-{args.weight} basis: {exc}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps([format_rational(c) for c in coords]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eisbasis",
        description="Exact Eisenstein-product bases for level-one modular forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser("dims", help="dimension table for the weight-2k spaces")
    group = p_dims.add_mutually_exclusive_group(required=True)
    group.add_argument("--weight", type=int, help="single even weight >= 4")
    group.add_argument("--max-weight", type=int, help="sweep even weights 4..W")
    p_dims.add_argument("--format", choices=["text", "json"], default="text")
    p_dims.set_defaults(func=_cmd_dims)

    p_basis = sub.add_parser("basis", help="construct and print a basis")
    p_basis.add_argument("--weight", type=int, required=True)
    p_basis.add_argument(
        "--kind", choices=[k.value for k in BasisKind], required=True
    )
    p_basis.add_argument("--prec", type=int, default=None, help="number of q-coefficients")
    p_basis.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_basis.set_defaults(func=_cmd_basis)

    p_verify = sub.add_parser("verify", help="certify all bases up to a weight bound")
    p_verify.add_argument("--max-weight", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_express = sub.add_parser("express", help="coordinates of a series in a chosen basis")
    p_express.add_argument("--weight", type=int, required=True)
    p_express.add_argument(
        "--kind", choices=[k.value for k in BasisKind], required=True
    )
    p_express.add_argument("--input", required=True, help="path to a series document (JSON)")
    p_express.set_defaults(func=_cmd_express)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Coefficients, and the rationals of the user's own files, can be longer
    # than CPython's int<->str digit limit (4300 by default).  main() owns
    # its process, so it lifts the limit while it runs and restores it on
    # return; interpreters before 3.10.7 have no limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; on devnull the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    run()
