"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop with one client: every call into eisbasis
is issued after the previous one returns.  A workload returns a Result
with the time spent inside eisbasis (`wall_s`), the latency of each
operation, how many checks it attempted and how many failed, and a digest
of everything the program output, so a traced and an untraced run can be
compared.  A gate that fails counts a failure; it never raises.

Workload sizes, and why the repeated runs are smaller than the ROADMAP
sizes, are explained in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

FROZEN = Path(__file__).resolve().parent / "expected" / "frozen.json"

REQUESTS = 100
PERTURB_EVERY = 5  # every fifth express request is perturbed


@dataclass
class Result:
    wall_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: list[str] = field(default_factory=list)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()


class Client:
    """The calls a workload makes: the eisbasis package, plus the CLI's
    document steps (JSON text to series, basis to JSON text)."""

    def __init__(self, eisbasis, tracer=None):
        self.api = eisbasis
        self.cli = eisbasis.cli
        self.parse = self._parse
        self.serialize = self._serialize
        if tracer is not None:
            self.parse = tracer.wrap("cli.parse", self._parse)
            self.serialize = tracer.wrap("cli.serialize", self._serialize)
        self.bytes_in = 0
        self.bytes_out = 0
        self.span_errors = 0

    def _parse(self, text: str):
        return self.cli.series_from_document(json.loads(text))

    def _serialize(self, basis) -> str:
        return json.dumps(self.cli.basis_to_document(basis))


def frozen() -> dict:
    with open(FROZEN, encoding="utf-8") as handle:
        return json.load(handle)


def document_digest(text: str) -> str:
    """Digest of a basis document's content; key order does not matter."""
    canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# gates


def check_verify(result: Result, lines: list[str], exit_code: int, expected: dict) -> None:
    """One check per expected stdout line, and one for the exit code."""
    want = expected["stdout"]
    for i in range(max(len(want), len(lines))):
        result.check(i < len(want) and i < len(lines) and lines[i] == want[i])
    result.check(exit_code == expected["exit_code"])


def check_certify(result: Result, text: str, report, expected_digest: str) -> None:
    """A real family: its document matches the frozen digest and it is confirmed."""
    result.check(document_digest(text) == expected_digest and report.confirmed)


def check_control(result: Result, report) -> None:
    """The singular control must not be confirmed."""
    result.check(not report.confirmed)


def check_express(result: Result, want_coords, want_index, coords, error_index) -> None:
    """Exact coordinates for a clean target; SpanError at the perturbed
    index for a perturbed one."""
    if want_index is None:
        result.check(error_index is None and coords == want_coords)
    else:
        result.check(error_index == want_index)


# ---------------------------------------------------------------------------
# workloads


def verify_sweep(client: Client, seed: int, size: int) -> Result:
    """`eisbasis verify --max-weight size`, stdout captured; the command is
    one operation.  (Per-weight lines are no good as operations: their
    costs zigzag with the weight mod 12, so their percentiles jump between
    neighbouring weights from run to run.)"""
    result = Result()
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(stdout):
            exit_code = client.cli.main(["verify", "--max-weight", str(size)])
    except Exception as exc:  # counted as a failed exit code by the gate
        exit_code = repr(exc)
    result.wall_s = time.perf_counter() - start
    result.op_s = [result.wall_s]
    lines = stdout.getvalue().splitlines()
    result.outputs = lines + [f"exit {exit_code}"]
    check_verify(result, lines, exit_code, frozen()["verify"][str(size)])
    return result


def singular_control(api, basis):
    """`basis` with its last element replaced by the sum of the first two."""
    first, second, last = basis.elements[0], basis.elements[1], basis.elements[-1]
    summed = tuple(a + b for a, b in zip(first.series.coeffs, second.series.coeffs))
    element = api.BasisElement(last.descriptor, api.QSeries(basis.weight, summed))
    return api.Basis(basis.weight, basis.kind, basis.precision, basis.elements[:-1] + (element,))


def certify_high(client: Client, seed: int, size: int) -> Result:
    """Build, serialize and certify new-m and new-s at one weight, then
    certify a singular control built from new-m.  Each of the three is one
    operation."""
    api = client.api
    result = Result()
    digests = frozen()["certify"][str(size)]
    bases = {}
    for kind in ("new-m", "new-s", "control"):
        start = time.perf_counter()
        try:
            if kind == "control":
                report = api.verify_report(singular_control(api, bases["new-m"]))
            else:
                bases[kind] = basis = api.basis_for(size, kind)
                text = client.serialize(basis)
                report = api.verify_report(basis)
        except Exception as exc:  # a failed operation counts; the rest go on
            result.outputs.append(f"{kind} error {exc!r}")
            result.check(False)
            continue
        finally:
            result.op_s.append(time.perf_counter() - start)
        if kind == "control":
            result.outputs.append(f"control {report.confirmed}")
            check_control(result, report)
        else:
            client.bytes_out += len(text)
            result.outputs += [document_digest(text), f"{kind} {report.confirmed}"]
            check_certify(result, text, report, digests[kind])
    result.wall_s = sum(result.op_s)
    return result


def express_requests(api, bases: dict, seed: int, size: int):
    """Seeded requests: (kind, document text, coordinates, perturbed index or None).

    Kinds alternate, so the split is even for every seed; every fifth
    request has one coefficient past the solve window raised by one.
    """
    rng = random.Random(seed)
    precision = 2 * api.dimension_data(size).dim_modular + 8
    requests = []
    for i in range(REQUESTS):
        kind = ("new-m", "new-s")[i % 2]
        elements = bases[kind].elements
        coords = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in elements]
        coeffs = [
            sum((c * el.series.coeffs[j] for c, el in zip(coords, elements)), Fraction(0))
            for j in range(precision)
        ]
        index = None
        if i % PERTURB_EVERY == PERTURB_EVERY - 1:
            window_end = len(elements) + (kind == "new-s")
            index = rng.randrange(window_end, precision)
            coeffs[index] += 1
        document = api.cli.series_to_document(api.QSeries(size, tuple(coeffs)))
        requests.append((kind, json.dumps(document), coords, index))
    return requests


def express_batch(client: Client, seed: int, size: int) -> Result:
    """Express seeded targets in new-m and new-s.  Each basis is built once
    (counted in wall_s); each request (parse plus express) is one operation."""
    api = client.api
    result = Result()
    precision = 2 * api.dimension_data(size).dim_modular + 8
    bases = {}
    for kind in ("new-m", "new-s"):
        start = time.perf_counter()
        bases[kind] = api.basis_for(size, kind, max(precision, api.default_precision(size)))
        result.wall_s += time.perf_counter() - start
    for kind, text, want_coords, want_index in express_requests(api, bases, seed, size):
        coords = error_index = None
        start = time.perf_counter()
        try:
            coords = api.express(client.parse(text), bases[kind])
        except api.SpanError as exc:
            error_index = exc.index
        except Exception as exc:  # a failed request counts; the batch goes on
            result.outputs.append(f"error {exc!r}")
        result.op_s.append(time.perf_counter() - start)
        client.bytes_in += len(text)
        client.span_errors += error_index is not None
        result.outputs.append(f"{kind} {coords} {error_index}")
        check_express(result, want_coords, want_index, coords, error_index)
    result.wall_s += sum(result.op_s)
    return result


WORKLOADS = {
    "verify_sweep": (verify_sweep, 120),
    "certify_high": (certify_high, 240),
    "express_batch": (express_batch, 132),
}
