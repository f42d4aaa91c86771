"""Tests of the benchmark itself: every correctness gate fails on a corrupted
output, traced and untraced runs produce identical outputs, and the metric
names match BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import eisbasis  # noqa: E402
import eisbasis.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Result  # noqa: E402

# the smallest sizes with frozen outputs
SMALL = {"verify_sweep": 40, "certify_high": 60, "express_batch": 48}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd)


def worker(name, spans="-", seed=7):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), name, str(seed), str(SMALL[name]), str(spans)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def client():
    return workloads.Client(eisbasis)


# ---------------------------------------------------------------------------
# gates on corrupted outputs


def test_verify_gate_passes_frozen_and_fails_corrupted_output():
    expected = workloads.frozen()["verify"]["40"]
    lines = list(expected["stdout"])

    def failures(out, code):
        result = Result()
        workloads.check_verify(result, out, code, expected)
        return result.failed

    assert failures(lines, 0) == 0
    assert failures(lines, 1) == 1
    assert failures(lines[:-1], 0) == 1
    assert failures([lines[0].replace("pass", "FAIL")] + lines[1:], 0) == 1


def test_verify_gate_catches_singular_verdicts(client, monkeypatch):
    monkeypatch.setattr(eisbasis.RatMatrix, "determinant", lambda self: Fraction(0))
    result = workloads.verify_sweep(client, 0, 40)
    assert result.failed == result.attempted  # every weight line and the exit code


def test_certify_gate_fails_on_corrupted_document(client, monkeypatch):
    assert workloads.certify_high(client, 0, 60).failed == 0
    original = eisbasis.cli.basis_to_document

    def corrupted(basis):
        document = original(basis)
        document["elements"][0]["coefficients"][3] = "7"
        return document

    monkeypatch.setattr(eisbasis.cli, "basis_to_document", corrupted)
    assert workloads.certify_high(client, 0, 60).failed == 2  # new-m and new-s


def test_certify_gate_fails_when_every_matrix_is_called_nonsingular(client, monkeypatch):
    monkeypatch.setattr(eisbasis.RatMatrix, "determinant", lambda self: Fraction(1))
    result = workloads.certify_high(client, 0, 60)
    assert (result.attempted, result.failed) == (3, 1)  # only the control


def test_certify_gate_fails_unconfirmed_family(client):
    basis = eisbasis.new_basis(60)
    text = client.serialize(basis)
    digest = workloads.frozen()["certify"]["60"]["new-m"]
    report = eisbasis.verify_report(basis)
    singular = eisbasis.verify_report(workloads.singular_control(eisbasis, basis))
    result = Result()
    workloads.check_certify(result, text, report, digest)
    workloads.check_certify(result, text, singular, digest)
    workloads.check_control(result, singular)
    workloads.check_control(result, report)
    assert (result.attempted, result.failed) == (4, 2)


def test_express_gate():
    coords = [Fraction(1, 2), Fraction(-3)]
    result = Result()
    workloads.check_express(result, coords, None, coords, None)
    workloads.check_express(result, coords, 9, None, 9)
    assert result.failed == 0
    workloads.check_express(result, coords, None, [Fraction(1, 2), Fraction(3)], None)
    workloads.check_express(result, coords, None, None, 9)
    workloads.check_express(result, coords, 9, coords, None)
    workloads.check_express(result, coords, 9, None, 10)
    assert (result.attempted, result.failed) == (6, 4)


def test_express_batch_fails_on_wrong_coordinates(client, monkeypatch):
    assert workloads.express_batch(client, 3, 24).failed == 0
    original = eisbasis.express
    monkeypatch.setattr(eisbasis, "express", lambda t, b: [c + 1 for c in original(t, b)])
    result = workloads.express_batch(client, 3, 24)
    clean = workloads.REQUESTS - workloads.REQUESTS // workloads.PERTURB_EVERY
    assert (result.attempted, result.failed) == (workloads.REQUESTS, clean)


def test_express_requests_depend_only_on_the_seed(client):
    bases = {kind: eisbasis.basis_for(24, kind, 24) for kind in ("new-m", "new-s")}
    first = workloads.express_requests(eisbasis, bases, 5, 24)
    assert first == workloads.express_requests(eisbasis, bases, 5, 24)
    assert first != workloads.express_requests(eisbasis, bases, 6, 24)
    assert sum(index is not None for _, _, _, index in first) == workloads.REQUESTS // workloads.PERTURB_EVERY


# ---------------------------------------------------------------------------
# tracing


def test_self_times_subtract_children_and_count_recursion_once():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
    ]
    times = tracing.self_times(spans)
    assert times["a"] == (3.0, 10.0, 1)
    assert times["b"] == (3.0, 3.0, 2)
    assert times["c"] == (4.0, 4.0, 1)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_outputs_identical(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    plain, traced = worker(name), worker(name, spans)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["attempted"] == traced["attempted"] > 0
    assert plain["digest"] == traced["digest"]
    recorded = tracing.read_spans(spans)
    assert recorded and all(start <= end for _, start, end, _ in recorded)


# ---------------------------------------------------------------------------
# the benchmark command


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench("--workload", "express_batch", "--seed", "1", "--seconds", "0",
                         "--trace", str(trace), "--size", "24")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in spec[key]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
