"""eisbasis benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from ../src relative to this
file.  Every iteration runs in a fresh interpreter (worker.py), so the
eisbasis caches start empty, as they do for every CLI invocation.

--trace 0 repeats the workload while another iteration still fits in
--seconds (always at least one), with import probes between iterations,
and reports wall_s, setup_s, peak_rss_mib, op_p50_ms and op_p90_ms.
--trace 1 repeats pairs of one untraced and one traced iteration the same
way, checks that all produce identical outputs, and reports the per-layer
metrics (medians over the traced iterations) plus the tracing overhead
(median over the pairs).  The last line of stdout is the JSON result;
the lines before it explain it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBES_PER_ITERATION = 4
MIN_PROBES = 20
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
         "t = time.perf_counter(); import eisbasis; print(time.perf_counter() - t)")

# (metric, unit, how it is derived, span name or count key).  "self" is a
# span's duration minus its children's, "inclusive" its whole duration,
# "calls" the number of spans; "count" is computed by the traced worker,
# not measured, and repeats exactly.
LAYER_METRICS = [
    ("qseries.mul.self_s", "s", "self", "qseries.mul"),
    ("qseries.mul.calls", "count", "calls", "qseries.mul"),
    ("qseries.mul.coeff_products", "count", "count", "qseries.mul.coeff_products"),
    ("qseries.pow.self_s", "s", "self", "qseries.pow"),
    ("qseries.add.self_s", "s", "self", "qseries.add"),
    ("qseries.max_coeff_bits", "bits", "count", "qseries.max_coeff_bits"),
    ("basis.build.new_m_s", "s", "inclusive", "basis.build.new_m"),
    ("basis.build.new_s_s", "s", "inclusive", "basis.build.new_s"),
    ("basis.build.classical_s", "s", "inclusive", "basis.build.classical"),
    ("basis.determinant.self_s", "s", "self", "basis.determinant"),
    ("basis.determinant.calls", "count", "calls", "basis.determinant"),
    ("basis.determinant.max_n", "count", "count", "basis.determinant.max_n"),
    ("basis.determinant.max_bits", "bits", "count", "basis.determinant.max_bits"),
    ("basis.verify_report_s", "s", "inclusive", "basis.verify_report"),
    ("basis.solve.self_s", "s", "self", "basis.solve"),
    ("basis.oververify_s", "s", "self", "basis.express"),
    ("basis.span_errors", "count", "count", "basis.span_errors"),
    ("eisenstein.calls", "count", "calls", "eisenstein"),
    ("eisenstein.cache_hits", "count", "count", "eisenstein.cache_hits"),
    ("eisenstein.cache_misses", "count", "count", "eisenstein.cache_misses"),
    ("eisenstein.self_s", "s", "self", "eisenstein"),
    ("eisenstein.product.self_s", "s", "self", "eisenstein.product"),
    ("arith.sigma.calls", "count", "calls", "arith.sigma"),
    ("arith.sigma.self_s", "s", "self", "arith.sigma"),
    ("arith.bernoulli.calls", "count", "calls", "arith.bernoulli"),
    ("arith.bernoulli.self_s", "s", "self", "arith.bernoulli"),
    ("cli.parse.self_s", "s", "self", "cli.parse"),
    ("cli.bytes_in", "bytes", "count", "cli.bytes_in"),
    ("cli.serialize.self_s", "s", "self", "cli.serialize"),
    ("cli.bytes_out", "bytes", "count", "cli.bytes_out"),
    ("cli.main.self_s", "s", "self", "cli.main"),
]


def run(args: list[str]) -> str:
    """Run a fresh interpreter with `args` and wait for it; its stdout, or
    exit if it failed."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{args[0]} failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def worker(workload: str, seed: int, size: int, spans_path: str = "-") -> dict:
    """One iteration in a fresh interpreter."""
    args = [str(HERE / "worker.py"), workload, str(seed), str(size), spans_path]
    return json.loads(run(args).splitlines()[-1])


def import_seconds(count: int) -> list[float]:
    """Times to import eisbasis, each in a fresh interpreter."""
    return [float(run(["-c", PROBE, str(SRC)])) for _ in range(count)]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share p
    of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def repeat(seconds: float, step) -> list:
    """Call step(i) for i = 0, 1, ... while another call still fits in
    `seconds`, judged by the median call so far; always at least once."""
    results, durations = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        results.append(step(len(results)))
        durations.append(time.monotonic() - began)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return results


def measure(workload: str, seed: int, size: int, seconds: float) -> tuple[dict, int, int]:
    # Import probes are spread between the iterations, so that they sample
    # the whole run, not one moment of it.  The first probe is dropped: it
    # may compile the bytecode cache.
    imports = import_seconds(PROBES_PER_ITERATION + 1)[1:]

    def iteration(_):
        result = worker(workload, seed, size)
        imports.extend(import_seconds(PROBES_PER_ITERATION))
        return result

    runs = repeat(seconds, iteration)
    imports += import_seconds(max(0, MIN_PROBES - len(imports)))
    ops = [t for run in runs for t in run["op_s"]]
    digests = {run["digest"] for run in runs}
    attempted = sum(run["attempted"] for run in runs) + 1
    failed = sum(run["failed"] for run in runs) + (len(digests) != 1)
    beyond = len(ops) - math.ceil(0.9 * len(ops))
    print(f"{workload} size {size} seed {seed}: {len(runs)} iteration(s), "
          f"{len(ops)} operations ({beyond} beyond p90), {len(imports)} import probes")
    print(f"error_rate {failed / attempted:.4g} ({failed} of {attempted} checks failed)")
    metrics = {
        "wall_s": (statistics.median(run["wall_s"] for run in runs), "s"),
        "setup_s": (statistics.median(imports), "s"),
        "peak_rss_mib": (statistics.median(run["peak_rss_mib"] for run in runs), "MiB"),
        "op_p50_ms": (percentile(ops, 0.5) * 1000, "ms"),
        "op_p90_ms": (percentile(ops, 0.9) * 1000, "ms"),
    }
    return metrics, attempted, failed


def trace(workload: str, seed: int, size: int, seconds: float) -> tuple[dict, int, int]:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{workload}.jsonl"

    def pair(i):
        # Alternate which side runs first, so a drift within a pair
        # favours neither side.
        runs = {}
        for traced in (i % 2 == 1, i % 2 == 0):
            runs[traced] = worker(workload, seed, size, str(spans_path) if traced else "-")
        return runs[False], runs[True], tracing.self_times(tracing.read_spans(spans_path))

    pairs = repeat(seconds, pair)
    plain, traced = [p[0] for p in pairs], [p[1] for p in pairs]
    index = {"self": 0, "inclusive": 1, "calls": 2}
    counts = traced[0]["counts"]
    metrics = {}
    for name, unit, kind, key in LAYER_METRICS:
        if kind == "count":
            value = counts.get(key, 0)
        else:
            value = statistics.median(times.get(key, (0.0, 0.0, 0))[index[kind]] for _, _, times in pairs)
        metrics[name] = (value, unit)
    lookups = counts["eisenstein.cache_hits"] + counts["eisenstein.cache_misses"]
    metrics["eisenstein.hit_ratio"] = (counts["eisenstein.cache_hits"] / lookups if lookups else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(t["wall_s"] / u["wall_s"] for u, t, _ in pairs) - 1, "ratio")

    # Every iteration must produce the same outputs, and every traced one
    # the same computed counts.
    same = len({run["digest"] for run in plain + traced}) == 1
    same_counts = len({json.dumps(run["counts"], sort_keys=True) for run in traced}) == 1
    attempted = sum(run["attempted"] for run in plain + traced) + 2
    failed = sum(run["failed"] for run in plain + traced) + (not same) + (not same_counts)
    wall = statistics.median(run["wall_s"] for run in traced)
    print(f"{workload} size {size} seed {seed}: {len(pairs)} untraced/traced pair(s), "
          f"median untraced wall {statistics.median(run['wall_s'] for run in plain):.3f} s, "
          f"traced wall {wall:.3f} s, outputs {'identical' if same else 'DIFFER'}")
    print(f"error_rate {failed / attempted:.4g} ({failed} of {attempted} checks failed)")
    print("layer metrics (times measured, median over traced iterations; "
          "count, bits and bytes computed; 0 where the workload does not reach the layer):")
    for name, (value, unit) in metrics.items():
        share = f"  {value / wall:6.1%} of traced wall" if unit == "s" and wall else ""
        print(f"  {name:30} {value:>16.6g} {unit}{share}")
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", type=int, default=None,
                        help="weight (sweep bound for verify_sweep); default per workload")
    args = parser.parse_args(argv)
    if not (SRC / "eisbasis" / "__init__.py").is_file():
        print(f"error: no eisbasis package under {SRC}", file=sys.stderr)
        return 2
    size = args.size if args.size is not None else WORKLOADS[args.workload][1]
    if args.trace:
        metrics, attempted, failed = trace(args.workload, args.seed, size, args.seconds)
    else:
        metrics, attempted, failed = measure(args.workload, args.seed, size, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
