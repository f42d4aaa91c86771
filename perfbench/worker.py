"""Run one workload once in this fresh interpreter and print a JSON result.

    python3 perfbench/worker.py WORKLOAD SEED SIZE SPANS_PATH

With SPANS_PATH "-" the run is untraced.  Otherwise the eisbasis layers
are wrapped before the workload starts, the spans are written to
SPANS_PATH at the end, and the result carries the computed counts.
run.py starts this script once per iteration, so eisbasis caches always
start empty.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import eisbasis  # noqa: E402  (needs the path above)
import eisbasis.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> None:
    name, seed, size, spans_path = argv[0], int(argv[1]), int(argv[2]), argv[3]
    tracer = None if spans_path == "-" else tracing.Tracer()
    cached = tracing.install(tracer) if tracer else None
    client = workloads.Client(eisbasis, tracer)
    run, _ = workloads.WORKLOADS[name]
    result = run(client, seed, size)
    report = {
        "wall_s": result.wall_s,
        "op_s": result.op_s,
        "attempted": result.attempted,
        "failed": result.failed,
        "digest": result.digest(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        info = cached.cache_info()
        report["counts"] = {
            **tracer.counts,
            "eisenstein.cache_hits": info.hits,
            "eisenstein.cache_misses": info.misses,
            "cli.bytes_in": client.bytes_in,
            "cli.bytes_out": client.bytes_out,
            "basis.span_errors": client.span_errors,
        }
        tracer.write(spans_path)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
