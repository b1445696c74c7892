"""End-to-end benchmark of the repository, one workload per invocation.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``BENCHMARK.json``):
``library-fastpath``, ``service-jobs``, ``outofcore-shards`` and
``incremental-mutations``.  Each is a closed loop from this one process
over a fixed op multiset that the seed shuffles.  The report goes to
stdout; its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a second, traced pass with ``--trace 1``.

Per-layer seconds are means per op; counts are totals over the run and
repeat exactly for the same seed.  Metrics of a layer a workload does not
run read 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from common import (  # noqa: E402
    CLOSURE_BOUND,
    host_fingerprint,
    latency_summary,
    usable_cpus,
)

#: Jobs in flight per workload: the width of the load generator.
LOAD_WIDTH = {"library-fastpath": 1, "service-jobs": 2,
              "outofcore-shards": 1, "incremental-mutations": 1}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(outcome) -> dict[str, float]:
    lat = latency_summary(outcome.latencies)
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "latency_p50_s": lat["p50_s"],
        "latency_tail_s": lat["tail_s"],
        "throughput_ops_per_s": outcome.attempted / outcome.wall_s,
        "peak_rss_mb": outcome.peak_rss_mb,
    }, lat


def report(outcome, spec, traced: bool) -> dict:
    values, lat = end_to_end(outcome)
    fp = host_fingerprint()
    print(f"# workload {outcome.workload}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    for name, g in outcome.graphs.items():
        print(f"graph {name}: n={g['n']} m={g['m']} edge array bytes={g['array_bytes']}")
    print(f"ops: attempted={outcome.attempted} failed={outcome.errors} "
          f"wrong={outcome.wrong}")
    print("set-up runs (s): " + ", ".join(f"{s:.4f}" for s in outcome.setup_s))
    print(f"latency: n={lat['n']} p50={lat['p50_s']:.6f} s, tail = "
          f"p{lat['tail_pct']:.1f} ({lat['beyond_tail']} samples beyond) "
          f"{lat['tail_s']:.6f} s")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<24} {values[m['name']]:.6g} {m['unit']}")
    print("leaks: " + ("none" if not outcome.leaks else "; ".join(outcome.leaks)))
    for note in outcome.notes:
        print(note)
    if not traced:
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}
    metrics = {}
    for m in spec["per_layer"]:
        value, unit = outcome.per_layer.get(m["name"], (0.0, m["unit"]))
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} != {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<30} {value:.6g} {m['unit']}")
    parts = {k: outcome.per_layer.get(k, (0.0, "s"))[0] for k in outcome.parts}
    dominant = max(parts, key=parts.get)
    print(f"dominant layer: {dominant} ({parts[dominant]:.6f} s per op)")
    gap = outcome.per_layer["closure.worst_gap_share"][0]
    print(f"closure: the layers cover every op's latency to within {gap:.2%} "
          f"({'within' if gap <= CLOSURE_BOUND else 'OUTSIDE'} the "
          f"{CLOSURE_BOUND:.0%} bound)")
    print(f"tracing overhead: {outcome.per_layer['trace.overhead_s'][0]:.6f} s "
          "per op, median of traced minus untraced")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LOAD_WIDTH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    width = LOAD_WIDTH[args.workload]
    if width > usable_cpus():
        print(f"refusing: {args.workload} keeps {width} ops in flight but only "
              f"{usable_cpus()} CPUs are usable", file=sys.stderr)
        return 2

    spec = load_spec()
    if args.workload == "service-jobs":
        import service as module
    else:
        import inproc as module

    workroot = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workroot)
    try:
        outcome = module.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    metrics = report(outcome, spec, bool(args.trace))
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.leaks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
