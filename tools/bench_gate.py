#!/usr/bin/env python3
"""Perf-trajectory gate: check BENCH_perf.json against bench/baseline.json.

The baseline file declares tolerance bands per derived metric:

    {
      "metrics": {
        "fleet_bench.batch_nodes_per_sec": {"min": 300},
        "bench_perf.soc_fast_speedup": {"min": 10.0, "max": 1000.0}
      }
    }

Metric keys are "<suite>.<derived-key>" against the multi-suite document the
microbench harness writes ({"suites": [{"suite": ..., "derived": {...}}]}).
A metric listed in the baseline but absent from the bench document fails the
gate — silently dropping a tracked metric is itself a regression.

A band may set "requires_threads": true for thread-scaling ratios
(parallel_sweep_speedup, fleet_parallel_speedup): when the owning suite
reports thread_pool_size <= 1 — a single-core CI runner, where parallel ==
serial by construction — the band is skipped instead of failed.

Bands are deliberately loose: they catch order-of-magnitude regressions
(a first-touch surface silently falling back to its eager build, the batch
kernel degenerating to reference-tick stepping) while staying robust to CI machine
variance.  Ratios (speedups) are machine-independent and get tighter bands
than absolute throughputs.

Exit status: 0 all metrics in band, 1 any violation, 2 usage/parse error.
"""

import argparse
import json
import sys


def flatten(doc):
    """Map '<suite>.<derived-key>' -> value for a BENCH_perf.json document."""
    suites = doc.get("suites")
    if suites is None:
        suites = [doc] if "suite" in doc else []
    out = {}
    for suite in suites:
        name = suite.get("suite", "?")
        for key, value in suite.get("derived", {}).items():
            out[f"{name}.{key}"] = value
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True, help="BENCH_perf.json path")
    parser.add_argument("--baseline", required=True,
                        help="baseline bands JSON path")
    args = parser.parse_args()

    try:
        with open(args.bench, encoding="utf-8") as f:
            bench = flatten(json.load(f))
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: cannot load inputs: {e}", file=sys.stderr)
        return 2

    metrics = baseline.get("metrics", {})
    if not metrics:
        print("bench_gate: baseline declares no metrics", file=sys.stderr)
        return 2

    failures = []
    for key, band in sorted(metrics.items()):
        value = bench.get(key)
        if band.get("requires_threads"):
            suite = key.rsplit(".", 1)[0]
            pool = bench.get(f"{suite}.thread_pool_size")
            if pool is not None and pool <= 1:
                print(f"  skip {key}: thread_pool_size={pool:g} "
                      "(thread-scaling band needs >1 worker)")
                continue
        if value is None:
            failures.append(f"{key}: missing from {args.bench}")
            continue
        lo, hi = band.get("min"), band.get("max")
        if lo is not None and value < lo:
            failures.append(f"{key}: {value:g} below min {lo:g}")
        elif hi is not None and value > hi:
            failures.append(f"{key}: {value:g} above max {hi:g}")
        else:
            bounds = []
            if lo is not None:
                bounds.append(f">= {lo:g}")
            if hi is not None:
                bounds.append(f"<= {hi:g}")
            print(f"  ok  {key}: {value:g} ({', '.join(bounds) or 'unbounded'})")

    if failures:
        print(f"bench_gate: {len(failures)} metric(s) out of band:",
              file=sys.stderr)
        for line in failures:
            print(f"  FAIL {line}", file=sys.stderr)
        return 1
    print(f"bench_gate: all {len(metrics)} metrics in band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
