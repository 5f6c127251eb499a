#!/usr/bin/env python3
"""Self-check of the fleet benchmark at a tiny size.

Runs every workload on the default and the held-out seed, untraced and
traced, and asserts that each run passes all output checks and prints every
metric BENCHMARK.json names, with its unit, in the result line.

Usage (from the repository root):  python3 perfbench/selftest.py
"""
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

TINY_NODES = 16
SECONDS = 0.5


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload in run.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HELDOUT_SEED):
            for trace in (0, 1):
                cmd = [sys.executable, str(run.HERE / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(SECONDS), "--trace", str(trace),
                       "--nodes", str(TINY_NODES)]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                tag = f"{workload} seed={seed} trace={trace}"
                before = len(problems)
                if proc.returncode != 0:
                    problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                    print(f"FAIL {tag}", flush=True)
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{tag}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] != 0 or \
                        result["attempted"] < 1:
                    problems.append(f"{tag}: output checks failed: {result}")
                wanted = {m["name"]: m["unit"]
                          for m in spec["per_layer" if trace else "end_to_end"]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != wanted:
                    problems.append(f"{tag}: metrics/units differ from "
                                    f"BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
                print(f"{'ok' if len(problems) == before else 'FAIL'} {tag}",
                      flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
