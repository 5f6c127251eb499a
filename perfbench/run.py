#!/usr/bin/env python3
"""Fleet benchmark: a closed loop of fleet jobs, end to end, on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload day1000_clouds [--seed N]
        [--seconds T] [--trace 0|1] [--nodes N]

Builds perfbench/fleet_perf (a RelWithDebInfo build of ../src plus the
harness) into .bench_build/ on first use.  The first run after a build also
computes the accuracy samples behind the ref_* metrics for every workload
(the whole fleet at the default seed on the dense tick loop, untimed, cached
per workload, size and build), so it can take minutes.  Every run then
measures the workload for --seconds and prints every metric named in
BENCHMARK.json with its unit.  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer ones.
attempted/failed count node-days; any failed output check makes the command
exit 1.  Each run appends a record to perfbench/history.jsonl.  See
perfbench/NOTES.md for the workloads, seeds and pinned hashes.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "fleet_perf"
HISTORY = HERE / "history.jsonl"
SCENARIO = "scenarios/day1000.scn"

DEFAULT_SEED = 2018  # day1000.scn's own seed; the hashes below are pinned there
HELDOUT_SEED = 4242  # kept back for confirming later claims

# Each workload is one client submitting one fleet job and waiting for it.
# "seeds" is the number of job seeds in one cycle; a run repeats as many whole
# cycles as fit in --seconds, and one cycle takes 8-28 s on a 4-vCPU host.
WORKLOADS = {
    "day1000_clouds": {
        "engine": "batch", "nodes": 1000, "seeds": 8, "set": [],
        "pin": "0x19463ef1002bb785",
    },
    "indoor_shared": {
        "engine": "batch", "nodes": 1000, "seeds": 48,
        "set": ["trace=indoor", "shared_trace=true"],
        "pin": "0xc741d2f89ee4413e",
    },
    "greedy_fastpath": {
        "engine": "fleet", "nodes": 256, "seeds": 2, "set": ["policy=greedy_mpp"],
        "pin": "0x0831d8ff2127f2af",
    },
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def build() -> None:
    """Configure (once) and build the harness; the log lands in .bench_build."""
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "fleet_perf",
                  "-j", str(os.cpu_count() or 1)])
    with open(BUILD / "build.log", "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                log(f"perfbench: build failed, see {BUILD / 'build.log'}")
                sys.exit(1)


def run_harness(args: list[str], timeout: float | None) -> dict:
    proc = subprocess.run([str(BINARY), *args], capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr)
        log(f"perfbench: fleet_perf exited with {proc.returncode}")
        sys.exit(1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workload_args(w: dict, nodes: int, seed: int) -> list[str]:
    args = ["--scenario", str(ROOT / SCENARIO), "--engine", w["engine"],
            "--nodes", str(nodes), "--seed", str(seed)]
    for kv in w["set"]:
        args += ["--set", kv]
    return args


def reference(name: str, nodes: int, binary_id: str) -> dict:
    """The fixed accuracy sample (the whole fleet at the default seed), cached
    per (workload, size, binary).  It is untimed and has no time limit: on the
    dense tick loop it takes minutes of CPU time."""
    cache = BUILD / "ref_cache" / f"{name}-{nodes}-{binary_id}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    log(f"perfbench: computing the accuracy sample for {name} ({nodes} nodes)")
    ref = run_harness(workload_args(WORKLOADS[name], nodes, DEFAULT_SEED)
                      + ["--mode", "ref"], timeout=None)
    cache.parent.mkdir(exist_ok=True)
    cache.write_text(json.dumps(ref))
    return ref


def git_state() -> tuple[str, bool | None]:
    if not (ROOT / ".git").exists():
        return "unknown", None
    def git(*a: str) -> str:
        return subprocess.run(["git", *a], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()
    return git("rev-parse", "HEAD") or "unknown", bool(git("status", "--porcelain"))


def build_info() -> dict:
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        key, sep, val = line.partition("=")
        if sep and ":" in key:
            cache[key.split(":")[0]] = val
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    version = ""
    for f in BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        for line in f.read_text().splitlines():
            if line.startswith("set(CMAKE_CXX_COMPILER_VERSION"):
                version = line.split('"')[1]
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""))
                     if x)
    return {"compiler": f"{cache.get('CMAKE_CXX_COMPILER', '')} {version}".strip(),
            "flags": flags, "build_type": build_type}


def lines_of_code() -> dict:
    """Non-blank source lines per src/ and tools/ module (informational)."""
    loc = {}
    for top in ("src", "tools"):
        if not (ROOT / top).is_dir():
            continue
        for entry in sorted((ROOT / top).iterdir()):
            files = [entry] if entry.is_file() else entry.rglob("*")
            n = sum(sum(1 for line in f.read_text(errors="replace").splitlines()
                        if line.strip())
                    for f in files
                    if f.is_file() and f.suffix in (".cpp", ".hpp", ".h", ".py"))
            if n:
                key = f"{top}/{entry.name}" if entry.is_dir() else f"{top}/files"
                loc[f"loc.{key}"] = loc.get(f"loc.{key}", 0) + n
    return loc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--nodes", type=int, help="override the workload's size")
    opts = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / SCENARIO).is_file():
        log(f"perfbench: no hemp sources or {SCENARIO} under {ROOT}")
        return 2
    build()

    w = WORKLOADS[opts.workload]
    nodes = opts.nodes or w["nodes"]
    binary_id = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    if not opts.nodes:
        # Fill the cache for every workload now, so that later runs stay short.
        for name, other in WORKLOADS.items():
            reference(name, other["nodes"], binary_id)
    ref = reference(opts.workload, nodes, binary_id)
    args = workload_args(w, nodes, opts.seed) + [
        "--seconds", str(opts.seconds), "--trace", str(opts.trace),
        "--seeds", str(w["seeds"]),
        "--out-dir", str(BUILD / "out" / opts.workload)]
    if opts.seed == DEFAULT_SEED:
        args += ["--ref-sample", ref["sample"]]
        if nodes == w["nodes"]:
            args += ["--expect-hash", w["pin"]]
    out = run_harness(args, timeout=160)

    measured = {**out["metrics"], **ref["metrics"]}
    attempted = out["attempted"] + ref["attempted"]
    failed = out["failed"] + ref["failed"]
    out["failures"] += ref["failures"]
    measured["failed_frac"] = failed / attempted if attempted else 1.0
    wanted = spec["per_layer" if opts.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            out["failures"].append(f"metric {m['name']} missing or not finite")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = failed == 0 and not out["failures"]

    commit, dirty = git_state()
    record = {"time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "commit": commit, "dirty": dirty, "nproc": os.cpu_count(),
              **build_info(), "workload": opts.workload, "seed": opts.seed,
              "nodes": nodes, "seconds": opts.seconds, "trace": opts.trace,
              "summary_hash": out["summary_hash"], "correct": correct,
              "metrics": measured, **lines_of_code()}
    with open(HISTORY, "a") as f:
        f.write(json.dumps(record) + "\n")

    print(f"workload {opts.workload}: {nodes} nodes, seed {opts.seed}, "
          f"{measured['iterations']:.0f} iterations, summary_hash "
          f"{out['summary_hash']}")
    units = {"failed_frac": "fraction", "iterations": "count", "nodes": "count",
             "exact_solves_per_node_day": "count"}
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    for name in sorted(measured):
        unit = "s" if name.startswith("self.") else units.get(name, "")
        print(f"  {name:36s} {measured[name]:.6g} {unit}")
    for msg in out["failures"]:
        print(f"  FAILED: {msg}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
