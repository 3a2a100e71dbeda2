#!/usr/bin/env python3
"""Same-host simulator benchmark: build, run one workload, check, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload busy_cell --seed 1 --seconds 10 --trace 0

It builds the l4span library and the perfbench driver from this checkout's
sources into .bench_build/perfbench (Release), runs the workload, checks that
every metric BENCHMARK.json names for the mode came back with its unit and a
finite value, writes the full result (metrics, results digests, notes and the
provenance block) to .bench_build/perfbench/results/, and prints the
provenance and digests followed by one JSON line (the driver's own report of
every metric and note goes to stderr):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
--size small shrinks every workload (used by perfbench/selftest.py).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the driver up to date (a no-op when it is)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: no simulator sources at {ROOT} (need CMakeLists.txt and src/)")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def source_id():
    """The git commit when the checkout is a repository, else a digest of the
    simulator sources (the benchmark's own directory excluded)."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "tree:" + h.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def check_metrics(result, declared):
    """Problems with the reported metrics (missing, wrong unit, not finite)."""
    problems = []
    got = result.get("metrics", {})
    for m in declared:
        v = got.get(m["name"])
        if v is None:
            problems.append(f"metric {m['name']} missing")
        elif v.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {v.get('unit')!r}, "
                            f"BENCHMARK.json says {m['unit']!r}")
        elif not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"metric {m['name']} is not a finite number")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    args = ap.parse_args()

    if not build():
        return 2
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--source-id", source_id()]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: driver exited with code {proc.returncode} and no result")
        return 3
    result = json.loads(lines[-1])

    problems = check_metrics(result, declared_metrics(args.trace))
    for p in problems:
        log(f"perfbench: {p}")
    correct = bool(result["correct"]) and not problems
    result["run_seconds_total"] = time.monotonic() - started

    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact = out_dir / (f"{args.workload}-trace{args.trace}-seed{args.seed}"
                          f"-{args.size}.json")
    artifact.write_text(json.dumps(result, indent=2) + "\n")

    prov = result["provenance"]
    print(f"perfbench {args.workload}: {prov['source_id']}, {prov['compiler']} "
          f"[{prov['build_type']}{prov['flags']}], {prov['cpu']}, nproc {prov['nproc']}, "
          f"workers {prov['workers']}, seed {prov['seed']}, {prov['seconds']} s")
    print(f"  digests {sorted(result['digests'])}; full result in "
          f"{artifact.relative_to(ROOT)}")

    names = [m["name"] for m in declared_metrics(args.trace)]
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in names if n in result["metrics"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
