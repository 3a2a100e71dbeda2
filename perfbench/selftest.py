#!/usr/bin/env python3
"""Self-test of the benchmark on the small workload size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py with
--size small and checks that:
  * every metric BENCHMARK.json names for the mode is emitted, with its unit,
    as a finite number, and the run is reported correct with no failures;
  * each run's digests agree (repeat runs, the traced run, jobs 1 vs 2);
  * the same seed reproduces the results digest in a second invocation, the
    traced run matches the untraced one, and a different seed changes it.
Exits 0 when every check passes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_build" / "perfbench" / "results"


def run(workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    artifact = json.loads(
        (RESULTS / f"{workload}-trace{trace}-seed{seed}-small.json").read_text())
    return final, artifact


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        print(f"{wl}:")
        digests = {}
        for seed, trace in ((7, 0), (7, 0), (7, 1), (8, 0)):
            final, artifact = run(wl, seed, trace)
            declared = spec["per_layer" if trace else "end_to_end"]
            label = f"seed {seed} trace {trace}"
            check(set(final) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result line has exactly the four keys")
            check(final["correct"] and final["failed"] == 0 and final["attempted"] >= 1,
                  f"{label}: correct, {final['attempted']} attempted, "
                  f"{final['failed']} failed")
            for m in declared:
                got = final["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float))
                      and math.isfinite(got["value"]),
                      f"{label}: {m['name']} emitted in {m['unit']} and finite")
            check(len(artifact["digests"]) == 1,
                  f"{label}: every run in the invocation has one digest "
                  f"({sorted(artifact['digests'])})")
            digests.setdefault(seed, []).append(next(iter(artifact["digests"])))
        check(len(set(digests[7])) == 1,
              "seed 7 reproduces one digest across invocations and the traced run")
        check(digests[8][0] not in digests[7], "seed 8 gives a different digest")

    print("selftest:", "PASS" if not failures else f"FAIL ({len(failures)} checks)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
