"""Run the benchmark over several seeds and summarise the runs as JSON.

    python3 bench/baseline.py [--out FILE]

For each workload of BENCHMARK.json: RUNS untraced runs with seeds
1..RUNS, giving the median, quartiles and spread ((q3 - q1) / median) of
every end-to-end metric and the fail ratio; then two traced runs with
seed 1, giving the per-layer metrics and whether every count repeated
exactly.  Host facts: nproc, Python version and the git SHA of the
checkout, if it is a git repository.  Medians and the fail ratio are
printed by name, with units, to stderr; the JSON goes to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    result = {"host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "git_sha": git_sha()},
              "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        traced = [run(workload, 1, seconds, 1) for _ in range(2)]
        counts = [{k: m["value"] for k, m in t["metrics"].items() if m["unit"] == "count"}
                  for t in traced]
        entry = {
            "runs": RUNS,
            "fail_ratio": failed / attempted,
            "end_to_end": {name: summary([r["metrics"][name]["value"] for r in runs])
                           for name in runs[0]["metrics"]},
            "traced_counts_repeat": counts[0] == counts[1],
            "per_layer": {k: m["value"] for k, m in traced[0]["metrics"].items()},
        }
        result["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            unit = runs[0]["metrics"][name]["unit"]
            print(f"{workload:16} {name:12} median {s['median']:10.4f} {unit:3} "
                  f"spread {s['spread']:.3f}", file=sys.stderr)
        print(f"{workload:16} fail_ratio   {entry['fail_ratio']:10.4f} ({failed} of {attempted} ops)",
              file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
