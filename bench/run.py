"""hopfforge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json): verify, verify_rescaled,
analyze, build.  Run from a source checkout; the library is imported from
its `src/`, nothing needs installing.

Load model: one closed-loop client, one op at a time, no threads.  A pass
is the workload's op list, run once in a new process (one_pass.py), so every
pass imports `hopfforge` afresh and no op repeats inside a process.  Set-up
of a pass is that import plus catalog builds and input generation.

All processes of a run are pinned to one CPU.  Untraced, a pass process
samples the host speed and scales its times to a nominal speed
(hostspeed.py): the host is a shared VM whose speed moves by up to 2x
between runs, and the scaled times follow the code rather than the host.

--trace 0 runs passes until the next one would end after S seconds (at
least one pass), then set-ups alone until there are MIN_SETUPS, and reports
  wall_s       median time of a pass, scaled to the nominal speed (s)
  setup_s      median set-up time, scaled to the nominal speed (s)
  peak_rss_mb  peak resident set of a pass process and its children (MB)
and prints fail_ratio = failed / attempted ops above the result line, and
the unscaled times to stderr.

--trace 1 runs one pass untraced and one with the wrappers of
layertrace.py installed (set-up included) and reports the per-layer
metrics, `proc.cpu_s` of the traced pass and `trace.overhead` = traced
÷ untraced pass time (both unscaled).  It also checks the layer split measured at the
seed and counts deviations in `trace.selfcheck_failures` (messages go to
stderr); a deviation is not an output error.

Metric names and units are those of BENCHMARK.json.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_SETUPS = 3
DEADLINE_S = 175  # a run must end within 180 s
# The largest L3 stage by self time in analyze's xmas pi ops at the seed.
SEED_TOP_STAGE = "induced_structures"


def one_pass(workload, seed, mode, workdir, deadline):
    """The JSON result of one_pass.py; its stderr goes to ours."""
    cmd = [sys.executable, str(BENCH / "one_pass.py"), workload, str(seed), str(workdir), mode]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # with the CLI commands it started
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def self_checks(workload, deltas):
    """(description, holds) of the layer split measured at the seed."""
    def share(label):
        d = deltas[label]
        return 1 - d["cyc.mul.distinct"] / d["cyc.mul.calls"]

    if workload == "verify":
        # Untraced, check_algebra is over 0.95 of check_hopf on kc12n6; the L0
        # wrappers cost more outside it, so the traced ratio reads about 0.89.
        d = deltas["check_hopf kc12n6"]
        ratio = d["check_algebra.s"] / d["check_hopf.s"]
        xmas = share("check_hopf xmas")
        return [(f"kc12n6: check_algebra.s / check_hopf.s = {ratio:.3f} >= 0.85", ratio >= 0.85),
                (f"xmas: cyc.mul.repeat_share = {xmas:.4f} >= 0.99", xmas >= 0.99)]
    if workload == "verify_rescaled":
        xmas = share("check_hopf xmas")
        return [(f"xmas: cyc.mul.repeat_share = {xmas:.4f} in [0.45, 0.65]", 0.45 <= xmas <= 0.65)]
    if workload == "analyze":
        # Self times: classify's inclusive time holds the other stages it calls.
        stages = ["induced_structures", "omega_roundtrip", "thinness_and_basis",
                  "cocycle_analysis", "equivalence_report", "wedge_layer_of_sigma", "classify"]
        ops = [deltas["run_analysis xmas_pi"], deltas["classify xmas_pi"]]
        total = {s: sum(d.get(s + ".self_s", 0) for d in ops) for s in stages}
        top = max(total, key=total.get)
        return [(f"xmas_pi: largest L3 stage by self time is {top} ({total[top]:.3f} s), "
                 f"expected {SEED_TOP_STAGE}", top == SEED_TOP_STAGE)]
    return []


def measure(workload, seed, seconds, workdir, deadline):
    """Untraced passes for about `seconds`; (values, attempted, failed labels)."""
    setups, walls, raw, cycles, failed, attempted = [], [], [], [], [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        r = one_pass(workload, seed, "pass", workdir / f"pass{len(walls)}", deadline)
        cycles.append(time.perf_counter() - t0)
        setups.append(r["setup_s"])
        walls.append(r["wall_s"])
        raw.append(r["raw_wall_s"])
        attempted += r["attempted"]
        failed += r["failed"]
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        r = one_pass(workload, seed, "setup", workdir / f"setup{len(setups)}", deadline)
        setups.append(r["setup_s"])
    print(f"passes (s): {' '.join(f'{w:.3f}' for w in walls)}; "
          f"unscaled: {' '.join(f'{w:.3f}' for w in raw)}; "
          f"set-ups (s): {' '.join(f'{s:.3f}' for s in setups)}", file=sys.stderr)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
              "peak_rss_mb": peak_kib / 1024}
    return values, attempted, failed


def traced(workload, seed, workdir, deadline):
    """One pass untraced, then traced; (per-layer values, attempted, failed labels)."""
    from layertrace import layer_values
    untraced = one_pass(workload, seed, "pass", workdir / "untraced", deadline)
    t = one_pass(workload, seed, "traced", workdir / "traced", deadline)
    failed = untraced["failed"] + t["failed"]
    checks = self_checks(workload, t["deltas"]) if not failed else []
    for text, holds in checks:
        print(("self-check ok: " if holds else "self-check DIFFERS from seed split: ") + text,
              file=sys.stderr)
    values = layer_values(t["raw"])
    values["proc.cpu_s"] = t["cpu_s"]
    values["trace.overhead"] = t["raw_wall_s"] / untraced["raw_wall_s"]
    values["trace.selfcheck_failures"] = sum(not holds for _, holds in checks)
    return values, untraced["attempted"] + t["attempted"], failed


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "hopfforge" / "__init__.py").is_file():
        print(f"error: no hopfforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by every pass

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            values, attempted, failed = traced(args.workload, args.seed, workdir, deadline)
        else:
            values, attempted, failed = measure(args.workload, args.seed, args.seconds, workdir,
                                                deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()

    if args.trace:  # a layer the workload never calls reads 0
        metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16} {name:28} {value:14.6g} {unit}")
    print(f"{args.workload:16} {'fail_ratio':28} {len(failed) / attempted:14.6g} "
          f"({len(failed)} of {attempted} ops)")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
