"""Run one pass of a benchmark workload in this process.

    python3 bench/one_pass.py WORKLOAD SEED WORKDIR setup|pass|traced

run.py starts this script once per pass, so every pass imports `hopfforge`
afresh and no op repeats inside a process.  Set-up is the import, the
catalog builds and the input generation of workloads.py; `setup` stops
after it.  `pass` then runs the op list once and checks the outputs.
`traced` does the same with the wrappers of layertrace.py installed before
set-up, so the per-layer counters cover set-up too.

Untraced, the process samples the host speed (hostspeed.py) from start to
end, and setup_s and wall_s are scaled to the nominal speed; raw_wall_s is
the plain wall time of the pass.  A traced pass does not sample.

The last line of stdout is one JSON object: setup_s, and for a pass
wall_s, raw_wall_s, attempted and failed (labels of failed ops); a traced
pass has neither setup_s nor wall_s and adds cpu_s (of this process and
the commands it ran), raw (the counters) and deltas (the counters each op
added).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def run_pass(ops, tracer=None):
    """(start, end, labels of failed ops, per-op counter deltas if traced)."""
    results, deltas = [], {}
    t0 = time.perf_counter()
    for op in ops:
        before = dict(tracer.raw) if tracer is not None else None
        try:
            results.append(op.run())
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            traceback.print_exc()
            results.append(exc)
        if tracer is not None:
            tracer.end_op()
            deltas[op.label] = {key: v - before.get(key, 0) for key, v in tracer.raw.items()}
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    failed = []
    for op, result in zip(ops, results):
        try:
            ok = not isinstance(result, Exception) and op.check(result)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"FAILED op: {op.label}", file=sys.stderr)
            failed.append(op.label)
    return t0, t1, failed, deltas


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main(argv) -> int:
    workload, seed, workdir, mode = argv
    sys.path.insert(0, str(SRC))
    from hostspeed import Sampler
    from layertrace import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if mode == "traced" else None
    sampler = Sampler() if tracer is None else None
    if sampler is not None:
        sampler.start()
        sampler.sample()
    t0 = time.perf_counter()
    for name in ("hopfforge", "hopfforge.catalog", "hopfforge.cli"):
        importlib.import_module(name)
    if tracer is not None:
        tracer.install()
    ops = WORKLOADS[workload](int(seed), tracer, Path(workdir))
    t1 = time.perf_counter()
    out = {}
    if sampler is not None:
        sampler.sample()
        out["setup_s"] = sampler.seconds(t0, t1)
    if not Path(sys.modules["hopfforge"].__file__).resolve().is_relative_to(SRC):
        print(f"error: hopfforge was not imported from {SRC}", file=sys.stderr)
        return 2
    if mode != "setup":
        if tracer is not None:
            tracer.end_op()
        cpu0 = cpu_seconds()
        t0, t1, out["failed"], deltas = run_pass(ops, tracer)
        out["raw_wall_s"] = t1 - t0
        out["attempted"] = len(ops)
        if sampler is not None:
            sampler.sample()
            out["wall_s"] = sampler.seconds(t0, t1)
        if tracer is not None:
            out.update(cpu_s=cpu_seconds() - cpu0, raw=tracer.snapshot(), deltas=deltas)
    if sampler is not None:
        sampler.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
