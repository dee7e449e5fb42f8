"""The benchmark's workloads: seeded op lists and the gates on their outputs.

`prepare(seed, ...)` runs in the process of one pass (see one_pass.py),
just after it imports `hopfforge`: it builds the catalog entries and
generates the seeded inputs, and returns the pass's ops.  Everything it does
is set-up.  An op's `run` is timed; its `check` runs after the pass and says
whether the output is the expected one.  No op repeats inside one process,
so a result or op cache can only help across distinct inputs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from rescale import perturb_unit_row, rescaled

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
CLI_TIMEOUT_S = 150


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _check_hopf_op(label, H):
    from hopfforge.hopf import check_hopf
    return Op(label, lambda: check_hopf(H), lambda rep: rep.ok)


def verify(seed, tracer=None, workdir=None):
    """check_hopf on catalog algebras in their catalog bases."""
    from hopfforge import catalog
    names = ["kc12n6", "xmas", "smash36", "b0", "c4min"]
    random.Random(seed).shuffle(names)
    return [_check_hopf_op(f"check_hopf {n}", catalog.ALL_BUILDERS[n]().ore.O) for n in names]


def verify_rescaled(seed, tracer=None, workdir=None):
    """check_hopf on seeded rescaled-basis copies, plus one negative control."""
    from hopfforge import catalog
    from hopfforge.hopf import check_algebra
    rng = random.Random(seed)
    names = ["xmas", "smash36", "b0", "c4min"]
    rng.shuffle(names)
    copies = {n: rescaled(catalog.ALL_BUILDERS[n]().ore.O, rng) for n in names}
    ops = [_check_hopf_op(f"check_hopf {n}", H) for n, H in copies.items()]
    broken, j = perturb_unit_row(copies["b0"], rng)

    def caught(rep):
        unit = rep.entry("two_sided_unit")
        return not unit.ok and unit.witnesses == [j]
    ops.append(Op("check_algebra b0 with a perturbed unit row", lambda: check_algebra(broken), caught))
    return ops


# `::` values of run_analysis that must not change.
PINNED = {
    "xmas_pi": dict(thin=True, N=6, q="z", **{"lambda": "0"}, dim_A1=24, x_zero=False,
                    eq_a_colinear=False, eq_b_odd_or_half_zero=False,
                    eq_c_powers_agree=False, eq_d_quantum_line=False),
    "kc12n6": dict(thin=True, N=6, q="z^2", **{"lambda": "1"}, dim_A1=24, x_zero=True,
                   eq_a_colinear=True, eq_b_odd_or_half_zero=True,
                   eq_c_powers_agree=True, eq_d_quantum_line=True),
    "smash36": dict(thin=True, N=6, q="z", **{"lambda": "0"}, dim_A1=12, x_zero=True,
                    eq_a_colinear=True, eq_b_odd_or_half_zero=True,
                    eq_c_powers_agree=True, eq_d_quantum_line=True),
}


def analyze(seed, tracer=None, workdir=None):
    """cli.run_analysis then analyze.classify on three projection setups."""
    from hopfforge import catalog
    from hopfforge.analyze import classify
    from hopfforge.cli import run_analysis
    from hopfforge.reports import Report
    setups = {"xmas_pi": catalog.xmas().extra["setup_pi"],
              "kc12n6": catalog.kc12n6().setup,
              "smash36": catalog.smash36().setup}
    names = list(setups)
    random.Random(seed).shuffle(names)
    ops = []
    for n in names:
        s = setups[n]

        def analysis(s=s, n=n):
            rep = Report(f"analyze {n}")
            run_analysis(s, rep)
            return rep

        def report_ok(rep, n=n):
            return rep.exit_code == 0 and all(rep.kv.get(key) == v for key, v in PINNED[n].items())

        def iso_ok(result, s=s):
            _, ore, iso = result
            return iso.rank() == s.A.dim and (iso @ ore.sigma) == s.sigma

        ops.append(Op(f"run_analysis {n}", analysis, report_ok))
        ops.append(Op(f"classify {n}", lambda s=s: classify(s), iso_ok))
    return ops


def build(seed, tracer=None, workdir=None):
    """A CLI session of subprocesses on .alg files written here."""
    from hopfforge import catalog
    from hopfforge.cocycle import bosonize
    from hopfforge.fileformat import AlgebraFile, write_cocycle, write_hopf, write_prebialgebra
    d = Path(workdir)
    d.mkdir(parents=True)
    ore = catalog.b0().ore
    write_hopf(ore.base, d / "b0_base.alg")
    write_hopf(ore.O, d / "b0.alg", kind="hopf",
               maps={"sigma": (ore.sigma, "b0_base.alg"), "p": (ore.p, "b0_base.alg")})
    ql = catalog.qline6().extra
    write_hopf(ql["H"], d / "qline6_base.alg")
    write_prebialgebra(ql["quantum_line"], d / "qline6_r.alg", "qline6_base.alg")
    write_cocycle(ql["xi"], d / "qline6_xi.alg", ql["H"].conductor,
                  r_ref="qline6_r.alg", base_ref="qline6_base.alg")

    def command(argv):
        return lambda: _cli(argv, d, tracer)

    def b_alg_ok(rc):
        if rc != 0:
            return False
        got = AlgebraFile(d / "B.alg").to_hopf()
        want = bosonize(ql["quantum_line"], ql["xi"], verify=False).B
        return (got.mult == want.mult and got.comult == want.comult
                and got.unit == want.unit and got.counit == want.counit)

    chains = [
        [Op("hopfforge ore", command(["ore", "--base", "b0.alg", "--g", "g1", "--chi", "chi2",
                                      "--lambda", "0", "--out", "A.alg"]), lambda rc: rc == 0)],
        [Op("hopfforge bosonize", command(["bosonize", "qline6_r.alg", "qline6_xi.alg",
                                           "--out", "B.alg"]), b_alg_ok),
         Op("hopfforge check", command(["check", "B.alg"]), lambda rc: rc == 0)],
    ]
    random.Random(seed).shuffle(chains)
    return [op for chain in chains for op in chain]


def _cli(argv, cwd, tracer):
    """Run one hopfforge command in a new interpreter; return its exit code.

    Traced, the command starts through launcher.py and its counters are
    added to the tracer's."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if tracer is None:
        cmd = [sys.executable, "-m", "hopfforge.cli", *argv]
    else:
        out = cwd / f"trace-{argv[0]}.json"
        cmd = [sys.executable, str(BENCH / "launcher.py"), str(out), repr(time.perf_counter()), *argv]
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if tracer is not None and out.exists():
        for key, v in json.loads(out.read_text()).items():
            tracer.raw[key] = tracer.raw.get(key, 0) + v
    return proc.returncode


WORKLOADS = {
    "verify": verify,
    "verify_rescaled": verify_rescaled,
    "analyze": analyze,
    "build": build,
}
