"""Per-layer tracing installed from outside the library.

`Tracer.install()` replaces public functions and methods of the imported
`hopfforge` modules with wrappers that count calls and time them.  Layer
boundaries follow the module names:

- L0 `cyclotomic`: `CycScalar` operators.  These are leaf counters: they
  count (and `__mul__` is timed) but they open no span, so they never
  enter another layer's self time.
- L1 kernels, L2 checkers, L3 `analyze` stages and L4 `construct`,
  `fileformat` and `cli` entry points open spans.  A span's self time is
  its duration minus the durations of the wrapped spans directly inside it.

Counts are kept in plain dicts; nothing is written until `snapshot()`.
"""

from __future__ import annotations

import os
import sys
import time

# (metric prefix, module, attribute path) of every spanned callable.
SPANS = [
    ("mul_sv", "hopf", "AlgebraSC.mul_sv"),
    ("comult_sv", "hopf", "CoalgebraSC.comult_sv"),
    ("mat.apply_sv", "linalg", "Mat.apply_sv"),
    ("mat.matmul", "linalg", "Mat.__matmul__"),
    ("rref", "linalg", "rref"),
    ("kernel_from_sparse_rows", "linalg", "kernel_from_sparse_rows"),
    ("check_algebra", "hopf", "check_algebra"),
    ("check_coalgebra", "hopf", "check_coalgebra"),
    ("check_bialgebra", "hopf", "check_bialgebra"),
    ("check_hopf", "hopf", "check_hopf"),
    ("check_prebialgebra", "cocycle", "check_prebialgebra"),
    ("check_cocycle", "cocycle", "check_cocycle"),
    ("validate_setup", "analyze", "validate_setup"),
    ("induced_structures", "analyze", "induced_structures"),
    ("omega_roundtrip", "analyze", "omega_roundtrip"),
    ("thinness_and_basis", "analyze", "thinness_and_basis"),
    ("cocycle_analysis", "analyze", "cocycle_analysis"),
    ("equivalence_report", "analyze", "equivalence_report"),
    ("wedge_layer_of_sigma", "analyze", "wedge_layer_of_sigma"),
    ("classify", "analyze", "classify"),
    ("build_ore_hopf", "construct", "build_ore_hopf"),
    ("build_quantum_line", "construct", "build_quantum_line"),
    ("bosonize", "cocycle", "bosonize"),
    ("universal_map", "construct", "universal_map"),
    ("fileformat.read", "fileformat", "AlgebraFile.__init__"),
    ("fileformat.read", "fileformat", "AlgebraFile.to_hopf"),
    ("fileformat.read", "fileformat", "AlgebraFile.to_map"),
    ("fileformat.read", "fileformat", "AlgebraFile.to_prebialgebra"),
    ("fileformat.read", "fileformat", "AlgebraFile.to_cocycle"),
    ("fileformat.write", "fileformat", "write_hopf"),
    ("fileformat.write", "fileformat", "write_prebialgebra"),
    ("fileformat.write", "fileformat", "write_cocycle"),
    ("fileformat.write", "fileformat", "write_map"),
    ("cli.check", "cli", "cmd_check"),
    ("cli.ore", "cli", "cmd_ore"),
    ("cli.bosonize", "cli", "cmd_bosonize"),
    ("cli.run_analysis", "cli", "run_analysis"),
]

def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Counters and span times for one traced `hopfforge` import."""

    def __init__(self):
        self.raw: dict[str, float] = {}
        self._stack: list[float] = []
        self._mul_seen: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, prefix, fn):
        raw, stack, clock = self.raw, self._stack, time.perf_counter
        k_calls, k_s, k_self = prefix + ".calls", prefix + ".s", prefix + ".self_s"
        for k in (k_calls, k_s, k_self):
            raw.setdefault(k, 0)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                raw[k_calls] += 1
                raw[k_s] += dt
                raw[k_self] += dt - child
                if stack:
                    stack[-1] += dt
        return wrapper

    def _counter(self, key, fn):
        raw = self.raw
        raw.setdefault(key, 0)

        def wrapper(*args):
            raw[key] += 1
            return fn(*args)
        return wrapper

    def _mul(self, fn, cyc_type):
        raw, seen, clock = self.raw, self._mul_seen, time.perf_counter
        raw.setdefault("cyc.mul.calls", 0)
        raw.setdefault("cyc.mul.s", 0.0)

        def wrapper(a, b):
            t0 = clock()
            out = fn(a, b)
            raw["cyc.mul.s"] += clock() - t0
            raw["cyc.mul.calls"] += 1
            if type(b) is cyc_type:
                seen.add((a.L, a.den, a.nums, b.L, b.den, b.nums))
            else:
                seen.add((a.L, a.den, a.nums, b))
            return out
        return wrapper

    def _promote(self, fn):
        raw = self.raw
        raw.setdefault("cyc.promote.calls", 0)

        def wrapper(x, M):
            if M != x.L:
                raw["cyc.promote.calls"] += 1
            return fn(x, M)
        return wrapper

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the currently imported `hopfforge` modules."""
        mods = {name.split(".", 1)[1]: m for name, m in sys.modules.items()
                if name.startswith("hopfforge.")}
        cyc = mods["cyclotomic"].CycScalar
        mul = self._mul(cyc.__mul__, cyc)
        add = self._counter("cyc.add.calls", cyc.__add__)
        for attr, new in [("__mul__", mul), ("__rmul__", mul), ("__add__", add), ("__radd__", add),
                          ("promote", self._promote(cyc.promote)),
                          ("inverse", self._counter("cyc.inverse.calls", cyc.inverse)),
                          ("__bool__", self._counter("cyc.bool.calls", cyc.__bool__)),
                          ("__eq__", self._counter("cyc.eq.calls", cyc.__eq__)),
                          ("__hash__", self._counter("cyc.hash.calls", cyc.__hash__))]:
            self._set(cyc, attr, new)
        everywhere = [m for name, m in sys.modules.items()
                      if name == "hopfforge" or name.startswith("hopfforge.")]
        for prefix, module, path in SPANS:
            owner, attr = _resolve(mods[module], path)
            fn = getattr(owner, attr)
            wrapped = self._span(prefix, fn)
            if prefix == "fileformat.read" and attr == "__init__":
                wrapped = self._count_bytes(wrapped, before=True)
            elif prefix == "fileformat.write":
                wrapped = self._count_bytes(wrapped, before=False)
            if owner is mods[module]:
                # a module-level function: rebind every `from ... import` copy too
                for m in everywhere:
                    if getattr(m, attr, None) is fn:
                        self._set(m, attr, wrapped)
            else:
                self._set(owner, attr, wrapped)

    def _count_bytes(self, fn, before):
        """Add the size of the file named by the second argument (a file
        read, or written, by fn) to `fileformat.bytes`."""
        raw = self.raw
        raw.setdefault("fileformat.bytes", 0)

        def wrapper(*args, **kwargs):
            if before:
                raw["fileformat.bytes"] += os.path.getsize(args[1])
            out = fn(*args, **kwargs)
            if not before:
                raw["fileformat.bytes"] += os.path.getsize(args[1])
            return out
        return wrapper

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- results --------------------------------------------------------------

    def end_op(self) -> None:
        """Close the repeat window of one op: `cyc.mul.repeat_share` counts an
        operand pair as repeated only if the same op formed it before."""
        self.raw["cyc.mul.distinct"] = self.raw.get("cyc.mul.distinct", 0) + len(self._mul_seen)
        self._mul_seen.clear()

    def snapshot(self) -> dict[str, float]:
        """Raw counters, with the open repeat window closed."""
        self.end_op()
        return dict(self.raw)


def layer_values(raw: dict[str, float]) -> dict[str, float]:
    """Merged raw counters plus the derived `cyc.mul.repeat_share`.

    Most per-layer metrics of BENCHMARK.json are raw counter keys:
    "<prefix>.calls", "<prefix>.s" (inclusive) and "<prefix>.self_s" of a
    span, or an L0 counter; launcher.py sets `cli.startup_s`."""
    values = dict(raw)
    calls = raw.get("cyc.mul.calls", 0)
    values["cyc.mul.repeat_share"] = 1 - raw.get("cyc.mul.distinct", 0) / calls if calls else 0.0
    return values
