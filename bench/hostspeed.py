"""Host speed, sampled inside the measured process, to steady its times.

The benchmark's host is a VM on a shared machine.  There the speed of the
same code switches between regimes up to 2x apart that last from seconds to
minutes, so raw pass times follow the regime a run falls in.  A fixed
reference block, timed in the same process and on the same CPU, slows down
alike: with a block of this kind, over two minutes of `check_hopf` calls the median op time per 20 s
window ranged from 0.45 to 0.74 s, while the same times scaled by the
reference speed stayed within 7% of each other.

`Sampler` runs the reference block from a SIGALRM handler every PERIOD_S
seconds of wall time.  `Sampler.seconds(t0, t1)` is the wall time from t0
to t1, less the time spent in the handler, scaled to the nominal speed at
which one block takes REF_S seconds of thread CPU time: it is multiplied by
the mean of REF_S / (block time) over the samples taken inside the
interval and the one on each side of it.  Samples are evenly spaced in wall
time, so that mean weights each regime by the time spent in it.  The block
is pure Python over small integer vectors and dicts, the kind of work the
library's scalar layer does, and imports nothing from the library, so a
change to the library does not move it.

run.py pins the benchmark's processes to one CPU, so that the handler of a
process waiting for a CLI command samples the CPU the command runs on.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from math import gcd

PERIOD_S = 0.05
# Thread CPU time of one reference block at the nominal speed: about its
# time in the handler on a 2-vCPU Intel Xeon VM (Python 3.11) in that
# host's faster regime, so that scaled times read close to raw ones there.
REF_S = 0.0007
_RED = (1, -1, 1, 0)  # a fixed rule that folds degrees 4..6 back into 0..3


def reference_block() -> int:
    """A fixed amount of small exact arithmetic; returns a checksum."""
    table = {}
    a, den = (1, 2, -1, 3), 5
    for i in range(120):
        b, bden = (i % 3, 1, i % 5 - 2, 1), i % 4 + 1
        prod = [0] * 7
        for x, u in enumerate(a):
            if u:
                for y, v in enumerate(b):
                    prod[x + y] += u * v
        for k in range(6, 3, -1):
            t = prod[k]
            if t:
                prod[k] = 0
                for j, r in enumerate(_RED):
                    prod[k - 4 + j] -= t * r
        d = den * bden
        g = d
        for u in prod[:4]:
            g = gcd(g, u)
        c = tuple(u // g for u in prod[:4])
        table[c] = d // g
        if any(c) and d // g < 10**6 and max(map(abs, c)) < 10**6:
            a, den = c, d // g
        else:
            a, den = (1, 2, -1, 3), 5
    return len(table)


class Sampler:
    """Reference-block samples (start, handler wall seconds, speed) of this process."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        # No collection inside the block: its cost grows with the library's
        # heap, and would read as a slower host.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        cpu = time.thread_time()
        reference_block()
        speed = REF_S / (time.thread_time() - cpu)
        self.samples.append((start, time.perf_counter() - start, speed))
        if gc_was_enabled:
            gc.enable()

    def seconds(self, t0: float, t1: float) -> float:
        """Wall time t0..t1 outside the handler, scaled to the nominal speed.

        Take a sample just before t0 and just after t1 (outside the
        interval), so that every interval has samples on both sides."""
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        before = [s for s in self.samples if s[0] < t0][-1:]
        after = [s for s in self.samples if s[0] >= t1][:1]
        speed = statistics.fmean(s[2] for s in before + inside + after)
        return (t1 - t0 - sum(s[1] for s in inside)) * speed
