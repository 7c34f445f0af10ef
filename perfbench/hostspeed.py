"""Host-speed probe: a short fixed pure-Python loop that shares no code with the library.

The shared machines this benchmark was written on change speed within
seconds: a fixed 1 s piece of ``run_suites`` work ranged over 1.6x in a
minute and a half of back-to-back repeats, and a probe sampled every 50 ms
moved with it (correlation 0.8).  Sampling the probe only between operations
that last 10 s or more misses most of that, so a run samples it *during* its
operations: ``ticking()`` arms an interval timer whose SIGALRM handler runs
the probe every ``TICK_S`` seconds.  Operations too short to be interrupted
(single queries, interpreter start-up) run with the timer off, and a
``burst()`` of probes brackets each group of them instead.  Every time is
reported as the time it would take on a host on which the probe takes
``REFERENCE_S``: the probe time inside a stretch of work is taken out, and
each piece of work between two probes is scaled by

    REFERENCE_S / (mean time of the WINDOW probes on either side of the piece)

so that a slow second of a long operation is scaled by the probes of that
second.  On repeats of one oracle round this cut the spread of the round's
time from 7-14% to 2-3%.

The probe does the kind of work the library does (Fraction arithmetic,
dict stores, integer division), so host slowdowns move it and the library
alike.  A change to the library cannot move the probe, so the scaled times
still show it.
"""

import bisect
import contextlib
import gc
import signal
import statistics
import time
from array import array
from fractions import Fraction

REFERENCE_S = 0.0008
TICK_S = 0.05
BURST = 8
WINDOW = 2


def _probe() -> float:
    # with the collector on, the probe's allocations would trigger collections
    # that scan the workload's heap, which would time the heap, not the host
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        acc += Fraction(i, i * i + 7)
        table[i % 97] = acc.numerator % 1000003
    n = 1000003 * 999983
    for p in range(3, 4000, 2):
        n % p
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class HostSpeed:
    """Probe times sampled through one run: when each probe started and how
    long it took."""

    def __init__(self):
        self.starts = array("d")
        self.samples = array("d")
        self._busy = False

    def _record(self) -> None:
        if self._busy:  # a tick that arrives during a probe is dropped
            return
        self._busy = True
        self.starts.append(time.perf_counter())
        self.samples.append(_probe())
        self._busy = False

    def burst(self, n: int = BURST) -> None:
        for _ in range(n):
            self._record()

    @contextlib.contextmanager
    def ticking(self, tick_s: float = TICK_S):
        """Sample the probe every ``tick_s`` seconds of the block's wall time."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self._record())
        signal.setitimer(signal.ITIMER_REAL, tick_s, tick_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _inside(self, t0: float, t1: float) -> range:
        """Indices of the probes that ran inside the stretch [t0, t1]."""
        return range(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))

    def work_s(self, t0: float, t1: float) -> float:
        """Wall time of the stretch [t0, t1] less the probes inside it."""
        return t1 - t0 - sum(self.samples[j] for j in self._inside(t0, t1))

    def reference_s(self, t0: float, t1: float) -> float:
        """What the work of the stretch [t0, t1] (probes left out) takes on
        the reference host.  Each piece between two probes is scaled by the
        mean of the ``WINDOW`` probes on either side of it, so the stretch
        needs a probe before it and one after it."""
        inside = self._inside(t0, t1)
        edges = [t0]
        for j in inside:
            edges += (self.starts[j], self.starts[j] + self.samples[j])
        edges.append(t1)
        total = 0.0
        for k, j in enumerate(range(inside.start, inside.stop + 1)):
            window = self.samples[max(0, j - WINDOW):j + WINDOW]
            total += (edges[2 * k + 1] - edges[2 * k]) * REFERENCE_S / statistics.fmean(window)
        return total
