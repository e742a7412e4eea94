"""Host-speed probes and host-speed-corrected times.

On the reference host (2 vCPUs of a shared server) the machine's speed
switches between phases that last from seconds to minutes: a fixed Fraction
loop, timed for 300 s, read 0.012–0.024 s per 10 s window, with the
first-to-third-quartile distance of those window medians at 0.34 of their
median.  The program slows with it, so a raw time says more about the phase
than about the program.

``Meter`` times the host alongside the program.  A timer signal makes a
probe every ``PROBE_EVERY_S`` seconds, inside the operations as well as
between them: it times a fixed loop of each kind the workload asks for (a
Fraction-and-dict loop for the interpreter, in-place digit arithmetic on a
1 MiB array for numpy) and records the slowness, the mean of loop time over
the loop's time in a fast phase.  An operation's raw time is its wall time
minus the probes made during it; its scaled time is the raw time divided by
the slowness around it (the probes made during it and within
``PROBE_EVERY_S`` on either side): the time it would have taken at the
reference speed.  The probes are the benchmark's own code; a change to the
program moves the operation times and not the probes, so it moves the
scaled times by the same share as the raw ones.

Measured on the reference host, as the spread of 10 s window medians of
operations alternated with probes: 20 ``isotropic_pair_case`` calls, 0.19
raw and 0.04 scaled by the interpreter loop (240 s); the Chevalley algebra
of E6, 0.21 and 0.04; a sample of exact-rank operations, 0.22 and 0.04
(200 s).  The BFS rank tables of quadric-8 over F_3, segre-2x5 over F_3 and
gr3-6 over F_2 read 0.19, 0.22 and 0.26 raw; scaled by the interpreter loop
alone 0.14, 0.19 and 0.05; by the numpy loop alone 0.06, 0.10 and 0.13; by
both 0.06, 0.04 and 0.06 (180 s).  So the pure-Python workloads use the
interpreter loop and the oracle workload both.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

#: Interval of the probe timer.
PROBE_EVERY_S = 0.1


def _python_loop():
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 130):
        acc += Fraction(i % 97, i % 13 + 1)
        table[i & 63] = table.get(i & 63, 0) + i * i
    return acc


class _NumpyLoop:
    """Digit arithmetic on a 1 MiB int64 array, as in the oracle's BFS.
    Works in place on arrays made once: a probe that freed large arrays
    would move glibc's mmap threshold and so change the program's own
    allocation behaviour."""

    def __init__(self, n=1 << 17):
        import numpy as np
        self.np = np
        self.a = np.arange(n, dtype=np.int64)
        np.multiply(self.a, 7919, out=self.a)
        self.b = np.empty_like(self.a)
        self.c = np.empty_like(self.a)

    def __call__(self):
        np = self.np
        np.remainder(self.a, 3, out=self.b)
        np.floor_divide(self.a, 3, out=self.c)
        np.add(self.b, self.c, out=self.b)


#: Probe kinds: (loop factory, loop time on the reference host in a fast
#: phase).  Scaled times are seconds at that speed.
PROBES = {
    "python": (lambda: _python_loop, 0.0003),
    "numpy": (_NumpyLoop, 0.0007),
}


class Meter:
    """Probes the host on a timer and turns wall-time spans into (raw,
    scaled) times.

    Each probe times one loop of every kind in ``kinds`` and records its
    slowness, the mean over kinds of loop time / reference time.
    ``start()`` arms the timer, ``stop()`` disarms it and takes one last
    probe; ``times(t0, t1)`` then gives the span's wall time minus the
    probes made in it, and that time divided by the span's slowness (the
    inverse of the mean inverse slowness of the probes made in the span or
    within ``every`` of it).  ``record`` lets a test feed probes without a
    timer."""

    def __init__(self, kinds=("python",), every=PROBE_EVERY_S,
                 clock=time.perf_counter):
        self.loops = [(PROBES[k][0](), PROBES[k][1]) for k in kinds]
        for loop, _ in self.loops:
            loop()  # first run: code paths and fresh array pages are cold
        self.every, self.clock = every, clock
        self.starts: list = []
        self.durations: list = []
        self.slowness: list = []
        self._busy = False

    def record(self, start, duration, slowness):
        self.starts.append(start)
        self.durations.append(duration)
        self.slowness.append(slowness)

    def probe(self):
        start = self.clock()
        slow = 0.0
        for loop, ref in self.loops:
            t0 = self.clock()
            loop()
            slow += (self.clock() - t0) / ref
        self.record(start, self.clock() - start, slow / len(self.loops))

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self.probe()
            finally:
                self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def times(self, t0, t1):
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        raw = (t1 - t0) - sum(self.durations[lo:hi])
        near = self.slowness[bisect.bisect_left(self.starts, t0 - self.every):
                             bisect.bisect_right(self.starts, t1 + self.every)]
        if not near:  # a span far from every probe: the nearest one
            i = min(bisect.bisect_left(self.starts, t0), len(self.starts) - 1)
            near = [self.slowness[i]]
        return raw, raw * sum(1.0 / s for s in near) / len(near)
