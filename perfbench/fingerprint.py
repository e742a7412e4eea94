"""Machine fingerprint for comparing reference figures across hosts.

    python3 perfbench/fingerprint.py

Prints Python and numpy versions, the CPU count, the best of five timings
of a fixed pure-Python calibration loop, and the best of 200 timings of each
host-speed probe loop (``hostspeed.PROBES``; their reference values are the
speed that scaled times are given at).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402


def calibration_s(repeats=5, n=2_000_000):
    """Best time of a fixed integer loop: interpreter speed, no I/O."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc + i * i) % 1000003
        best = min(best, time.perf_counter() - t0)
    return best


def probe_best_s(kind, repeats=200):
    loop = hostspeed.PROBES[kind][0]()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    import numpy
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "calibration_s": round(calibration_s(), 4),
        "probe_s": {k: round(probe_best_s(k), 6) for k in hostspeed.PROBES},
        "probe_ref_s": {k: ref for k, (_, ref) in hostspeed.PROBES.items()},
    }))


if __name__ == "__main__":
    main()
