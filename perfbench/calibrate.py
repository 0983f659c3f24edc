"""Machine speed, measured next to the timed work.

The host this benchmark was built on runs at two speeds, one about 1.7x
slower, for seconds to minutes at a time (see README.md).  A child
process on the same core therefore runs a fixed reference kernel every
EVERY_S and reports the CPU time it took, which rises and falls with the
machine's speed but not with the core being shared.  An interval's speed
is REFERENCE_KERNEL_S over the mean kernel time during it; a wall time
times that speed is in reference seconds.  The kernel shares no code
with roundgroup, so a change to the package moves reference seconds
exactly as it moves wall seconds.

    python3 perfbench/calibrate.py     # the child: one line per kernel
"""

from __future__ import annotations

import bisect
import select
import statistics
import subprocess
import sys
import time

import numpy as np

# the kernel's CPU time in the fast state of the machine in README.md
REFERENCE_KERNEL_S = 2.4e-3
EVERY_S = 0.25


def kernel_cpu_seconds(perm: np.ndarray) -> float:
    """Best of three runs of a fixed mix of interpreter and numpy work."""
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        x = 0
        for i in range(30_000):
            x += i
        p = perm
        for _ in range(16):
            p = perm[p]
        best = min(best, time.process_time() - t0)
    return best


def serve() -> None:
    """Print "<monotonic time> <kernel CPU seconds>" at once, every
    EVERY_S, and once more when stdin closes."""
    perm = np.random.default_rng(0).permutation(1 << 16)
    closed = False
    while not closed:
        t0 = time.monotonic()
        k = kernel_cpu_seconds(perm)
        print(f"{(t0 + time.monotonic()) / 2!r} {k!r}", flush=True)
        closed = bool(select.select([sys.stdin], [], [], EVERY_S)[0])
    print(f"{time.monotonic()!r} {kernel_cpu_seconds(perm)!r}", flush=True)


class Calibrator:
    """The kernel child; close() stops it and returns its samples."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        # wait out the child's start-up, which would compete for the core
        self._first = self._proc.stdout.readline()

    def close(self) -> "Speeds":
        self._proc.stdin.close()
        out = self._first + self._proc.stdout.read()
        self._proc.stdout.close()
        if self._proc.wait(timeout=60) != 0:
            raise RuntimeError("calibration child failed")
        return Speeds([tuple(map(float, line.split()))
                       for line in out.splitlines()])


class Speeds:
    """Kernel samples (time, CPU seconds), in time order."""

    def __init__(self, samples: list[tuple[float, float]]):
        if not samples:
            raise RuntimeError("no calibration samples")
        self.samples = samples
        self._times = [t for t, _ in samples]

    def speed(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end], from the
        samples inside it, or the nearest one on each side."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        inside = self.samples[max(lo - 1, 0) if lo == hi else lo:
                              hi + 1 if lo == hi else hi]
        return REFERENCE_KERNEL_S / statistics.mean(k for _, k in inside)


if __name__ == "__main__":
    serve()
