"""Scaling of measured times to a reference machine speed.

On a shared virtual machine the speed of a core drifts with the load of
its neighbours. On a 2-core KVM guest (Xeon, Python 3.11) one pass of the
same work took 3.9 to 6.9 s within a few minutes, and five runs of each
workload spread by 14-27% of the median between quartiles, wider than any
useful bound.

While a run measures, a small child interpreter (this file run as a
script) times a fixed pure-Python kernel (integer arithmetic and
dictionary stores) every PERIOD seconds, stamping each sample with the
system-wide monotonic clock. The kernel runs in its own process, so
nothing the library does to its interpreter (profiling hooks, gc settings,
threads) reaches the kernel. The child usually wakes on the core of the
measured process, so each sample runs the kernel once to warm the caches
and times a second run: a cold first run mostly measures how much of the
kernel the measured process evicted. Over twelve runs of six 1.5 s solves
each, the spread between run medians was 16% raw, 8% scaled by cold runs,
10% scaled by an in-process SIGALRM probe and 3.5% scaled by warm runs.

A region's scaled time is the seconds it would have taken on a machine
where one warm kernel run takes REFERENCE seconds: the sum, over WINDOW-
long slices of the region, of each slice's wall time times REFERENCE over
the median kernel time sampled during the slice. Slicing follows drift
within a long region: over two sets of twelve runs of six 1.5 s solves
each, it cut the spread between run medians from 9% and 5% to 5% and 4%,
against one median over the whole region.
"""

import bisect
import json
import select
import statistics
import subprocess
import sys
import time

PERIOD = 0.02
REFERENCE = 100e-6     # a fixed scale: about one warm kernel run on the machine above
WINDOW = 0.25
MIN_SAMPLES = 9        # a slice with fewer uses the samples nearest its middle


def kernel():
    x = 0
    table = {}
    for i in range(400):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 255] = i


def sample_until_eof():
    """Child side: time a warm kernel run every PERIOD until stdin closes,
    then print the samples as one JSON list of (end time, seconds) pairs."""
    samples = []
    clock = time.monotonic
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        kernel()
        t0 = clock()
        kernel()
        t1 = clock()
        samples.append((t1, t1 - t0))
    sys.stdin.read()
    print(json.dumps(samples))


class SpeedProbe:
    """Runs the sampling child for the duration of a `with` block. Mark
    regions with `time.monotonic()`; slowdowns are known after the block."""

    def __init__(self):
        self.times = []
        self.seconds = []
        self._child = None

    def __enter__(self):
        self._child = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        out, _ = self._child.communicate(timeout=60)
        samples = json.loads(out)
        self.times = [t for t, _ in samples]
        self.seconds = [dt for _, dt in samples]
        self._child = None

    def slowdown(self, t0=-float("inf"), t1=float("inf")):
        """Median kernel time over REFERENCE for samples taken between
        monotonic times t0 and t1, or the MIN_SAMPLES nearest to the middle
        of a shorter span."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(len(self.times) - MIN_SAMPLES, middle - MIN_SAMPLES // 2))
            hi = lo + MIN_SAMPLES
        return statistics.median(self.seconds[lo:hi]) / REFERENCE

    def scaled(self, t0, t1):
        total = 0.0
        while t0 < t1:
            end = min(t0 + WINDOW, t1)
            total += (end - t0) / self.slowdown(t0, end)
            t0 = end
        return total


if __name__ == "__main__":
    sample_until_eof()
