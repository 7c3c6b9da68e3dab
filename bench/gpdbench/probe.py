"""A reference computation that measures the host's speed during a run.

The benchmark's host is shared with other tenants, and its speed for one
thread changes by up to a factor of two within seconds.  So while a run
times its set-ups and passes, a timer interrupts it at a fixed period,
and the signal handler times one short slice of a fixed computation.  The slices fall inside the jobs themselves, long ones too,
and sample the host's speed evenly over time; a timed stretch is
corrected by the slices taken during it, after the slices' own time is
taken out of it.

The computation is pure Python of the kind the library does (tuple keys,
dict lookups, a pruned permutation search) and never calls the library,
so no change to the program can move it.  Slices run with the collector
off, so their time does not depend on what the jobs left on the heap.
"""

import gc
import signal
from itertools import permutations
from time import perf_counter_ns

# about the median slice time on a quiet host with Python 3.11; a
# stretch whose slices take this long is reported unscaled
NOMINAL_NS = 7_500_000

_TABLE = {(i, j): (3 * i + j * j) % 7 for i in range(7) for j in range(7)}


def _search():
    count = 0
    for _ in range(2):
        for perm in permutations(range(7)):
            for a, b in zip(perm, perm[1:]):
                if _TABLE[(a, b)] == 0:
                    break
            else:
                count += 1
    return count


EXPECTED = _search()


class Probe:
    """The slices taken during one run."""

    def __init__(self):
        self.samples = []
        self.busy_ns = 0       # time spent in slices, to take out of jobs
        self.period_s = None
        self.previous = signal.SIG_DFL

    def take(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter_ns()
            found = _search()
            ns = perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()
        if found != EXPECTED:
            raise RuntimeError("the reference computation changed its answer")
        self.samples.append(ns)
        self.busy_ns += perf_counter_ns() - t0

    def start(self, period_s):
        """Take a slice after every ``period_s`` seconds of other work."""
        self.period_s = period_s
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period_s)

    def _tick(self, signum, frame):
        # the timer is re-armed only after the slice, so a slice that
        # outlasts the period is never interrupted by the next one
        self.take()
        signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def nominal(self, raw_ns, since):
        """``raw_ns`` of work at nominal speed, by the slices from ``since``.

        Slices sample the host evenly in time, so the work done is the
        time taken times the mean of the nominal over the slice time.
        """
        slices = self.samples[since:]
        if not slices:
            self.take()
            slices = self.samples[-1:]
        return raw_ns * sum(NOMINAL_NS / ns for ns in slices) / len(slices)
