"""How fast the host runs while an operation runs, from a short fixed task.

On a shared host one core's speed changes by up to about 1.8 times within
a second, as other tenants load the same physical core, and the two cores
of a 2-core host do so independently of each other.  Every timing moves
with it.  The benchmark therefore pins itself, and the processes it starts,
to one core, and runs a short fixed task on that core: a burst of them
before and after each operation, and one every ``PERIOD_S`` of CPU time
inside it (on ``SIGPROF``).  The operation's time without the samples taken
inside it, times ``REFERENCE_S`` over the mean sample, reads as seconds on
a host where the task takes ``REFERENCE_S``.  This cancels most of the
host's speed changes, also those within one long operation.

The task uses no code of dirmean, so a change to dirmean does not move it.
It is small numpy calls from a Python loop, as in the slab solver, and
plain Python.  Of the kinds of work tried (those two, a dense product, a
pass over an array larger than the L2 cache, copying a block of rows), these
two slow down with the host most nearly as much as the operations do; the
others slow down less.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025  # CPU time between two samples inside an operation
BURST = 8  # samples before and after each operation
REFERENCE_S = 0.0004  # the task's usual time on a 2-core Xeon (Sapphire Rapids) VM of a shared host


def pin_to_one_core() -> int:
    """Pin this process, and the processes it starts later, to one core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(20101121)
        self.r = rng.standard_normal(2000)
        self.b = rng.standard_normal(2000)
        self.w = np.abs(rng.standard_normal(2000))
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.burst()  # the first runs pay for lazy set-up in numpy

    def task(self) -> None:
        t0 = time.perf_counter()
        for k in range(16):
            np.max(np.abs(self.r - (k * 1e-3) * self.b) - self.w)
        s = 0
        for i in range(2000):
            s += i * i % 7
        self.samples.append((t0, time.perf_counter() - t0))

    def burst(self) -> None:
        for _ in range(BURST):
            self.task()

    @contextlib.contextmanager
    def sampling(self):
        """Run the task every ``PERIOD_S`` of this process's CPU time."""
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.task())
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def measure(self, fn, *args, child_samples=None):
        """Call ``fn(*args)``, which returns ``(seconds, result)``, between two
        bursts and with samples inside it.

        Returns the call's seconds at reference speed, its seconds as
        measured, and its result.  ``child_samples()``, if given, returns
        the samples that a child process took inside the call.
        """
        first = len(self.samples)
        self.burst()
        with self.sampling():
            t0 = time.perf_counter()
            seconds, result = fn(*args)
            t1 = time.perf_counter()
        self.burst()
        window = [s for _, s in self.samples[first:]]
        inside = [s for start, s in self.samples[first:] if t0 <= start <= t1]
        if child_samples is not None:
            inside += child_samples()
            window += child_samples()
        return (seconds - sum(inside)) * REFERENCE_S / statistics.fmean(window), seconds, result
