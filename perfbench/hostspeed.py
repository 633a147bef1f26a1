"""Host-speed probe that scales the end-to-end timings.

The benchmark host is shared: the same pass can take 1.5x as long from
one minute to the next, and CPU time follows wall time, so the slowdown
is the host's.  A fixed probe of small numpy and Python operations, like
the ones cirlab spends its time in, runs right before and right after
each timed pass, in as many concurrent processes as the pass keeps busy.
A timing is then reported at the reference speed:

    scaled = wall * (REFERENCE_S / mean(probe before, probe after)) ** EXPONENT

The probe, all small operations, slows down more than cirlab does when
the host is busy: a pass that runs while the probe takes 1.8x as long
takes about 1.6x as long itself.  Over 30 recorded runs of each workload
(2 vCPUs), scaling by the plain probe ratio (exponent 1)
over-corrected; an exponent of 0.8 gave the steadiest run medians on most
metrics, and it is the default.  A workload may set another exponent for
a timing whose work slows down less (``exponents`` in workloads.py).

The probe does not touch cirlab, so a change to cirlab moves the scaled
timings exactly as it moves the wall timings; only the host's drift is
divided out.  The record of each run keeps the wall timings and the
probe times as well.
"""

import multiprocessing
import time

import numpy as np

REFERENCE_S = 0.040  # probe time that defines the reference host speed
ROUNDS = 3  # a probe is the fastest of ROUNDS timings
ITERATIONS = 2000
EXPONENT = 0.8  # see the module docstring


def probe_once(_=None):
    best = None
    for _ in range(ROUNDS):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 64))
        w = rng.standard_normal((64, 16))
        start = time.perf_counter()
        for _ in range(ITERATIONS):
            z = np.tanh(a @ w)
            float(z.sum())
            rng.choice(32, 8, replace=False)
            {j: a[j, 0] for j in range(16)}
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class HostSpeed:
    """Probe in ``processes`` concurrent processes (1: in this process).

    The pool forks: a spawn or forkserver pool would also start a resource
    tracker process that nothing waits for and that outlives the benchmark.
    """

    def __init__(self, processes):
        self.processes = processes
        self._pool = None
        if processes > 1:
            self._pool = multiprocessing.get_context("fork").Pool(processes)

    def probe(self):
        """Mean probe seconds over the processes."""
        if self._pool is None:
            return probe_once()
        times = self._pool.map(probe_once, range(self.processes))
        return sum(times) / len(times)

    def close(self):
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scale(seconds, probe_before, probe_after, exponent=EXPONENT):
    ratio = REFERENCE_S * 2.0 / (probe_before + probe_after)
    return seconds * ratio ** exponent
