"""Scaling of measured times to a reference CPU speed.

The effective speed of a shared (virtual) CPU changes from one second to the
next and over minutes and hours, by up to a factor of 2, as other tenants
load the same physical cores.  So the benchmark times a fixed reference
probe, owned by the benchmark and using no wishmom code, on the CPUs the
work runs on, and scales measured times by ``nominal / probe time``: the
time the work would take on a CPU that runs the probe in its nominal time.

Code of different kinds slows down differently, so each workload has a probe
of its own kind: ``MatchingProbe`` (a float product-sum over index pairs)
for exact-entrywise, ``fraction_probe`` (exact rationals, dicts, tuples) for
exact-coefficients, ``NumpyProbe`` (small batched linear algebra and normal
draws over arrays larger than a core's caches, on one CPU and then on both)
for montecarlo, and ``interpreter_probe`` (start and stop a bare
interpreter) for cli.  The nominal times are the probes' typical times on
the 2-CPU machine the benchmark was tuned on.

Every workload is probed between operations, when none of the workload's
threads or processes run, so that the workload's own use of the CPUs and of
memory cannot reach the probe; at most every 50 ms, and for at most a tenth
of the time.  One factor, from the mean probe of the timed phase, scales
every operation of a run: the probe and the operations are each noisy from
one moment to the next, and scaling each operation by the probes around it
adds that noise instead of removing it.  Each set-up is scaled by a few
probes taken right after it.
"""

from __future__ import annotations

import itertools
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction


MIN_GAP_S = 0.05  # between the end of a probe and the start of the next

# Probe times at the reference CPU speed: typical times on the tuning machine (seconds).
MATCHING_NOMINAL_S = 5e-3
FRACTION_NOMINAL_S = 0.6e-3
NUMPY_NOMINAL_S = 30e-3
INTERPRETER_NOMINAL_S = 70e-3


def fraction_probe() -> None:
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k, k + 1) * Fraction(3, 2 * k + 1)
    table: dict[tuple[int, int], int] = {}
    for i in range(400):
        table[(i, i % 7)] = table.get((i - 1, (i - 1) % 7), 0) + i


class MatchingProbe:
    """A float product-sum over the 945 perfect matchings of ten points,
    generated on the fly by a recursive generator, reading numpy matrix
    entries: the matching-sum loop at its largest degrees, where the
    matchings are generated rather than read from a table."""

    def __init__(self):
        import numpy as np

        self.sigma = np.arange(16.0).reshape(4, 4) / 7 + np.eye(4)
        self.labels = (1, 2, 3, 4, 4, 3, 2, 1, 1, 2)

    def __call__(self) -> None:
        sig, k = self.sigma, self.labels
        total = 0.0
        for pairs in _matchings(tuple(range(1, 11))):
            term = 1.5
            for p, q in pairs:
                term *= sig[k[p - 1] - 1, k[q - 1] - 1]
            total += term


def _matchings(points: tuple[int, ...]):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        for m in _matchings(rest[:i] + rest[i + 1:]):
            yield ((first, other),) + m


class NumpyProbe:
    """Batched 8x8 Gram matrices over a 2 MB array, and normal draws: on one
    CPU, then on every CPU at once, four times each.

    A Monte Carlo operation runs on one thread and then on two, so the probe
    does the same: a neighbour's load on either CPU slows both alike.  It
    lasts tens of milliseconds, as an operation does, so that the pauses of
    a shared CPU lengthen it in the same proportion; a probe of a few
    milliseconds either misses them or is doubled by one.  The working set is
    larger than a core's private caches, like the sampling kernels'.  The
    one-CPU part rotates over the CPUs.
    """

    def __init__(self):
        import numpy as np

        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = itertools.cycle(self.cpus)
        self.parts = [_NumpyPart(np, seed) for seed in range(len(self.cpus))]

    def __call__(self) -> None:
        self._run([(self.parts[0], next(self.turn))])
        self._run(list(zip(self.parts, self.cpus)))

    @staticmethod
    def _run(jobs) -> None:
        threads = [threading.Thread(target=_on_cpu, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()


class _NumpyPart:
    """Writes into buffers of its own, so that probing leaves the memory of
    the process (and its peak) as it was."""

    def __init__(self, np, seed: int):
        self.np = np
        self.a = np.random.default_rng(seed).normal(size=(4096, 8, 8))
        self.at = self.a.transpose(0, 2, 1)
        self.b = np.empty_like(self.a)
        self.z = np.empty(16384)
        self.gen = np.random.default_rng(seed + 100)

    def __call__(self) -> None:
        for _ in range(4):
            self.np.matmul(self.a, self.at, out=self.b)
            self.np.trace(self.b, axis1=1, axis2=2).sum()
            self.gen.standard_normal(out=self.z)
            self.z.sum()


def _on_cpu(part, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})  # this thread only
    part()


def interpreter_probe() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


def pin_to_one_cpu() -> None:
    """Run this process (and the processes it starts) on one CPU, so the probe
    measures the CPU the work runs on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Speed:
    """Probe times, and the scale factor they give.

    Each probe runs once: the mean of single runs, started at no particular
    moment, lengthens with the pauses of the CPU as the work does, where the
    best of several runs would leave the pauses out.
    """

    def __init__(self, probe, nominal_s: float):
        self.probe = probe
        self.nominal_s = nominal_s
        self.samples: list[float] = []
        self.last = float("-inf")  # perf_counter time of the end of the latest probe

    def due(self, now: float) -> bool:
        """Whether to probe again: at least MIN_GAP_S after the last probe and
        nine probe times, so that probing takes at most a tenth of the time."""
        return not self.samples or now - self.last >= max(MIN_GAP_S, 9 * self.samples[-1])

    def sample(self) -> None:
        """Time one run of the probe and record it."""
        t0 = time.perf_counter()
        self.probe()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def factor(self) -> float:
        """Scale for the work done while the samples were taken: nominal over
        the mean probe time.

        The mean, not the median: the speed of the CPU switches between
        states (one about twice as fast as the other) every few seconds, and
        the mean follows the share of time spent in each, as the time of the
        work does, where the median jumps from one state to the other.
        """
        return self.nominal_s / statistics.fmean(self.samples)
