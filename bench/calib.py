"""Machine-speed calibration: child processes timing a fixed loop while phases run.

The sandbox this benchmark runs in does not hold its speed.  The same pure
Python loop takes 0.85 ms one second and 1.25 ms the next, each CPU drifts on
its own (per-second speeds of the two CPUs correlate at 0.05), and a whole
run can land in a slow stretch: ten runs of one 10 s open-loop step of
``serve-write`` repeated within 18 % raw, and within 5 % once divided by the
loop's mean duration over the same 10 s.  So every timed phase runs beside a
:class:`Calibrator` — one child process per CPU (at most two), pinned to it,
timing 30 000 iterations of an integer add about 45 times a second, which
costs 5 % of that CPU — and the benchmark reports times **divided** (rates
multiplied) by the speed ``factor``: the loop's mean duration during the
phase over ``NOMINAL_S``.  A figure printed as 5.0 ms reads "5.0 ms on a
machine that runs the loop in exactly 1 ms".  Latency quantiles are taken per
window of a phase, each window scaled by its own factor, and the median
window is reported, so a one-second stall of the host moves one window, not
the figure.  The raw figures and the factors are printed beside the reported
ones.

The loop is benchmark code, not program code: a change to ``src/`` cannot
move it, so a scaled metric moves only when the program does.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
from typing import List, Sequence, Tuple

from gen import percentile

__all__ = ["NOMINAL_S", "Calibrator", "Uncalibrated"]

#: the loop's duration on the machine the reported figures are scaled to
NOMINAL_S = 1.0e-3

_CHILD = r"""
import json, os, signal, sys, time
cpu = int(sys.argv[1])
if cpu >= 0:
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        pass
stop = []
signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
samples = []
deadline = time.monotonic() + 175.0   # never outlive a lost parent for long
def loop(clock=time.perf_counter):
    begun = clock()
    x = 0
    for j in range(30000):
        x += j
    return begun, clock() - begun
while not stop and time.monotonic() < deadline:
    samples.append(loop())
    time.sleep(0.02)
json.dump(samples, sys.stdout)
"""


class Calibrator:
    """Context manager; after exit it answers for any interval of its life."""

    def __init__(self) -> None:
        self._children: List[subprocess.Popen] = []
        #: per child, its ``(perf_counter at start, seconds taken)`` samples
        self.samples: List[List[Tuple[float, float]]] = []

    def __enter__(self) -> "Calibrator":
        try:
            cpus = sorted(os.sched_getaffinity(0))[:2]
        except AttributeError:
            cpus = [-1]
        for cpu in cpus:
            self._children.append(subprocess.Popen(
                [sys.executable, "-c", _CHILD, str(cpu)],
                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            ))
        return self

    def __exit__(self, *exc) -> None:
        children, self._children = self._children, []
        for child in children:
            child.send_signal(signal.SIGTERM)
        for child in children:
            try:
                out, _ = child.communicate(timeout=15)
                self.samples.append([tuple(sample) for sample in json.loads(out)])
            except (subprocess.TimeoutExpired, ValueError):
                child.kill()
                child.communicate()

    def factor(self, begun: float, ended: float) -> float:
        """Mean loop duration within ``[begun, ended]`` over the nominal one.

        ``perf_counter`` is the system-wide monotonic clock on Linux, so the
        children's timestamps and the caller's are on one axis.  Each child
        speaks for its CPU; the factor is the mean over CPUs.
        """
        per_cpu = []
        for samples in self.samples:
            inside = [took for at, took in samples if begun <= at <= ended]
            if len(inside) < 3:
                # a phase shorter than three samples: the three nearest to it
                middle = (begun + ended) / 2
                nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
                inside = [took for _at, took in nearest[:3]]
            if inside:
                per_cpu.append(sum(inside) / len(inside))
        if not per_cpu:
            raise RuntimeError("the calibrators recorded no samples")
        return sum(per_cpu) / len(per_cpu) / NOMINAL_S

    def _windows(self, begun: float, ended: float, count: int):
        width = (ended - begun) / count
        return width, [
            self.factor(begun + i * width, begun + (i + 1) * width) for i in range(count)
        ]

    def nominal_quantile(
        self, at: Sequence[float], values: Sequence[float], q: float,
        begun: float, ended: float,
    ) -> float:
        """Quantile ``q`` of ``values`` at nominal speed, robust to stalls.

        ``values[i]`` was observed at time ``at[i]``.  The phase is cut into
        up to ten equal windows holding 50 values or more on average; each
        window's quantile is divided by that window's speed factor, and the
        median over windows is the answer.
        """
        count = max(1, min(10, len(values) // 50))
        width, factors = self._windows(begun, ended, count)
        buckets: List[List[float]] = [[] for _ in range(count)]
        for when, value in zip(at, values):
            buckets[min(count - 1, max(0, int((when - begun) / width)))].append(value)
        return statistics.median(
            percentile(sorted(bucket), q) / factor
            for bucket, factor in zip(buckets, factors) if bucket
        )

    def nominal_rate(self, done: Sequence[float], begun: float, ended: float) -> float:
        """Completions per second at nominal speed: the median one-second window."""
        count = max(1, int(ended - begun))
        width, factors = self._windows(begun, ended, count)
        counts = [0] * count
        for when in done:
            counts[min(count - 1, max(0, int((when - begun) / width)))] += 1
        return statistics.median(
            completed / width * factor for completed, factor in zip(counts, factors)
        )


class Uncalibrated(Calibrator):
    """Starts nothing and scales nothing: every factor is 1 (the traced runs)."""

    def __enter__(self) -> "Uncalibrated":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def factor(self, begun: float, ended: float) -> float:
        return 1.0
