"""A CPU-speed probe that turns a job's wall times into reference seconds.

On a shared host the speed of a vCPU changes by up to 2x from one second to
the next, as neighbours load the other hyperthread of its core, and stays
in a fast or a slow phase for seconds to minutes.  Wall times taken minutes
apart then differ by more than any optimisation worth measuring.

A job process calls ``start()`` before it imports kring.  From then on a
``SIGALRM`` timer interrupts it every ``PERIOD_S`` seconds, and the handler
runs a fixed pure-Python ``Fraction`` loop, the probe, and records when it
began and ended.  The probe does no kring work, so a change to kring does
not change it.  ``stop()`` disarms the timer, probes once more, and returns
the probes.

``ReferenceClock`` maps a ``time.perf_counter()`` stamp of the job to
reference seconds: each stretch between two probes counts its wall time
multiplied by ``REF_PROBE_S`` ÷ the probe time there (the median of the
nearest five probes, the mean of the two ends), so a stretch run at half the
reference speed counts half.  Time inside the probes counts nothing.  The
difference of two readings is the interval's duration on a CPU that runs the
probe in ``REF_PROBE_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.04
PROBE_STEPS = 100
# The probe's time at the reference speed; on a 2-vCPU Intel Xeon KVM guest
# it takes 0.5-0.7 ms in a fast phase and up to 1.2 ms in a slow one.
REF_PROBE_S = 0.0006
SMOOTH = 5

_probes: list[tuple[float, float]] = []


def _probe(*_) -> None:
    start = time.perf_counter()
    x, total = Fraction(1, 3), Fraction(0)
    for i in range(1, PROBE_STEPS):
        total += x * Fraction(i, i + 7)
    _probes.append((start, time.perf_counter()))


def start() -> None:
    """Probe now, then every ``PERIOD_S`` seconds until ``stop``."""
    _probes.clear()
    _probe()
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> list[tuple[float, float]]:
    """Disarm the timer, probe once more, and return every probe's
    ``(start, end)``."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    _probe()
    return list(_probes)


class ReferenceClock:
    """Reference seconds at any ``time.perf_counter()`` stamp of a probed
    process, from its probes; only differences of readings mean anything."""

    def __init__(self, probes: list[tuple[float, float]]):
        if not probes:
            raise ValueError("no probes")
        probes = sorted(probes)
        self.starts = [s for s, _ in probes]
        self.ends = [e for _, e in probes]
        durations = [e - s for s, e in probes]
        half = SMOOTH // 2
        self.rates = [
            REF_PROBE_S / statistics.median(durations[max(0, k - half):k + half + 1])
            for k in range(len(durations))
        ]
        # reference seconds at the start of each probe, 0 at the first
        self.at_start = [0.0]
        for k in range(1, len(probes)):
            gap = self.starts[k] - self.ends[k - 1]
            self.at_start.append(self.at_start[-1] + gap * self._slope(k))

    def _slope(self, k: int) -> float:
        """Reference seconds per second in the gap that ends at probe k."""
        if k == 0:
            return self.rates[0]
        if k == len(self.rates):
            return self.rates[-1]
        return (self.rates[k - 1] + self.rates[k]) / 2

    def __call__(self, t: float) -> float:
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            return (t - self.starts[0]) * self.rates[0]
        if t <= self.ends[k]:
            return self.at_start[k]
        return self.at_start[k] + (t - self.ends[k]) * self._slope(k + 1)

    def probe_s(self) -> float:
        """The median probe time, in wall seconds."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))
