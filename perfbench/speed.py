"""Host speed, probed beside every timed operation.

On a shared host a CPU's speed changes within seconds by a third or
more (its sibling hardware thread is busy or not), so two runs of the
same code read end-to-end times that differ by more than any bound a
benchmark could hold.  The benchmark therefore pins itself and every
process it starts (the server, the store's worker) to one CPU, runs a
fixed pure-Python loop on that CPU just before and after each timed
operation, and reports each operation's time at a reference speed:

    reported = measured × REFERENCE_S / (probe time beside the operation)

A slower program still reads slower; a slower CPU does not.  On the
host this benchmark was sized on, one operation's time and the probe
beside it correlate at 0.97, and scaling cut the spread of ten runs of
the in-process workloads from about 0.3 to under 0.1.  The raw medians
stay in the context line.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from typing import List, Sequence, Tuple

_clock = time.perf_counter

#: Iterations of the probe loop: about 1.5–2 ms on the sizing host.
LOOPS = 20_000
#: The probe loop's time at the reference speed (the sizing host's fast
#: regime), in seconds.
REFERENCE_S = 0.0015
#: How far before and after an operation a probe still describes it.
MARGIN_S = 0.05


def pin() -> int:
    """Pin this process, and so every process it starts, to the last
    CPU it may use; return that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe() -> float:
    """Seconds the fixed loop takes on this CPU now."""
    began = _clock()
    total = 0
    for i in range(LOOPS):
        total += (i * i) % 7
    return _clock() - began


class Speed:
    """Probe samples of one run, and the scaling they give."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> float:
        began = _clock()
        took = probe()
        self.times.append(began + took / 2)
        self.seconds.append(took)
        return took

    def probe_near(self, began: float, ended: float) -> float:
        """Median probe time within :data:`MARGIN_S` of ``[began,
        ended]``, or the nearest probe when none is that close."""
        low = bisect.bisect_left(self.times, began - MARGIN_S)
        high = bisect.bisect_right(self.times, ended + MARGIN_S)
        if high > low:
            return statistics.median(self.seconds[low:high])
        nearest = min(
            range(len(self.times)),
            key=lambda i: min(abs(self.times[i] - began), abs(self.times[i] - ended)),
        )
        return self.seconds[nearest]

    def scaled(self, began: float, ended: float) -> float:
        """``ended - began`` at the reference speed."""
        return (ended - began) * REFERENCE_S / self.probe_near(began, ended)

    def scale_spans(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        return [self.scaled(began, ended) for began, ended in spans]

    def median_s(self) -> float:
        return statistics.median(self.seconds) if self.seconds else 0.0
