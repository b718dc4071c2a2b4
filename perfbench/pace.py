"""Host-speed reference for the end-to-end times.

The 2-vCPU VM the benchmark was built on changes speed by itself, by up to
a half, for tens of seconds at a time, and process CPU time moves with it.
A 30-second run can fall wholly in a slow phase, so neither medians nor
minima over the run's rounds steady a time. What does: a fixed reference
task, which no change to lexdom can move, is timed now and then between
ops. An op's latency is scaled by the reference's nominal time over its
median time near the op's start, which gives the op's latency at the
reference host speed.

Two references, each slowed by host phases about as much as the ops it
paces:

- ``reference_search``, pure Python bit-mask branch and bound like
  lexdom's solvers, for the in-process workloads;
- ``bare_start``, one ``python -c pass`` process, for the ``cli`` ops and
  the set-up probes, which are whole interpreter starts.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from typing import Callable

#: Nominal times: about the median of each reference on the reference
#: host (2-vCPU Intel Xeon VM, Python 3.11.7). A paced time is the time
#: the op would have taken with the reference running this fast.
SEARCH_REFERENCE_S = 250e-6
START_REFERENCE_S = 0.050

_N = 11
_ADJ = [(1 << (v + 1) % _N) | (1 << (v - 1) % _N) | (1 << (v + 3) % _N) for v in range(_N)]
_CLOSED = [a | 1 << v for v, a in enumerate(_ADJ)]
_FULL = (1 << _N) - 1


def reference_search() -> int:
    """Domination number of a fixed 11-vertex circulant graph, by branching
    on the neighbours of the lowest undominated vertex."""
    best = _N

    def rec(covered: int, size: int) -> None:
        nonlocal best
        if size >= best:
            return
        if covered == _FULL:
            best = size
            return
        free = ~covered & _FULL
        v = (free & -free).bit_length() - 1
        for u in [v] + [w for w in range(_N) if _ADJ[v] >> w & 1]:
            rec(covered | _CLOSED[u], size + 1)

    rec(0, 0)
    return best


def bare_start() -> None:
    """Start and end an interpreter that does nothing: the floor of every
    cli op and set-up probe, which lexdom cannot move.  No timeout: with
    one, ``wait`` polls with doubling sleeps and the time reads 63.5 ms or
    113.5 ms whatever the start took."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Pace:
    """Timings of one reference task through a run, in time order."""

    def __init__(self, reference: Callable[[], object], nominal_s: float,
                 interval_s: float, window_s: float):
        self.reference = reference
        self.nominal_s = nominal_s
        #: least wall time between two timings, to bound the overhead
        self.interval_s = interval_s
        #: timings within this many seconds of an op's start set its scale;
        #: host phases last longer than this
        self.window_s = window_s
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Time the reference, unless it was timed less than interval_s ago."""
        start = time.perf_counter()
        if start - self._last < self.interval_s:
            return
        self.reference()
        self._last = time.perf_counter()
        self.starts.append(start)
        self.costs.append(self._last - start)

    def scale(self, t: float) -> float:
        """Factor that turns a latency measured at time ``t`` into one at
        the reference host speed; the nearest timings stand in when none
        lies within window_s."""
        lo = bisect.bisect_left(self.starts, t - self.window_s)
        hi = bisect.bisect_right(self.starts, t + self.window_s)
        if lo == hi:
            lo, hi = max(0, lo - 1), lo + 1
        return self.nominal_s / statistics.median(self.costs[lo:hi])


def for_workload(name: str) -> Pace:
    """The reference that paces a workload's ops.  A search takes about a
    quarter of a millisecond and runs every 20 ms (about 1% overhead); a
    bare start takes about 50 ms and runs every 0.25 s, next to cli ops of
    about 100 ms."""
    if name == "cli":
        return Pace(bare_start, START_REFERENCE_S, interval_s=0.25, window_s=1.0)
    return Pace(reference_search, SEARCH_REFERENCE_S, interval_s=0.02, window_s=0.5)
