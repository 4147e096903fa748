"""How fast the CPU runs right now, sampled while the program under test works.

On a shared virtual machine the same pure-Python work takes from 1x to more
than 1.4x its best time within a few minutes, as other tenants load the host.
That drift moves every wall-clock metric more than any bound a comparison can
use. So each worker samples the speed of a fixed reference kernel from a
SIGALRM interval timer: every TICK_S of wall time, between two bytecodes of
whatever runs, the handler times the kernel. A window's time is then scaled
by REF_S times the mean of 1 / (kernel time) over the samples taken in it,
which gives the seconds the work would have taken on a CPU that runs the
kernel in REF_S. The mean of the inverse is what a time-weighted average of
speed calls for, and it tracked the program better than the median or the
plain mean of the kernel times did.

The kernel is run twice per sample and only the second run is timed, so a
sample measures the core's speed rather than how much of the kernel the
program evicted from the caches. Time spent in the handler is subtracted from
every window it falls in.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from time import perf_counter

TICK_S = 0.005
# The kernel's time on an unloaded 2-CPU x86-64 virtual machine (Xeon,
# Python 3.11); scaled times are seconds at that speed.
REF_S = 1e-4
# Samples taken right before and after a window, so that a window shorter
# than a tick still has some.
BRACKET = 3

_TABLE = list(range(4096))


def _kernel() -> int:
    x, s = 12345, 0
    for _ in range(400):
        x = (x * 1103515245 + 12345) & 0xFFFFFFF
        s += _TABLE[x & 4095] % 7
    return s


class Sampler:
    """Speed samples for one process: (start time, kernel seconds, handler seconds)."""

    def __init__(self):
        # Arrays of doubles, so sampling allocates no objects the program's
        # garbage collector would count.
        self.at = array("d")
        self.cost = array("d")
        self.spent = array("d")
        self.busy = False

    def sample(self, *_):
        # A tick can land while a sample runs; it is dropped rather than
        # nested, which would count the inner sample's time twice.
        if self.busy:
            return
        self.busy = True
        t = perf_counter()
        _kernel()
        k = perf_counter()
        _kernel()
        end = perf_counter()
        self.at.append(t)
        self.cost.append(end - k)
        self.spent.append(end - t)
        self.busy = False

    def burst(self) -> None:
        for _ in range(BRACKET):
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0: float, t1: float):
        """(raw seconds, scaled seconds, kernel seconds) of the wall-clock window [t0, t1).

        Call burst() right before t0 and right after t1.
        """
        inside = [i for i, t in enumerate(self.at) if t0 <= t < t1]
        raw = t1 - t0 - sum(self.spent[i] for i in inside)
        first = inside[0] if inside else next((i for i, t in enumerate(self.at) if t >= t0), len(self.at))
        last = inside[-1] + 1 if inside else first
        picked = range(max(0, first - BRACKET), min(len(self.at), last + BRACKET))
        cost = 1 / statistics.fmean(1 / self.cost[i] for i in picked)
        return raw, raw * REF_S / cost, cost
