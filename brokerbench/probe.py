"""Machine-speed probe: scale measured times to a fixed reference speed.

The benchmark runs on small shared hosts whose speed changes from one second
to the next: a fixed pure-Python loop there takes anywhere from 1× to 2× its
quiet time, and the program slows down with it. A run of a few tens of seconds
cannot average that out, so raw timings of two runs of the same code differ by
more than any usable regression bound.

The probe runs a short fixed loop of pure-Python work (the kind the program
does: list indexing, dict lookups, float arithmetic) from a timer signal, every
PERIOD_S while the program runs, wherever the program is. Between two probes
the machine is taken to run at the mean of their speeds, and every measured
interval is divided by that slowdown, with the probe runs themselves left out.
A scaled time is therefore the time the interval would have taken with the
probe at its reference duration. The probe reads only the machine: a change to
the program moves the intervals, never the probes, so it shows in full.

The loop allocates no garbage-collected objects, so it never triggers a
collection whose cost would depend on the program's heap.
"""

from __future__ import annotations

import bisect
import signal
import time

# Duration of one probe on a quiet 2-vCPU Intel Xeon (2.0 GHz) container,
# which makes scaled times read as seconds on that machine when it is quiet.
REFERENCE_S = 0.0005
ROUNDS = 3_400
PERIOD_S = 0.005
# A timer signal that arrives sooner than this after the last probe ended (one
# held up while the previous probe ran) is skipped.
MIN_GAP_S = 0.0025

_TABLE = [(i * 7919 + 13) % 1024 for i in range(1024)]
_WEIGHTS = [((i * 31) % 97) / 97.0 for i in range(1024)]
_NEXT = {i: (i * 389 + 1) % 1024 for i in range(1024)}


def _loop(rounds: int) -> float:
    table, weights, nxt = _TABLE, _WEIGHTS, _NEXT
    x, acc = 1, 0.0
    for i in range(rounds):
        x = table[(x + i) & 1023]
        acc = acc * 0.5 + weights[x] * 1.5
        x = nxt.get(x, 0)
    return acc


class Probe:
    """Probe runs of one process and the scaling of intervals between them."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        # Each probe's duration as a multiple of REFERENCE_S.
        self.slowdowns: list[float] = []
        self._running = False

    def start(self) -> None:
        """Probe now, then every PERIOD_S until stop()."""
        self.tick(force=True)
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer and probe once more, closing the last interval."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        """Run the probe, unless one is running or ended less than MIN_GAP_S ago."""
        if self._running or (not force and self.ends and time.perf_counter() - self.ends[-1] < MIN_GAP_S):
            return
        self._running = True
        start = time.perf_counter()
        _loop(ROUNDS)
        end = time.perf_counter()
        self._running = False
        self.starts.append(start)
        self.ends.append(end)
        self.slowdowns.append((end - start) / REFERENCE_S)

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] at reference speed, probe runs excluded.

        The interval must lie between the first probe's start and the last
        probe's end.
        """
        slow = self.slowdowns
        total = 0.0
        # Gap k runs from the end of probe k to the start of probe k + 1.
        k = max(bisect.bisect_right(self.ends, start) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < end:
            overlap = min(end, self.starts[k + 1]) - max(start, self.ends[k])
            if overlap > 0:
                total += overlap / ((slow[k] + slow[k + 1]) / 2.0)
            k += 1
        return total
