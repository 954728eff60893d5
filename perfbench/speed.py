"""Host-speed normalization of the end-to-end times.

On a shared 2-core host, the speed of the same Python loop swings by up to
2x for tens of seconds at a time, so raw wall times of whole runs spread by
20-30% from run to run.  The benchmark therefore measures the host's speed
while it works: a fixed reference loop (standard library only, independent
of slopeforge) runs three times right before and after every timed interval,
and every 50 ms during it from a SIGALRM handler.  A timed interval is reported as

    (wall time - reference-loop time inside it) * NOMINAL_S / mean reference time

that is, in seconds on a host that runs the reference loop in NOMINAL_S.
The raw wall times go to the results record next to the normalized ones.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List, Tuple

# The reference loop's time on an unloaded 2-core Xeon box, Python 3.11.
NOMINAL_S = 0.0005
INTERVAL_S = 0.05
BRACKET_PROBES = 3  # before and after each interval: one probe is too noisy


def reference() -> Fraction:
    """Rational arithmetic, dict and list work, like the program's own mix."""
    total = Fraction(0)
    table = {}
    keys = []
    for i in range(1, 120):
        total += Fraction(i % 13, i % 97 + 1)
        table[(i, str(i))] = total
        keys.append((i * 7919) % 101)
    keys.sort()
    return total


class HostSpeed:
    """Samples the reference loop's time; use as a context manager."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (start, duration)
        self._busy = False

    def probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        reference()
        self.samples.append((start, perf_counter() - start))
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Probe right before a timed interval; returns the mark for normalize()."""
        first = len(self.samples)
        for _ in range(BRACKET_PROBES):
            self.probe()
        return first

    def normalize(self, start: float, seconds: float, mark: int) -> float:
        """Probe right after the interval [start, start + seconds], which
        followed ``mark()``, and return its normalized length."""
        for _ in range(BRACKET_PROBES):
            self.probe()
        around = self.samples[mark:]
        inside = sum(d for s, d in around if start <= s < start + seconds)
        return (seconds - inside) * NOMINAL_S / statistics.mean(d for _, d in around)
