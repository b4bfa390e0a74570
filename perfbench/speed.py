"""Machine-speed probe: scales measured times to a reference machine speed.

A shared 2-vCPU host (Intel Xeon 2.1 GHz) switches between a fast and a
slow state (the same pass reads 1.8 s or 3.2 s) for seconds to minutes at a
time, as other tenants load the cores; raw times of one seed then spread by
more than any bound a regression check can use.  While a ``SpeedProbe`` is
active, SIGALRM runs a fixed integer loop every ``INTERVAL`` seconds in the
main thread and records how long it took.  A timed interval is then reported
as

    (measured - probe time inside it) * REFERENCE_S / mean(probe times)

over the probes inside the interval, or the nearest one on each side when
none landed inside.  The loop uses no ``umbralops`` code, so a change to the
program moves the reported times and a change of machine state does not.
On one 90 s run the coefficient of variation of the pass times fell from
0.153 to 0.053 (cli-readme) and from 0.067 to 0.048 (deep-o28).
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

# The loop's time on an Intel Xeon 2.1 GHz vCPU under Python 3.11.7 in the
# host's fast state.  Reported times are seconds at that speed.
REFERENCE_S = 0.0023
INTERVAL = 0.2
LOOP = 20000


def _loop() -> int:
    x = 1
    for _ in range(LOOP):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return x


class SpeedProbe:
    """Probe timings (start, seconds) in time order; a context manager that
    runs the probe from SIGALRM while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        _loop()
        self.starts.append(start)
        self.times.append(perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval [start, end] in reference seconds, less the probes
        that ran inside it.  Needs a probe before ``start`` and after ``end``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = self.times[lo:hi]
        speed = inside if inside else [self.times[lo - 1], self.times[hi]]
        return (end - start - sum(inside)) * REFERENCE_S * len(speed) / sum(speed)
