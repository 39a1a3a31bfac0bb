"""How fast the host runs Python right now, and times corrected for it.

On a shared 2-core virtual machine (Xeon, 2.1 GHz) the same pure-Python
loop takes from 6.7 ms to 11.5 ms within one minute, in phases of seconds
to minutes: more drift than any bound a raw timing could be held to.  So
a HostProbe times a fixed loop from a SIGALRM handler every
PROBE_INTERVAL_S while the workload runs, and every duration the
benchmark reports is converted to reference seconds: the host's seconds
(less the probe's own time) times REFERENCE_PROBE_MS over the probe times
seen during that interval.  The loop never calls braidcover, so a change
to the program moves the converted times in full, while a change in the
host's speed cancels out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOP = 20_000
PROBE_INTERVAL_S = 0.2
REFERENCE_PROBE_MS = 1.5  # the loop's time on that machine in its fast phases
SMOOTH = 5  # a probe time is the median of the probes within five of it (about 2 s)


def loop_ms(iterations: int = LOOP) -> float:
    """Time of the fixed loop, in ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1000


def host_ref_ms(repeats: int = 7) -> float:
    """host.ref_ms: median of `repeats` runs of a 100 000-step loop.  Each
    run reports it at its start and end, as a witness of host drift."""
    return statistics.median(loop_ms(100_000) for _ in range(repeats))


class HostProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.ms: list[float] = []
        self._smooth: list[float] | None = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.ms.append(loop_ms())
        self.starts.append(start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling; take a few samples more so that the last
        interval has probes after it too."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(2 * SMOOTH + 1):
            self.sample()

    def reference_seconds(self, a: float, b: float) -> float:
        """Seconds [a, b] would take at the reference speed."""
        if self._smooth is None:
            pairs = sorted(zip(self.starts, self.ms))
            self.starts, self.ms = [s for s, _m in pairs], [m for _s, m in pairs]
            self._smooth = [statistics.median(self.ms[max(0, k - SMOOTH):k + SMOOTH + 1])
                            for k in range(len(self.ms))]
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        busy = (b - a) - sum(self.ms[i:j]) / 1000
        if j > i:
            speeds = [REFERENCE_PROBE_MS / m for m in self._smooth[i:j]]
        else:  # no probe inside: the nearest one
            k = min(max(i, 0), len(self.starts) - 1)
            if k > 0 and abs(self.starts[k - 1] - a) < abs(self.starts[k] - a):
                k -= 1
            speeds = [REFERENCE_PROBE_MS / self._smooth[k]]
        return busy * sum(speeds) / len(speeds)
