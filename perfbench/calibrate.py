"""Host speed, measured by a fixed piece of pure-Python work run between requests.

The benchmark shares a host whose speed drifts: the same request can take
1.2-2x its best time for tens of seconds at a time, and the program's own
CPU time slows just as much, so no clock excludes it.  The probe below is
fixed code that does the same kinds of work as the program (big-integer
mask scans as in the domination core, frozenset-state BFS as in the engine,
dict and set updates as in the reducers).  It is timed every
``PROBE_EVERY_S`` seconds, and every request time is scaled by
``PROBE_REF_S`` over the time of the probes nearest to it.  A benchmark time is thus the
time the request would take on a host where the probe takes
``PROBE_REF_S``: the program's own changes show in full, the host's drift
mostly cancels.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# The probe's median time on a quiet 2 GHz Xeon vCPU under Python 3.11.7.
PROBE_REF_S = 0.0036
PROBE_EVERY_S = 0.2
PROBE_WINDOW = 5  # probes nearest to a request whose median sets its scale


def _probe_data():
    rng = random.Random("perfbench-probe")
    masks = [rng.getrandbits(40) for _ in range(12000)]
    n = 40
    adj = [frozenset(w for w in rng.sample(range(n), 5) if w != v) for v in range(n)]
    return masks, adj


_MASKS, _ADJ = _probe_data()


def probe() -> int:
    """The fixed work whose time measures the host's current speed."""
    hits = 0
    for need, bit in ((0b1011, 4), (0b110001, 8), (0b1110000001, 2)):
        for m in _MASKS:
            if m & need == need and not m & bit:
                hits += 1
    # BFS over 2-token states, each token jumping to a non-adjacent vertex.
    start = frozenset((0, 1))
    seen = {start: 0}
    frontier = [start]
    while frontier and len(seen) < 600:
        nxt = []
        for state in frontier:
            for v in state:
                rest = state - {v}
                blocked = set(rest)
                for u in rest:
                    blocked |= _ADJ[u]
                for w in range(len(_ADJ)):
                    if w not in blocked and w != v:
                        s = rest | {w}
                        if s not in seen:
                            seen[s] = seen[state] + 1
                            nxt.append(s)
        frontier = nxt
    return hits + len(seen)


def probe_time() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


class HostSpeed:
    """Probe times over a run, and the factors that scale wall times by them."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each probe ended
        self.took: list[float] = []  # how long each probe took
        self.tick()

    def tick(self) -> None:
        """Probe again if the last probe is more than PROBE_EVERY_S old."""
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.took.append(probe_time())
            self.at.append(time.perf_counter())

    def scale(self, when: float) -> float:
        """Factor that turns a wall time measured at ``when`` into reference
        time: from the median of the PROBE_WINDOW probes nearest to it."""
        i = bisect.bisect(self.at, when)
        lo = max(0, min(i - PROBE_WINDOW // 2, len(self.at) - PROBE_WINDOW))
        return PROBE_REF_S / statistics.median(self.took[lo:lo + PROBE_WINDOW])

    def run_scale(self) -> float:
        """The same factor for the host's median speed over the whole run."""
        return PROBE_REF_S / statistics.median(self.took)
