"""Host-speed sampling, to report times at a fixed reference speed.

The host's speed drifts by up to 2x within seconds: other tenants share
its cores.  A ``SpeedSampler`` interrupts the process every PERIOD_S
(SIGALRM) and times one calibration slice: fixed pure-Python work that
does not touch nicensus.  ``normalize(t0, t1)`` turns a raw interval
into nanoseconds at the reference speed, where a slice takes REF_NS: the
raw length, minus the slices that ran inside it, times REF_NS over the
slice time around it (median of the eleven nearest slices, about half a
second: single slices swing by 2x from one to the next).
"""

import array
import bisect
import signal
import time

REF_NS = 300_000
PERIOD_S = 0.05
_ROWS = [list(range(16)) for _ in range(16)]


def _mix(a, b):
    return (a * 5 + b) & 0xFFFF


def calibration_slice():
    """Fixed work: list indexing, a call, a tuple and integer ops per step."""
    rows = _ROWS
    acc = 0
    for i in range(2000):
        r = rows[i & 15]
        acc = _mix(acc, r[(i >> 4) & 15])
        r[i & 15] = (acc & 15, i)[0]
    return acc


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


class SpeedSampler:
    """Calibration slices every PERIOD_S of wall time, from ``start`` to ``stop``."""

    def __init__(self):
        self.t = array.array("q")    # slice start, perf_counter_ns
        self.cal = array.array("q")  # slice duration, ns

    def _tick(self, signum, frame):
        t = time.perf_counter_ns()
        calibration_slice()
        self.cal.append(time.perf_counter_ns() - t)
        self.t.append(t)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling (idempotent) and prepare ``normalize``."""
        if signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0):
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._tick(None, None)  # at least one slice, and one at the end
        n = len(self.cal)
        smooth = [_median(self.cal[max(0, k - 5):k + 6]) for k in range(n)]
        self._factor = [REF_NS / s for s in smooth]
        self._cum_factor = [0.0]
        self._cum_cal = [0]
        for f, c in zip(self._factor, self.cal):
            self._cum_factor.append(self._cum_factor[-1] + f)
            self._cum_cal.append(self._cum_cal[-1] + c)

    def normalize(self, t0, t1):
        """Reference-speed length in ns of the raw interval [t0, t1] (perf_counter_ns)."""
        i = bisect.bisect_left(self.t, t0)
        j = bisect.bisect_left(self.t, t1)
        raw = t1 - t0 - (self._cum_cal[j] - self._cum_cal[i])
        if j > i:
            factor = (self._cum_factor[j] - self._cum_factor[i]) / (j - i)
        else:
            near = min(i, len(self._factor) - 1)
            if near > 0 and abs(self.t[near - 1] - t0) < abs(self.t[near] - t0):
                near -= 1
            factor = self._factor[near]
        return raw * factor
