"""Machine-speed probe that runs alongside a job, in the job's own process.

On a shared host the same code runs up to half again slower while other
tenants contend for the core; the contention comes and goes within
milliseconds and its share drifts over minutes, and CPU time slows with
wall time.  So the probe measures the machine while the job runs: a thread
wakes every PERIOD_S, takes the GIL and times ``probe()``, a fixed slice of
pure-Python work of the kind the jobs do (an integer recurrence and dict
updates) that owes nothing to the program under test.  The job process is
pinned to one CPU, so the probe and the job share a core and its contention.
PRE_PROBES probes run just before the job starts, so a job too short to be
sampled still gets a reading.

``speed`` is the mean of NOMINAL_S / (probe time) over all probes: the share
of nominal speed the job got.  The parent turns the job's wall time, less the
probes' own time, into seconds at nominal speed.
"""

import os
import threading
import time

PERIOD_S = 0.02
WARM_UP = 8  # CPython specialises a function's bytecode after its first 8 calls
PRE_PROBES = 8
NOMINAL_S = 0.0005  # about the median probe time on the 2-core box the bounds were set on


def probe() -> None:
    """Walk the Farey sequence of order 79 (about 1900 terms), histogramming gaps."""
    n = 79
    a, b, c, d = 0, 1, 1, n
    hist = {}
    while c <= n:
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        g = (d - b) % 17
        hist[g] = hist.get(g, 0) + 1


class Pacer:
    def __init__(self):
        self.times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        t = time.perf_counter()
        probe()
        self.times.append(time.perf_counter() - t)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def start(self):
        """Pin this process to one CPU, warm the probe up, probe PRE_PROBES
        times, then keep probing."""
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])
        for _ in range(WARM_UP):
            probe()
        for _ in range(PRE_PROBES):
            self._sample()
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def report(self) -> dict:
        """Probes taken while the job ran, their total time, and the speed."""
        times = self.times
        return {
            "probes": len(times) - PRE_PROBES,
            "probe_s": sum(times[PRE_PROBES:]),
            "speed": sum(NOMINAL_S / t for t in times) / len(times),
        }
