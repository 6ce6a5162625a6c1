"""The benchmark's op timer, with interleaved machine-speed calibration.

This module imports nothing from padicdist, so a worker can start the
clock before it imports the program and time its set-up too.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction


def calibration_probe():
    """A fixed pure-Python job on exact fractions, tuples and dicts.

    It calls no padicdist code, so its time moves with the machine's speed
    (other tenants, clock changes) and not with the program under test.
    The cyclic collector is off while it runs: collections its
    allocations set off would walk the program's heap, so the probe would
    slow down as that heap grows.  They are paid for in program code.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        s = Fraction(0)
        seen = {}
        for i in range(1, 1500):
            s += Fraction(1, i)
            seen[(i, i % 7)] = s
        return s
    finally:
        if enabled:
            gc.enable()


def probe_time(now):
    """How long one ``calibration_probe`` takes, by the clock ``now``."""
    t0 = now()
    calibration_probe()
    return now() - t0


class OpClock:
    """Times ops: each check record of a job, each request of a stream.

    A job record's latency runs from the previous record boundary (or the
    start of its suite) to the end of its own ``_record`` call, so work a
    suite does between records is charged to the next record.  Records a
    suite builds without ``_record`` (skip notices) end at the suite's
    return.

    The clock times ``calibration_probe`` at every interval boundary and,
    through a timer signal, every ``PROBE_PERIOD_S`` inside intervals
    longer than ``LONG_S`` (shorter ones are never interrupted).  Probe
    time is left out of every interval, and each interval keeps the mean
    time of the probes at its ends and inside it, to scale it to a
    reference machine speed by.
    """

    LONG_S = 0.5
    PROBE_PERIOD_S = 0.25

    def __init__(self, now):
        self.now = now
        self.samples = []  # op latencies, probe time left out
        self.probes = []   # mean probe time around and during each op
        self.stolen = 0.0  # total time spent in probes
        self._mark = now()
        self._op_stolen = 0.0
        self._op_probes = []
        self._running = False

    def _sample(self, *_):
        dt = probe_time(self.now)
        self.stolen += dt
        self._op_stolen += dt
        self._op_probes.append(dt)

    def run(self):
        """Start probing; the current interval starts now."""
        signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        self.start()

    def stop(self):
        """Stop probing; intervals keep the last probe time taken."""
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def start(self):
        if self._running:
            self._sample()
        self._open()

    def _open(self):
        self._op_probes = self._op_probes[-1:]  # the probe at this boundary
        self._op_stolen = 0.0
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, self.LONG_S, self.PROBE_PERIOD_S)
        self._mark = self.now()

    def split(self):
        """(time since ``start``, mean probe time around and during it);
        the next interval starts when it returns."""
        elapsed = self.now() - self._mark - self._op_stolen
        if self._running:
            self._sample()
        probes = self._op_probes
        self._open()
        return elapsed, sum(probes) / len(probes)

    def lap(self):
        elapsed, probe = self.split()
        self.samples.append(elapsed)
        self.probes.append(probe)

    def wrap_record(self, fn):
        def record(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.lap()
            return out
        return record

    def wrap_suite(self, fn):
        def suite(env):
            self.start()
            before = len(self.samples)
            records = fn(env)
            for _ in range(len(records) - (len(self.samples) - before)):
                self.lap()
            return records
        return suite
