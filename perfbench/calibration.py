"""The machine's speed while the engines run, from a fixed pure-Python probe.

Other tenants of a shared machine slow a process by up to twofold, in
phases from a tenth of a second to minutes.  The slowdown is not
preemption: a process's CPU time grows with its wall time.  The CPU simply
runs the same instructions slower.  A call of a few seconds averages over
many phases, so even its fastest of several repetitions moves by a quarter
from run to run.

So the speed is measured while the call runs.  A SIGALRM handler times a
short probe every INTERVAL_S: int-keyed dict lookups, small tuples and int
arithmetic, the engines' kind of work and none of the program's.  The
probe's time comes off the call's wall time, and what remains is scaled by
the probe's mean speed against its speed on an unloaded machine.  A call
shorter than INTERVAL_S takes the speed of the probes made just before it.
At the reference speed the factor is 1, so a scaled figure reads as wall
seconds on an unloaded machine.  A change to the program moves the calls
and not the probe.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

PROBE_ITERATIONS = 5000
# The probe's time at the reference speed: a little under its fastest time
# on the two-vCPU machine the figures in README.md come from (0.89 ms over
# 4000 back-to-back probes).  It fixes the unit of every scaled figure.
REFERENCE_S = 0.00085
# Gap between two probes: with a probe near 1 ms, probing takes about 5% of
# a call, and that time is not counted in it.
INTERVAL_S = 0.02
# Probes made before an interval that count towards its speed.  A call much
# shorter than INTERVAL_S sees none during it; the mean of the last few
# steadies the single probe's jitter and still spans less than the machine's
# phases.
PROBES_BEFORE = 3


def probe() -> int:
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = (i * 7919) % 1021
        cell = table.get(key)
        if cell is None:
            table[key] = (i, i & 3)
        else:
            acc += cell[0] + (cell[1] > 1)
    return acc


class Took:
    """Seconds of one measured interval: as timed, and at reference speed."""

    wall = 0.0
    scaled = 0.0


class Speedometer:
    """Probes the machine's speed during measured intervals.

    Installs a SIGALRM handler, so it lives in the main thread; the alarm
    runs only inside `measure`.
    """

    def __init__(self) -> None:
        self.probe_times: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")
        self._busy = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Time the probe once and add its time to `spent`."""
        if self._busy:  # an alarm during a probe
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.probe_times.append(end - start)
        self.spent += end - start
        self._last = end
        self._busy = False

    @contextmanager
    def measure(self):
        """Time the body; the yielded `Took` is filled in when it ends."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()
        # The probes just before the body, and those during it.
        first = max(0, len(self.probe_times) - PROBES_BEFORE)
        spent = self.spent
        took = Took()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            yield took
        finally:
            # One statement, so that no handler runs between the two reads.
            end, spent_end = time.perf_counter(), self.spent
            signal.setitimer(signal.ITIMER_REAL, 0)
            took.wall = end - start - (spent_end - spent)
            took.scaled = took.wall * statistics.fmean(
                REFERENCE_S / t for t in self.probe_times[first:])

    def median_probe_s(self) -> float:
        return statistics.median(self.probe_times)
