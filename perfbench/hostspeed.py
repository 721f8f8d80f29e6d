"""Host-speed probe: puts a timed verb in units that host speed swings cancel from.

On a shared host the same code runs up to 1.6x slower for seconds or minutes
at a time, so two runs of one commit can differ by more than any change worth
measuring.  A fixed pure-Python probe is timed while the verb runs: a
``SIGALRM`` interval timer interrupts the verb every ``INTERVAL_S`` and its
handler times one probe.  The probe's time tracks how fast the host is at that
moment, so the verb's time scaled by the probe's speed relative to its
nominal time is nearly the same on a fast and a slow stretch.

The probe is a loop of method calls doing small-int arithmetic, the
interpreter's call path without pealab's data.  It allocates no object the
garbage collector tracks, so it does not slow as the process's heap grows,
and it shares no code with pealab, so no change to pealab moves it.  When
four probes were timed at each tick over 35 catalog6 repetitions, this kind
tracked the repetitions' slowdowns best (correlation 0.97 between the logs);
pure arithmetic (0.92) and lookups in prebuilt dicts of 4,096 and 65,536
keys (0.74, 0.45) did worse.  On a slow stretch the verb still slows more
than the probe, so normalisation removes most of a swing but not all of it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

# The probe's time, run on its own, on the 2-vCPU Xeon host the benchmark
# was written on.  Normalised seconds are seconds on a host of that speed.
PROBE_NOMINAL_S = 250e-6

# Seconds between probes while a verb runs; each probe costs about 0.25 ms.
INTERVAL_S = 0.05

_PROBE_STEPS = 1500


class _Stepper:
    __slots__ = ("mult",)

    def __init__(self):
        self.mult = 31

    def step(self, x: int, i: int) -> int:
        return (x * self.mult + i) & 0xFFFF


_STEPPER = _Stepper()


def probe() -> float:
    """Seconds one run of the fixed probe takes now."""
    step = _STEPPER.step
    start = time.perf_counter()
    x = 0
    for i in range(_PROBE_STEPS):
        x = step(x, i)
    return time.perf_counter() - start


class Samples:
    """Probe times taken during one measured interval."""

    def __init__(self, times=()):
        self.times: list[float] = list(times)
        # Seconds spent inside the timer handler, to subtract from the verb.
        self.busy = 0.0

    def take(self) -> None:
        self.times.append(probe())

    def speed(self) -> float:
        """Mean host speed over the samples relative to the nominal host.

        The mean of per-sample speeds, not of times: a verb does work at the
        rate the host runs, so its work scales with the host's mean speed.
        """
        return statistics.mean(PROBE_NOMINAL_S / t for t in self.times)

    def normalise(self, seconds: float) -> float:
        """``seconds`` of wall time as seconds on the nominal host."""
        return seconds * self.speed()


@contextmanager
def sampling(interval: float = INTERVAL_S):
    """Probe before, every ``interval`` during, and after the block.

    Yields the ``Samples``; the handler's own time is in ``Samples.busy``.
    On exit the timer is disarmed and the previous ``SIGALRM`` handler
    restored.
    """
    samples = Samples()
    clock = time.perf_counter

    def tick(signum, frame):
        start = clock()
        samples.take()
        samples.busy += clock() - start

    samples.take()
    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
        samples.take()
