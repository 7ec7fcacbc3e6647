"""A CPU speed probe that runs interleaved with the program being timed.

The 2-core machine this benchmark was built on changes speed by up to 1.6x
over seconds to minutes, for reasons outside the process, and CPU time moves
with wall time, so neither is steady on its own.
A fixed pure-Python loop slows down with the program.  `Sampler` times that
loop every PERIOD_S seconds from a SIGALRM handler while the commands run,
so the samples see the same speed as the work around them.  Dividing the
work's time by the mean sample and multiplying by REFERENCE_S gives the time
the work would take on a machine where the loop takes REFERENCE_S.

The loop touches no symspec code, so a change to the program cannot change
the probe.
"""

import signal
import time

PERIOD_S = 0.1
REFERENCE_S = 0.005


def time_probe():
    """Seconds one pass of a fixed loop of dict, tuple and call traffic takes."""
    start = time.perf_counter()
    table = {}
    for i in range(24000):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + len(key)
    return time.perf_counter() - start


class Sampler:
    """Runs time_probe every PERIOD_S seconds while the `with` block runs."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(time_probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # the block ended within one period
            self.samples.append(time_probe())
        return False


def normalized(seconds, samples):
    """`seconds` rescaled from the speed the samples saw to the reference speed."""
    return seconds * REFERENCE_S * len(samples) / sum(samples)
