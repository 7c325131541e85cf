"""The host's speed while a block runs, from a fixed interpreter-bound probe.

On a small machine shared with other work the same call can take 1.5 to 2
times as long from one second to the next, with CPU time equal to wall time
and no steal time: the host itself runs slower. :class:`Meter` times a block
and samples how fast the host runs meanwhile, by timing a fixed piece of
plain Python work (a "tick") a few times before and after the block and,
from a timer signal, every ``PERIOD`` seconds inside it. The block's own
time (wall time minus the ticks inside it), scaled by the ticks' mean
against ``NOMINAL_TICK_S``, is the time the block would have taken on a host
where a tick takes ``NOMINAL_TICK_S``. The tick is dict and integer work
without numpy, like the Wilson walks, aggregation and bookkeeping that
dominate most kgrip calls. A signal handler runs only between bytecodes, so
long C calls (BLAS, LAPACK) are sampled at their ends.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_TICK_S = 2.4e-4  # tick seconds at the reference speed (a quiet two-core x86-64 VM)
PERIOD = 0.02  # seconds between ticks inside a block: about 1 % of its time
EDGE_TICKS = 20  # ticks before and after a block
_TICK_ITERS = 1500


def tick() -> float:
    """Seconds of one pass of the fixed loop."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(_TICK_ITERS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += i % 7
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return time.perf_counter() - start


class Meter:
    """Context manager: ``own_s`` and ``scaled_s`` of the block it wraps."""

    def __enter__(self) -> "Meter":
        self.ticks = [tick() for _ in range(EDGE_TICKS)]
        self._inside: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._start = time.perf_counter()
        return self

    def _on_alarm(self, signum, frame) -> None:
        self._inside.append(tick())

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.own_s = wall - sum(self._inside)
        self.ticks += self._inside + [tick() for _ in range(EDGE_TICKS)]
        self.tick_s = statistics.fmean(self.ticks)
        self.scaled_s = self.own_s * NOMINAL_TICK_S / self.tick_s
