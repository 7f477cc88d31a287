"""Host-speed probe: a fixed calibration loop, timed every 50 ms.

The benchmark host is shared.  Its speed drifts by tens of percent over
seconds and minutes, and process CPU time drifts with it, so two runs of
the same code can differ by 30% in wall time.  A :class:`HostClock`
times a fixed pure-Python loop from a ``SIGALRM`` handler every
:data:`PERIOD_S` of real time, inside the process doing the work.  Each
sample says how fast the host ran the interpreter at that moment.

:func:`speed` averages ``REFERENCE_S / sample`` over a pass: 1.0 is the
reference speed, 0.8 means the host ran 20% slower.  Wall time times
speed estimates the time the pass would take at the reference speed.
The loop does not touch the simulator, so a change to the simulator
cannot move it.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import List, Optional, Tuple

PERIOD_S = 0.05
LOOPS = 2000
#: One probe's duration at the reference speed.  A constant, so that
#: speeds measured in different runs compare.
REFERENCE_S = 2.0e-4


def _probe() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(LOOPS):
        x += i * i & 7
    return time.perf_counter() - start


class HostClock:
    """Collects ``(monotonic time, probe seconds)`` samples while started.

    With *spool* set, samples are also appended to
    ``<spool>/<pid>.txt`` in small batches, so that forked pool workers
    can hand theirs to the parent.
    """

    def __init__(self, spool: Optional[Path] = None) -> None:
        self.spool = spool
        self.samples: List[Tuple[float, float]] = []
        self._unsaved = 0

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.monotonic(), _probe()))
        if self.spool is not None:
            self._unsaved += 1
            if self._unsaved >= 5:
                self.flush()

    def flush(self) -> None:
        if self._unsaved:
            with open(self.spool / f"{os.getpid()}.txt", "a") as fh:
                fh.writelines(f"{t!r} {took!r}\n"
                              for t, took in self.samples[-self._unsaved:])
            self._unsaved = 0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self.spool is not None:
            self.flush()


def read_spool(spool: Path) -> List[Tuple[float, float]]:
    samples = []
    for path in spool.glob("*.txt"):
        for line in path.read_text().splitlines():
            t, took = line.split()
            samples.append((float(t), float(took)))
    return samples


def speed(samples, start: float, stop: float) -> Optional[float]:
    """Mean host speed over ``[start, stop]``, or None without samples."""
    inside = [took for t, took in samples if start <= t <= stop]
    if not inside:
        return None
    return sum(REFERENCE_S / took for took in inside) / len(inside)
