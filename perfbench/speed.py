"""Tracks the machine's speed while the operations run.

The benchmark runs on a core of a shared host whose speed swings by up to
~40% within seconds and drifts over minutes (NOTES.md, "Measured
spreads").  A timer signal interrupts the benchmark every ``INTERVAL_S``;
its handler times a fixed interpreter loop (the kernel) and records how
long it took.  Each sample reports the machine's speed at that moment, so
the kernel times taken during a stretch of work tell how fast the machine
was during that very stretch.

The benchmark reports each operation's own wall time (its wall time minus
the time the handler took inside it) rescaled to a fixed reference speed:

    reported = own_wall * REFERENCE_S / median(kernel times during it)

The kernel belongs to the benchmark, not to the package, so a change to the
package cannot move it; the rescaled times of two versions of the package
compare as their wall times would on a steady machine.  The handler takes
~1% of the time; its work is left out of the wall time, not its effect on
the caches.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02  # one kernel sample per this much wall time
KERNEL_LOOPS = 3000  # ~0.24 ms of interpreter work per sample
# The kernel's time at the speed the reported seconds refer to, close to
# its median on the 2-CPU machine the benchmark was sized on.  Any fixed
# value would do; it cancels when two versions of the package are compared.
REFERENCE_S = 0.00025


class Sampler:
    """Kernel samples taken by a SIGALRM handler, and the handler's total
    time.  Single-threaded: the handler runs in the main thread between
    bytecodes, so a long call into compiled code delays the sample."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.handler_s = 0.0

    def _handle(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(KERNEL_LOOPS):
            total += i * i
        t1 = time.perf_counter()
        self.kernel_s.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        self._handle(signal.SIGALRM, None)  # a first sample straight away
        signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Where the samples of a stretch of work that starts now begin."""
        return len(self.kernel_s)

    def rescale(self, own_wall: float, mark: int) -> float:
        """``own_wall`` at the reference speed, judged by the samples taken
        since ``mark`` (the latest one if the stretch got none)."""
        taken = self.kernel_s[mark:] or self.kernel_s[-1:]
        return own_wall * REFERENCE_S / statistics.median(taken)
