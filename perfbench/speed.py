"""Machine-speed sampling, so that timings can be rescaled to a fixed speed.

On a shared host the same op can take 1.5x to 1.8x longer from one minute
to the next, because other tenants contend for the same cores.  Wall-clock
medians then move by more than any regression bound worth having.  The
sampler measures that drift where it happens: a timer interrupts the run
every ``INTERVAL_S`` and times a fixed reference computation that the
package under test never touches.  A timed span is then rescaled by
``REFERENCE_S`` over the mean reference time seen during that span, which
turns it into milliseconds on a host where the reference takes exactly
``REFERENCE_S``.  The sampler's own time is subtracted from the span first.

The reference is 256-bit modular squaring in the interpreter plus SHA-256
in C, the same kinds of work the package does.  It allocates no container
objects, so it never triggers the garbage collector and its time does not
depend on the program's heap.
"""

from __future__ import annotations

import bisect
import hashlib
import signal
import statistics
import time

INTERVAL_S = 0.05
# The reference computation's duration on a quiet 2-core x86-64 host with
# CPython 3.11; the rescaled times are milliseconds on such a host.
REFERENCE_S = 0.0004

_P = 2**256 - 2**32 - 977


def reference_work():
    x = 3
    for _ in range(400):
        x = x * x % _P
    h = b""
    for _ in range(400):
        h = hashlib.sha256(h).digest()
    return x, h


class SpeedSampler:
    """Times ``reference_work`` on a wall-clock timer while in use.

    Samples run in the main thread between bytecodes, from a SIGALRM
    handler; ``spent`` is the total time they took.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)
        self.spent += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """Factor taking a span in [start, end] to the reference speed.

        Uses the samples that ended inside the span, or the last one before
        its end when the span was too short to hold any.  A sample during
        which the host stopped the process entirely takes several times its
        neighbours; that pause is already subtracted from the span as
        sampler time, so samples above twice the median are left out.
        """
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = self.durations[lo:hi] or self.durations[max(0, hi - 1):hi]
        cap = 2 * statistics.median(inside)
        return REFERENCE_S / statistics.fmean(d for d in inside if d <= cap)
