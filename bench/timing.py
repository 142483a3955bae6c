"""Operation timing, scaled by how fast the host runs at that moment.

The host this benchmark was built on changes speed by factors of 1 to 3.6
over periods of seconds to minutes, and CPU time follows wall time, so no
statistic of raw times over one run is steady.  A fixed *reference
computation* slows down in step with the program: timing it every 0.25 s
and scaling each operation's time by
``REFERENCE_NOMINAL_S / mean reference time around and during it`` gives
the time the operation would take on a host where the reference takes
``REFERENCE_NOMINAL_S``.  Samples taken during an operation (from a timer
signal, so that long operations are covered too) are subtracted from its
time.  The reference does not use ``splitfp``, so a change to the program
cannot move it.
"""

import bisect
import contextlib
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from tracing import OP_SPAN

# reference time on the host the bounds were set on, in its fast state
REFERENCE_NOMINAL_S = 0.008
# at most this long between two reference samples during a timed pass
SAMPLE_INTERVAL_S = 0.25


def _reference_work():
    """Interpreter arithmetic and small-array numpy calls, as splitfp makes."""
    acc = 0.0
    origin = np.zeros(1)
    for i in range(3000):
        v = np.atleast_1d(np.asarray(float(i % 7), dtype=float))
        acc += float(np.linalg.norm(v - origin)) + ((0.5 * i + 1.0) * i + 2.0) / (i + 3.0)
    return acc


def reference_seconds():
    """Wall time of one run of the reference computation."""
    t0 = perf_counter()
    _reference_work()
    return perf_counter() - t0


@dataclass
class Op:
    """One timed operation of a pass: a CLI command, a solve or a projection."""

    label: str
    seconds: float
    output: object = None
    error: Exception | None = None
    start: float = 0.0
    end: float = 0.0
    scaled: float | None = None   # seconds at the nominal host speed


class HostSpeed:
    """Reference samples with the times they started."""

    def __init__(self):
        self.times = []
        self.seconds = []
        self._busy = False

    def sample(self):
        if self._busy:   # a timer signal arrived during a sample
            return
        self._busy = True
        try:
            self.times.append(perf_counter())
            self.seconds.append(reference_seconds())
        finally:
            self._busy = False

    def sample_if_due(self):
        if not self.times or perf_counter() - self.times[-1] >= SAMPLE_INTERVAL_S:
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Also sample every ``SAMPLE_INTERVAL_S`` from a timer signal."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def spent(self, start, end):
        """Seconds spent sampling between ``start`` and ``end``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return sum(self.seconds[lo:hi])

    def factor(self, start, end):
        """``REFERENCE_NOMINAL_S`` over the mean of the samples from the last
        one before ``start`` to the first one after ``end``."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return REFERENCE_NOMINAL_S / statistics.fmean(self.seconds[before:after + 1])


class PassTimer:
    """Runs and times the operations of one pass.

    With a tracer every operation is a root span; with a :class:`HostSpeed`
    the reference is sampled before an operation when one is due, time
    spent sampling inside an operation is left out of it, and
    :meth:`finish` fills in each operation's scaled time.
    """

    def __init__(self, tracer=None, host=None):
        self.tracer = tracer
        self.host = host

    def __call__(self, ops, label, fn):
        if self.host is not None:
            self.host.sample_if_due()
        span = self.tracer.span(OP_SPAN) if self.tracer is not None else contextlib.nullcontext()
        with span:
            t0 = perf_counter()
            try:
                out, err = fn(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, exc
            t1 = perf_counter()
        spent = self.host.spent(t0, t1) if self.host is not None else 0.0
        ops.append(Op(label, t1 - t0 - spent, out, err, start=t0, end=t1))

    def finish(self, ops):
        if self.host is None:
            return
        self.host.sample()
        for op in ops:
            op.scaled = op.seconds * self.host.factor(op.start, op.end)
