"""Host-speed calibration for timings taken on a shared machine.

On a shared host the machine's speed drifts by tens of percent over
minutes, for the program and for any other Python code alike.  While a
timed region runs, a ``SIGALRM`` timer samples a fixed reference loop
(:class:`Probe`, which uses nothing from the program) every
``PROBE_EVERY_S`` seconds.  The probe's own time is subtracted from every
timing and from every open trace span, and a region's timings are
divided by :meth:`HostSpeed.factor`: the probe's median over the region
relative to ``PROBE_NOMINAL_S``.  A calibrated second is thus a second
on a host on which the probe takes ``PROBE_NOMINAL_S``.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

#: Seconds the probe takes at the nominal host speed: its median on the
#: 2-core x86-64 VM (CPython 3.11) the benchmark's bounds were set on.
PROBE_NOMINAL_S = 0.007
#: Host seconds between two probes while a timed region runs.
PROBE_EVERY_S = 0.25
#: Objects the probe walks: about 6 MB with their walk order
#: (:attr:`Probe.table_mb`), more than one core's L2 cache.
PROBE_OBJECTS = 40_000


class _Cell:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


class Probe:
    """A fixed pure-Python workload that times the host, not the program.

    It has two halves.  One is a tight interpreter loop over small dicts
    and a heap, which stays in cache.  The other walks a table larger than
    the L2 cache in a shuffled order.  The simulator does both kinds of
    work.  On a host whose speed drifts, their sum tracks the simulator's
    speed better than either half alone: the loop alone cut the
    run-to-run spread of a fixed sweep from 0.25 to 0.13, the sum to 0.06.

    The table is built on the first probe, outside its timing.  Its size,
    :attr:`table_mb`, is part of the process's ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        self.table: dict[int, _Cell] | None = None
        self.order: list[int] = []
        #: Megabytes the table and its walk order hold (0 until built).
        self.table_mb = 0.0

    def _build(self) -> None:
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        rng = random.Random(7)
        self.table = {i: _Cell(i) for i in range(PROBE_OBJECTS)}
        self.order = list(range(PROBE_OBJECTS))
        rng.shuffle(self.order)
        self.table_mb = (tracemalloc.get_traced_memory()[0] - before) / 2**20
        if not tracing:
            tracemalloc.stop()

    def __call__(self) -> float:
        """Host seconds of one probe."""
        if self.table is None:
            self._build()
        t0 = perf_counter()
        small: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        digits = 0
        for i in range(5_000):
            k = (i * 7919) & 1023
            small[k] = small.get(k, 0) + i
            if i & 3 == 0:
                heapq.heappush(heap, (k, i))
                if len(heap) > 64:
                    heapq.heappop(heap)
            digits += len(str(k))
        table, order = self.table, self.order
        for j in range(0, PROBE_OBJECTS, 4):
            cell = table[order[j]]
            cell.hits += 1
            digits += cell.key & 7
        return perf_counter() - t0


class HostSpeed:
    """Probe samples of one run, and the host seconds spent taking them."""

    def __init__(self) -> None:
        self.probe = Probe()
        self.samples: list[float] = []
        #: Host seconds spent in timer-driven probes (taken off timings).
        self.spent_s = 0.0
        #: Tracer whose open span must not be charged for a probe.
        self.tracer = None
        self._busy = False

    def sample(self, count: int = 1) -> None:
        """Probe now, outside any timed region."""
        self.samples.extend(self.probe() for _ in range(count))

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            self.samples.append(self.probe())
            spent = perf_counter() - t0
            self.spent_s += spent
            if self.tracer is not None:
                self.tracer.exclude(spent)
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        """Probe every ``PROBE_EVERY_S`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, first: int = 0) -> float:
        """How much slower than nominal the host ran over ``samples[first:]``."""
        return statistics.median(self.samples[first:]) / PROBE_NOMINAL_S
