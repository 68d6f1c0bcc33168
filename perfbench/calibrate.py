"""Machine speed, measured during a run with fixed kernels of the benchmark's own.

The VMs this benchmark runs on change speed for minutes at a time, as
neighbours come and go, and not evenly: interpreted Python (the flow
oracle, imports) slows by up to about 2x, numpy array arithmetic (the zeta
kernel, the sieve) far less.  A fixed kernel of the same kind, timed
every 0.1 s of a run, tells how fast the machine runs that kind of code
right now.  ``Probe.scale`` turns a measured time into seconds at the
reference speed, the speed at which one probe takes its ``REFERENCE_S``.
The kernels never call primopt, so a change to primopt moves scaled times
as it moves raw ones.

Two kinds, chosen per workload in workloads.PROBE_KIND:

- ``interpreted``: a breadth-first search over adjacency lists plus random
  reads over a 150k-entry list, a working set larger than a core's private
  caches.  On a 2-vCPU Xeon VM it cut the pass-to-pass spread of
  certify-small from 15% to 6% of the mean.
- ``numpy``: power sums over an ``arange``, as ``analytic._power_sum``
  does.  It halved the pass-to-pass spread of threshold, which the
  interpreted probe widened.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# One probe on the reference machine, a 2-vCPU Intel Xeon VM at its faster
# speed.  Fixed constants: changing one rescales every timing it scales.
REFERENCE_S = {"interpreted": 0.0053, "numpy": 0.0033}

_NODES = 4000
_DEGREE = 6
_SOURCES = (0, 1)
_TABLE = 150_000
_RANDOM_READS = 20_000
_POWER_TERMS = 200_000
_EXPONENTS = (1.1, 1.3, 1.5, 1.7, 1.9)


class Probe:
    """A fixed calibration kernel of one kind, with its data."""

    def __init__(self, kind: str):
        self.kind = kind
        self.reference_s = REFERENCE_S[kind]
        if kind == "interpreted":
            rng = random.Random(20130104)
            self.adjacency = [rng.sample(range(_NODES), _DEGREE) for _ in range(_NODES)]
            self.table = [n * 7919 for n in range(_TABLE)]
            self.reads = [rng.randrange(_TABLE) for _ in range(_RANDOM_READS)]
            self.unvisited = [-1] * _NODES
            self.level = [-1] * _NODES
            self.queue = [0] * _NODES
            self._kernel = self._interpreted
        else:
            # Imported here, after set-up has been timed, so that setup_s
            # keeps the cost of primopt importing numpy.
            import numpy

            self.numpy = numpy
            self.bases = numpy.arange(1, _POWER_TERMS + 1, dtype=numpy.float64)
            self.powers = numpy.empty_like(self.bases)
            self._kernel = self._power_sums
        self.seconds()  # the first run touches the data; it is not a measurement

    def _interpreted(self) -> int:
        # Breadth-first search into preallocated lists, so that the probe
        # allocates almost nothing and the workload's heap does not slow it.
        adjacency, level, queue = self.adjacency, self.level, self.queue
        total = 0
        for source in _SOURCES:
            level[:] = self.unvisited
            level[source] = 0
            queue[0] = source
            head, tail = 0, 1
            while head < tail:
                u = queue[head]
                head += 1
                next_level = level[u] + 1
                for v in adjacency[u]:
                    if level[v] < 0:
                        level[v] = next_level
                        queue[tail] = v
                        tail += 1
            total += tail
        table = self.table
        for i in self.reads:
            total += table[i]
        return total

    def _power_sums(self) -> float:
        # Into a preallocated array: a fresh 1.6 MB array would time the
        # allocator, whose speed depends on what the workload freed before.
        total = 0.0
        for s in _EXPONENTS:
            self.numpy.power(self.bases, -s, out=self.powers)
            total += float(self.powers.sum())
        return total

    def seconds(self) -> float:
        """Wall time of the kernel's second of two back-to-back runs.

        The first run brings the probe's data back into cache, so the time
        does not depend on how much of it the job before evicted.  The
        garbage collector is off meanwhile: a collection over the heap the
        workload has built would be timed as machine speed.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._kernel()
            start = time.perf_counter()
            self._kernel()
            return time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()

    def median_seconds(self, count: int) -> float:
        return statistics.median(self.seconds() for _ in range(count))

    def scale(self, probe_s: float) -> float:
        """Factor that turns a time measured at this probe time into reference seconds."""
        return self.reference_s / probe_s
