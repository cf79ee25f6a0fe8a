"""A fixed reference computation that gauges the host's speed during a run.

The benchmark runs on shared virtual machines whose speed changes under
load from neighbours: the same workload and seed measured 11.7 and 16.5
items per second minutes apart on a 2-vCPU Xeon guest, and a fixed
kernel's time flips by up to 1.5x from one second to the next.  Raw
wall-clock figures of two runs therefore differ by more than the
benchmark's bounds even when the code is the same.

``Reference.run`` times a small computation that does not touch
fockband: an interpreter loop, small and medium dense Hermitian
eigensolves and sparse matrix-vector products, the kinds of work the
package's layers spend their time in.  The runner calls it after every
item, so its samples follow the host's state through the run, and
divides the run's timings by their mean.  Multiplied by
``NOMINAL_S``, a timing is then in *nominal seconds*: seconds on a host
where the reference takes ``NOMINAL_S``.  The inputs are fixed, not
drawn from ``--seed``, so the reference does the same work in every run
of every commit.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp

#: Mean time of one ``Reference.run`` on the machine the baseline was
#: recorded on (2 vCPUs of an Intel Xeon guest, one BLAS thread), in s.
NOMINAL_S = 0.006

#: Iterations of the interpreter loop, small eigensolves and sparse products.
LOOP_ITERATIONS = 15_000
SMALL_EIGS = 50
MATVECS = 20


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class Reference:
    """The fixed computation and the times of its calls in this process."""

    def __init__(self):
        rng = np.random.default_rng(20150724)
        self.small = _hermitian(rng, 16)
        self.medium = _hermitian(rng, 128)
        s = sp.random(2500, 2500, density=0.003, random_state=rng, format="csr")
        self.sparse = (s + s.T).tocsr()
        self.vector = np.ones(2500)
        self.samples: list[float] = []
        self.run()
        self.samples.clear()

    def _work(self) -> float:
        acc = 0.0
        for i in range(LOOP_ITERATIONS):
            acc += i * 0.5
        for _ in range(SMALL_EIGS):
            acc += float(np.linalg.eigvalsh(self.small)[-1])
        acc += float(np.linalg.eigvalsh(self.medium)[-1])
        y = self.vector
        for _ in range(MATVECS):
            y = self.sparse @ y
        return acc + float(y[0])

    def run(self) -> float:
        """Time one call of the reference computation; the time is also kept."""
        start = perf_counter()
        self._work()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def take(self) -> list[float]:
        """The samples since the last ``take``, which starts a new window."""
        samples, self.samples = self.samples, []
        return samples


def scale(samples: list[float]) -> float:
    """Factor from measured to nominal seconds for a window of reference samples."""
    return NOMINAL_S / statistics.fmean(samples)
