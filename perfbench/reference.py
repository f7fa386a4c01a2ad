"""A fixed reference kernel that measures the machine's current speed.

On a shared VM the CPU speed drifts by 10-35 % over tens of seconds to
minutes (other tenants' load), and every timing of hausdim drifts with
it.  run.py times this kernel between passes, in its own process, and
reports wall_rel = pass wall time / reference time, which cancels most
of that drift.  The kernel does not touch hausdim, so a change to the
program moves wall_rel and leaves the reference alone.

The kernel mixes the two kinds of work hausdim's passes spend their time
on: a sparse CSR matrix-vector loop over a matrix larger than a typical
last-level cache (12 MB), and a pure-Python loop of dict and integer
operations.  (Large fresh numpy allocations were tried as a third part;
their page-fault cost drifts differently and made the ratio noisier.)
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse

N = 20000            # matrix dimension
NNZ_PER_ROW = 50     # 1e6 nonzeros: 8 MB of values, 4 MB of int32 indices
MATVECS = 40
PY_STEPS = 150_000
REPS = 6             # each measurement is the mean of this many kernels


class Reference:
    def __init__(self):
        rng = np.random.default_rng(12345)
        rows = np.repeat(np.arange(N), NNZ_PER_ROW)
        cols = rng.integers(0, N, N * NNZ_PER_ROW)
        self.matrix = scipy.sparse.csr_matrix(
            (np.ones(N * NNZ_PER_ROW), (rows, cols)), shape=(N, N))
        self.x0 = np.linspace(0.0, 1.0, N)
        self.kernel()  # warm-up, not timed

    def kernel(self) -> float:
        y = self.x0
        for _ in range(MATVECS):
            y = self.matrix @ y
            y /= y.max()
        acc, table = 0, {}
        for i in range(PY_STEPS):
            table[i & 1023] = acc
            acc += i * i % 7
        return float(y[0]) + acc

    def seconds(self) -> float:
        """Mean time of one kernel over REPS back-to-back runs."""
        t0 = time.perf_counter()
        for _ in range(REPS):
            self.kernel()
        return (time.perf_counter() - t0) / REPS
