"""A fixed reference kernel, timed between ops to measure the host's speed.

The benchmark runs on shared machines whose speed drifts by 20% or more
within seconds, with no steal time visible to the guest: other tenants take
turbo headroom, cache and memory bandwidth. Raw op times from two runs
minutes apart then differ by more than any bound worth setting. The kernel
calls numpy and scipy the way the program's layers do but runs none of the
program's code, so no change to the program moves it. Kinds of work slow
down by different amounts, so each workload times only the parts that
resemble its own ops:

* ``draws``     - small multinomial draws in a Python loop (the sampler);
* ``widedraws`` - multinomial draws on 100-state rows (the sampler, wide);
* ``matvec``    - a sparse product the size of a 300-state game (a VI sweep);
* ``splu``      - a sparse LU and solve on a 10,000-state chain (evaluations);
* ``denselu``   - 5-state dense LU solves in a Python loop (the dense branch).

The kernel is timed before an op whenever half a second has passed since
its last timing, and once more after the last op; each timing runs it five
times back to back and keeps the median, so neither the run whose caches
the last op evicted nor a one-off interruption counts. Each op is scaled by
the timings on either side of it: its time at reference speed is
``raw * sum(NOMINAL_S[parts]) / mean(timing before, timing after)``. The
raw times and the kernel timings are kept in the run's report. On rows of
100 states the op's own noise is as large as the host's drift, so the
scaling neither helps nor hurts ``qvi-wide``; it is kept for uniformity.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Typical timing of each part on the 2-core Xeon host the benchmark was
# defined on; they only fix the scale of the reported times.
NOMINAL_S = {"draws": 0.0044, "widedraws": 0.0042, "matvec": 0.003, "splu": 0.004,
             "denselu": 0.004}
# Re-time the kernel before an op once this long has passed since the last.
EVERY_S = 0.5
REPEATS = 5


class ReferenceKernel:
    def __init__(self, parts: tuple[str, ...]) -> None:
        unknown = set(parts) - set(NOMINAL_S)
        if unknown or not parts:
            raise ValueError(f"reference parts must be drawn from {sorted(NOMINAL_S)}")
        self.parts = tuple(parts)
        self.nominal_s = sum(NOMINAL_S[p] for p in parts)
        rng = np.random.default_rng(0)
        self._p = rng.dirichlet(np.ones(20))
        self._v = rng.random(20)
        self._p_wide = rng.dirichlet(np.ones(100))
        self._v_wide = rng.random(100)
        self._trans = sp.csr_matrix(rng.random((1200, 300)))
        self._x = rng.random(300)
        n = 10_000
        self._chain = (sp.identity(n, format="csc")
                       - 0.99 * sp.eye(n, k=1, format="csc")).tocsc()
        self._rhs = np.ones(n)
        self._small = np.eye(5) - 0.5 * rng.dirichlet(np.ones(5), size=5)
        self.seconds: list[float] = []
        self._last = -np.inf
        self._work()  # first call pays for lazy imports and allocation

    def _draws(self) -> None:
        rng = np.random.default_rng(1)
        for _ in range(600):
            rng.multinomial(1000, self._p) @ self._v

    def _widedraws(self) -> None:
        rng = np.random.default_rng(2)
        for _ in range(250):
            rng.multinomial(1400, self._p_wide) @ self._v_wide

    def _matvec(self) -> None:
        for _ in range(9):
            self._trans @ self._x

    def _splu(self) -> None:
        spla.splu(self._chain).solve(self._rhs)

    def _denselu(self) -> None:
        for _ in range(150):
            sla.lu_solve(sla.lu_factor(self._small), self._v[:5])

    def _work(self) -> None:
        for part in self.parts:
            getattr(self, "_" + part)()

    def time(self) -> None:
        """Keep the median of ``REPEATS`` back-to-back kernel runs."""
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._work()
            self._last = time.perf_counter()
            runs.append(self._last - t0)
        self.seconds.append(statistics.median(runs))

    def maybe_time(self) -> int:
        """Time the kernel if ``EVERY_S`` has passed since it last ran.

        Returns the index of the latest timing, the one before what runs next.
        """
        if time.perf_counter() - self._last >= EVERY_S:
            self.time()
        return len(self.seconds) - 1

    def slowdown(self, index: int) -> float:
        """Host slowness between timings ``index`` and ``index + 1``.

        A raw time divided by it is the time at reference speed.
        """
        return (self.seconds[index] + self.seconds[index + 1]) / (2 * self.nominal_s)
