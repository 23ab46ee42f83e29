"""Op times at a fixed machine speed, measured against a reference kernel.

On a shared machine the speed a process gets drifts by 20-50% over tens of
seconds, as other tenants come and go, and a whole run can fall in a slow
phase, so neither the fastest nor the median of a run's passes is steady
between runs. The benchmark therefore runs a fixed reference kernel just
before and after each op (or each group of short ops), and scales the op's
wall time by how much slower than nominal the kernel ran around it:

    scaled = wall * nominal / mean(kernel before, kernel after)

A scaled time is what the op would have taken at the speed on which the
kernel takes its nominal time: about an idle core of the 2-vCPU x86-64
(Xeon) VM the baseline was recorded on. It falls when gaitlab gets faster, as
a wall time does, but it hardly moves with the machine's load.

The kernel is chosen to slow down the way the workload does. `scalar` is a
Python loop of float arithmetic, like the per-sample Madgwick update that
dominates the batch chain. `numeric` is many small numpy and scipy calls, a
bounded least-squares fit and small `lstsq` solves, like the chunk-sized
calls of the live composition and the per-user fits. Neither calls gaitlab,
so a change to gaitlab cannot move them.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter_ns

import numpy as np
from scipy.optimize import least_squares


def scalar_kernel() -> float:
    q0, q1, q2, q3 = 1.0, 0.0, 0.0, 0.0
    for i in range(4500):
        g = 1e-3 * (i % 97)
        q0, q1, q2, q3 = q0 - 0.5 * q1 * g, q1 + 0.5 * q0 * g, q2 + 0.1 * q3 * g, q3 - 0.1 * q2 * g
        n = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
        q0, q1, q2, q3 = q0 / n, q1 / n, q2 / n, q3 / n
    return q0


_X = np.linspace(0.0, 1.0, 40)
_Y = 2.0 * np.sin(1.3 * _X) + 0.5


def numeric_kernel() -> float:
    fit = least_squares(lambda p: p[0] * np.sin(p[1] * _X) + p[2] - _Y, x0=[1.0, 1.0, 0.0],
                        bounds=([0.0, 0.0, -1.0], [3.0, 3.0, 1.0]))
    acc = float(fit.x[0])
    for i in range(20):
        acc += np.linalg.lstsq(np.vander(_X[:12], 3) + 1e-3 * i, _Y[:12], rcond=None)[0][0]
    return acc


# name -> (kernel, nominal ns)
KERNELS = {
    "scalar": (scalar_kernel, 1.7e6),
    "numeric": (numeric_kernel, 2.3e6),
}


class RefClock:
    """Runs a kernel on demand and turns the last two kernel times into the
    scale factor for the work timed between them."""

    def __init__(self, kernel: str):
        self.name = kernel
        self._run, self.nominal_ns = KERNELS[kernel]
        self.kernel_ns: list[int] = []
        self._run()  # warm-up: lazy imports and first-call costs
        self._last_ns = self._time()

    def _time(self) -> int:
        start = perf_counter_ns()
        self._run()
        ns = perf_counter_ns() - start
        self.kernel_ns.append(ns)
        return ns

    def factor(self, reps: int = 1) -> float:
        """Run the kernel again (the median of `reps` runs, to track a long
        piece of work better); the factor for the work since the last run."""
        now = statistics.median(self._time() for _ in range(reps))
        f = self.nominal_ns / (0.5 * (self._last_ns + now))
        self._last_ns = now
        return f
