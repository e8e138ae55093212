"""Calibration kernels: fixed work that never calls ``mminfenv``.

Each workload times one kernel alongside its operations, in the same
process and interleaved with them, and reports every time metric scaled
to the kernel's frozen reference speed:

    calibrated = median of (operation time / kernel time) * REFERENCE_MS[kernel]

so a machine that runs everything 1.5x slower leaves the calibrated
figure where it was.  The kernels resemble the work they calibrate:

* ``interp``: interpreter work, string formatting and small numpy calls,
  like a CLI verb on a K <= 3 model or a table at K <= 200, where
  per-state Python loops and per-call overhead set the pace;
* ``lapack``: a dense solve and an inverse of a fixed matrix, like the
  per-order solve and condition estimate of the K = 500 table;
* ``pyrng``: a Python loop of random draws, sorting and heap operations,
  like the simulator's replication loop;
* ``import`` (run by ``probe.py`` in a fresh interpreter): importing numpy
  and PyYAML, like the set-up of every workload.

REFERENCE_MS holds round figures near each kernel's time on the machine
the benchmark was written on (2-vCPU VM, Python 3.11.7, numpy 2.4.6,
OpenBLAS with one thread) in its faster state.  Changing a kernel or a
reference value changes every calibrated figure, so both stay fixed.
"""

import heapq

import numpy as np

REFERENCE_MS = {
    "interp": 2.0,
    "lapack": 8.0,
    "pyrng": 3.2,
    "import": 200.0,
}

_LAPACK_SIZE = 300


def _fixed_matrix(size):
    rng = np.random.default_rng(20070103)
    matrix = rng.uniform(0.0, 1.0, (size, size))
    return matrix + size * np.eye(size)


_MATRIX = _fixed_matrix(_LAPACK_SIZE)
_RHS = np.ones(_LAPACK_SIZE)


def interp():
    rng = np.random.default_rng(7)
    matrix = rng.uniform(0.1, 1.0, (3, 3)) + 3.0 * np.eye(3)
    vector = np.ones(3)
    lines = []
    for n in range(1, 121):
        rhs = (matrix @ vector) * (1.0 + 1.0 / n)
        vector = np.linalg.solve(matrix, rhs) / n
        row = {"order": n, "values": [float(x) for x in vector]}
        lines.append("  ".join(f"{x:.12g}" for x in row["values"]).ljust(60).rstrip())
    return len("\n".join(lines))


def lapack():
    solution = np.linalg.solve(_MATRIX, _RHS)
    inverse = np.linalg.inv(_MATRIX)
    return float(solution[0] + inverse[0, 0])


def pyrng():
    rng = np.random.default_rng(11)
    heap = []
    total = 0
    for _ in range(400):
        count = int(rng.poisson(3.0))
        arrivals = np.sort(rng.uniform(0.0, 1.0, count))
        for threshold in (arrivals + rng.exponential(1.0, count)).tolist():
            heapq.heappush(heap, threshold)
        level = 2.0 * rng.random()
        while heap and heap[0] <= level:
            heapq.heappop(heap)
        total += len(heap)
    return total


KERNELS = {"interp": interp, "lapack": lapack, "pyrng": pyrng}
