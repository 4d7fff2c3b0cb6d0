"""Host-speed reference for the benchmark's end-to-end times.

On a shared machine the speed of the same code drifts with the load of
other tenants, by a factor of up to 3 over minutes for memory-bound numpy
work and by about 30% for interpreter-bound work. A run cannot avoid the
drift, so it measures it. Two fixed kernels that belong to the benchmark,
not to refineloop, run next to the measured work:

* ``memory_kernel``: splitmix-style uint64 streaming and a gather over
  1-million-element arrays, the access pattern of the bootstrap;
* ``python_kernel``: ``csv`` parsing into a dict of tuples, the pattern of
  log reading, argument parsing and the ASC controller.

``slowdown`` compares their times with the nominal times below. A value of
1.0 means the host ran at nominal speed and 2.0 means it ran at half speed.
Dividing a measured time by the slowdown next to it gives the time at
nominal host speed. Optimising refineloop does not change the kernels, so
the division keeps a real gain and removes most of the host's drift.
"""

import csv
import io
import time

import numpy as np

# Median kernel times on the shared 2-core x86_64 host (2.1 GHz, Python 3.11,
# numpy 2.4) on which the benchmark's bounds were set.
MEMORY_NOMINAL_S = 0.080
PYTHON_NOMINAL_S = 0.070

_N = 1_000_000
_TABLE = (np.arange(20_000) % 2).astype(np.int8)
_LINES = "\n".join(f"p{i:05d},{i % 7},{i % 2},,run" for i in range(50_000))


def memory_kernel() -> None:
    x = np.arange(_N, dtype=np.uint64)
    for _ in range(6):
        y = x >> np.uint64(30)
        y ^= x
        y *= np.uint64(0xBF58476D1CE4E5B9)
        y >>= np.uint64(11)
        u = y.astype(np.float64)
        u *= 20_000 * 2.0**-53
        _TABLE[u.astype(np.int64)].mean()


def python_kernel() -> None:
    table = {}
    for row in csv.reader(io.StringIO(_LINES)):
        table[(row[0], int(row[1]))] = (row[2] == "1", row[3], row[4])


def slowdown(memory_share: float) -> float:
    """Host slowdown for work of which ``memory_share`` is memory-bound numpy."""
    factor = 0.0
    for kernel, nominal, share in ((memory_kernel, MEMORY_NOMINAL_S, memory_share),
                                   (python_kernel, PYTHON_NOMINAL_S, 1.0 - memory_share)):
        if share > 0.0:
            start = time.perf_counter()
            kernel()
            factor += share * (time.perf_counter() - start) / nominal
    return factor
