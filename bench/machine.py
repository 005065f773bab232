"""A fixed reference kernel that tells how fast the machine runs right now.

On a shared host the same job can take 1.6x as long for minutes at a
time, because other tenants contend for the shared cache and memory.  The
benchmark runs this kernel next to every job and scales the job's wall
time by how slow the kernel ran there, so that the gated times read as on
a machine running at ``NOMINAL_S`` per kernel call.  It never calls
cstones, so no change to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the machine the benchmark was written on (2 vCPUs
# of an Intel Xeon, one BLAS thread), in a quiet spell.
# Only a unit: runs of any two versions of the program share it.
NOMINAL_S = 0.008

# Three parts of about equal time, because the slow spells of a shared host
# do not slow every kind of work alike: other tenants contend for the
# shared cache and memory, which a kernel that lives in a core's L2 does
# not feel.  The parts are work that fits in L2 (small GEMMs, trig, a Python
# loop), GEMMs and element-wise passes over a few MB (the shape of a grid
# chunk), and a stream over 16 MB of memory.
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 128))
_B = _rng.standard_normal((128, 1500))
_X = _rng.standard_normal(100_000)
_T = _rng.standard_normal((128, 2048))
_R = _rng.standard_normal((64, 100))
_S = _rng.standard_normal(2_000_000)


def _kernel() -> int:
    for _ in range(2):
        _A @ _B
    np.cos(_X)
    np.sin(_X)
    s = 0
    for i in range(30_000):
        s += i * i
    b = (_A @ _T).T @ _R
    for _ in range(3):
        np.square(b, out=b)
        b *= 0.5
    np.multiply(_S, 1.0, out=_S)
    return s


def reference_s() -> float:
    """Wall time of one kernel call."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def reference_median_s(repeats: int = 5) -> float:
    """Median of a few kernel calls, for a reading not next to a job."""
    xs = sorted(reference_s() for _ in range(repeats))
    return xs[len(xs) // 2]
