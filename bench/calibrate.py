"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed moves by tens of percent within
minutes (neighbours' load, clock changes): on a 2-CPU x86-64 host the same
single-threaded event-freq loop ran at 54k trials/s for 20 s and at 35k trials/s
for the next 30 s, in one process, with identical inputs.  No median within a
run removes a shift of that length.  So every timed piece of work is paired
with the time of a fixed calibration kernel that uses no gapcert code, measured
right next to it, and timings are reported at the reference speed:

    reported = measured * REFERENCE_S[kernel] / kernel time measured beside it

A change to gapcert moves the measured time and not the kernel time, so it
shows in full; a change of the host's speed moves both and cancels.  The
wall-clock values are kept in the ledger beside the reported ones.

A host slows interpreted code and LAPACK calls by different amounts, so there
are two kernels: ``python``, a pure-Python loop, for workloads whose time goes
to the interpreter and small numpy calls, and ``lapack``, a symmetric
eigensolve, for the dense workload (see workloads.py).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one call of each kernel on the 2-CPU x86-64 host the benchmark
# was defined on; they only set the scale, so reported values read as seconds there.
REFERENCE_S = {"python": 0.0075, "lapack": 0.0045}
REPS = 3
WINDOW_S = 5.0
_SYMMETRIC = np.random.default_rng(0).standard_normal((200, 200))
_SYMMETRIC += _SYMMETRIC.T


def spin(n: int = 100_000) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


KERNELS = {"python": spin, "lapack": lambda: np.linalg.eigh(_SYMMETRIC)}


def sample(kernel: str) -> float:
    """Median wall time of a few calls of `kernel`, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        KERNELS[kernel]()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def around(samples: list[tuple[float, float]], t: float) -> float:
    """Median of the (time, calibration) samples taken within WINDOW_S of time `t`.

    One sample wobbles by 10-20% with the host's moment-to-moment load, which
    would show in full in a single trial's scaled latency; the host's speed
    shifts last tens of seconds, so a window of a few seconds follows them."""
    near = [c for s, c in samples if abs(s - t) <= WINDOW_S]
    return statistics.median(near or [min(samples, key=lambda sc: abs(sc[0] - t))[1]])


def scale(calibration_s: float, kernel: str) -> float:
    """Factor that takes a time measured beside `calibration_s` of `kernel` to the reference speed."""
    return REFERENCE_S[kernel] / calibration_s
