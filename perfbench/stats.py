"""Estimators and host probes shared by the harness and its tools."""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

#: The calibration kernel: ~10 ms of interpreter work plus ~12 ms of
#: NumPy work on a 16 MB array on the reference host -- long enough to
#: see a slow neighbour, short enough to run between every two blocks.
CALIB_ITERS = 150_000
_CALIB_ARRAY = np.arange(2_000_000, dtype=np.int64).reshape(250, 8000)
#: What the kernel takes on the reference host (the 2-vCPU VM this was
#: written on) in its usual state.  Times are reported at this speed.
CALIB_REF_NS = 24_000_000


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile, the way the driver takes
    them (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set size of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def calibrate() -> int:
    """Nanoseconds the fixed calibration kernel takes right now: half
    interpreter work, half memory-bound NumPy work, like the program."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(CALIB_ITERS):
        acc += i * i & 0xFF
    for _ in range(2):
        (_CALIB_ARRAY * 3).sum(axis=0)
        np.minimum(_CALIB_ARRAY, 7).sum(axis=1)
    return time.perf_counter_ns() - start


def host_factor(calibrations: Sequence[int]) -> float:
    """What to multiply a time measured next to ``calibrations`` by to
    read it at the reference host's speed."""
    return CALIB_REF_NS * len(calibrations) / sum(calibrations)


def timer_cost_ns(samples: int = 2000) -> float:
    """Mean nanoseconds between two successive clock reads: the floor
    under every latency this harness reports."""
    clock = time.perf_counter_ns
    total = 0
    for _ in range(samples):
        first = clock()
        total += clock() - first
    return total / samples
