"""Machine reference recorded beside every run (recorded, not gated).

Code version, CPU, core count, interpreter and numpy versions,
thread-pool settings and a short calibration rate, so a slower machine
can be told apart from a regression when two records are compared.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Dict

import numpy as np

#: Environment variables that size native thread pools.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _rate(kernel, units: float, repeats: int = 5) -> float:
    """Median units per second of ``kernel`` over ``repeats`` calls."""
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        rates.append(units / (time.perf_counter() - start))
    return statistics.median(rates)


def calibration() -> Dict[str, float]:
    """Pure-Python loop rate and one numpy kernel rate (about 0.2 s)."""

    def python_loop() -> None:
        total = 0.0
        for i in range(200_000):
            total += i * 0.5

    data = np.random.default_rng(0).random(1_000_000)

    def numpy_kernel() -> None:
        np.sort(data)

    return {
        "python_loop_iter_per_s": _rate(python_loop, 200_000),
        "numpy_sort_elem_per_s": _rate(numpy_kernel, data.size),
    }


def machine_reference() -> Dict[str, object]:
    import scipy

    from repro.observability import provenance

    return {
        "provenance": provenance(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_pools": {name: os.environ.get(name) for name in THREAD_VARS},
        "calibration": calibration(),
    }
