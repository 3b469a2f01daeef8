"""Estimators the benchmark reports: per-slice minimum, tail percentiles,
the host reference loop that normalizes wall time, and peak memory."""

from __future__ import annotations

import resource
import statistics
import time
from typing import Sequence

import numpy as np

__all__ = [
    "REFERENCE_NOMINAL_MS",
    "host_slowdown",
    "peak_rss_mb",
    "reference_ms",
    "slice_minimum",
    "tail_percentile",
]


def slice_minimum(reps: Sequence[Sequence[float]]) -> list[float]:
    """Each slice's minimum over repetitions of identical work.

    Host contention only ever adds time, and it drifts over seconds, so
    the fastest repetition of a slice is the closest to the uncontended
    cost; summing per-slice minima lets different slices take their
    minimum from different repetitions.
    """
    if not reps:
        raise ValueError("no repetitions")
    width = len(reps[0])
    if any(len(rep) != width for rep in reps):
        raise ValueError("repetitions have different slice counts")
    return [min(rep[i] for rep in reps) for i in range(width)]


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused unless ten samples lie beyond it."""
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has only {beyond:.1f} beyond it"
        )
    return float(np.percentile(np.asarray(values, dtype=float), q))


#: ``reference_ms()`` on an uncontended 2-vCPU Xeon VM (its 5th percentile
#: over 4000 runs there).  Normalized times are wall times rescaled to a host
#: running at that speed.
REFERENCE_NOMINAL_MS = 0.72


def reference_ms() -> float:
    """Wall time of a fixed loop of interpreter work that allocates no
    tracked objects, so it never triggers the garbage collector: a gauge
    of how fast the host runs Python right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1000.0


def host_slowdown(samples: int = 3) -> float:
    """How many times slower than nominal the host runs at this moment."""
    return statistics.median(reference_ms() for _ in range(samples)) / REFERENCE_NOMINAL_MS


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
