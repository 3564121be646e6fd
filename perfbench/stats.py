"""Percentiles that refuse to be estimated from too few samples, and
peak memory."""

from __future__ import annotations

import math
import statistics

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(values, q: float, min_beyond: int = MIN_BEYOND):
    """The ``q``-th percentile (nearest rank) of ``values``, or ``None``
    when fewer than ``min_beyond`` samples lie beyond it."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(values)
    if not ordered:
        return None
    rank = math.ceil(q / 100 * len(ordered))  # 1-based nearest rank
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def latency_summary(values_ms) -> dict:
    """``{"n", "p50", "p90", "p95"}``; a refused percentile is ``None``."""
    values_ms = list(values_ms)
    return {
        "n": len(values_ms),
        "p50": (median(values_ms)
                if percentile(values_ms, 50) is not None else None),
        "p90": percentile(values_ms, 90),
        "p95": percentile(values_ms, 95),
    }


def windowed_rate(ends, start: float, elapsed: float,
                  windows: int = 5) -> float:
    """Completions per second: the median over ``windows`` equal slices
    of ``[start, start + elapsed]``, so a burst of outside load in one
    slice does not move it."""
    width = elapsed / windows
    counts = [0] * windows
    for end in ends:
        counts[min(windows - 1, max(0, int((end - start) / width)))] += 1
    return median([c / width for c in counts])


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
