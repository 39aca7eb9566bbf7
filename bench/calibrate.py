"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants, the speed of one core drifts by 20% or
more over tens of seconds, so the median of a run says as much about the
host as about the program. The benchmark therefore runs a fixed kernel, which
is part of the benchmark and never changes with the program, in the gaps
between ops, and reports each op's time scaled to the host speed at which the
kernel takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / mean kernel time in the gaps around the op

The host switches between a fast and a slow state within seconds, so a
window of several gaps estimates the speed during an op better than the two
gaps next to it. A short step at the end of an op (the render step) is
scaled by the gap that follows it instead.

The kernel mixes the kinds of work the program does: heap and dict
operations (A*), float arithmetic on tuples in Python (relevance), JSON
encoding (reports) and numpy array arithmetic (rasterization).
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import random
import statistics
import time

import numpy as np

# Kernel time at which reported times equal measured ones: about its median
# on a shared 2-vCPU Intel Xeon host under Python 3.11, where it ranges from
# 15 ms to 30 ms as other tenants load the host.
REFERENCE_S = 0.02

_RNG = random.Random(20250312)
_COSTS = [1.0 + _RNG.random() for _ in range(4096)]
_BOXES = [tuple(_RNG.uniform(0.0, 20.0) for _ in range(6)) for _ in range(200)]
_DOC = {"cells": [[_RNG.uniform(1.0, 5.0) for _ in range(60)] for _ in range(50)]}
_XS = np.linspace(0.0, 20.0, 40_000)
_GRID = np.asarray(_COSTS * 10)[:40_000].reshape(200, 200)
_STEPS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy)


def _search() -> int:
    """Best-first search over a 200 x 200 grid with tuple keys, as A* does."""
    best: dict[tuple[int, int], float] = {(0, 0): 0.0}
    frontier = [(0.0, 0, (0, 0))]
    popped = 0
    while frontier and popped < 2500:
        d, _, (x, y) = heapq.heappop(frontier)
        popped += 1
        for dx, dy in _STEPS:
            nx, ny = x + dx, y + dy
            if not (0 <= nx < 200 and 0 <= ny < 200):
                continue
            nd = d + float(_GRID[ny, nx]) * (1.4142135623730951 if dx and dy else 1.0)
            if nd < best.get((nx, ny), math.inf):
                best[(nx, ny)] = nd
                heapq.heappush(frontier, (nd, ny * 200 + nx, (nx, ny)))
    return popped


def _distances() -> int:
    hits = 0
    for k in range(12):
        p = (k * 1.5, k * 1.5, 0.0)
        for box in _BOXES:
            total = 0.0
            for c, lo, hi in zip(p, box[:3], box[3:]):
                gap = max(lo - c, 0.0, c - hi)
                total += gap * gap
            hits += math.sqrt(total) <= 1.5
    return hits


def _encode() -> int:
    return len(json.dumps(_DOC, indent=2, sort_keys=True))


def _arrays() -> float:
    d = np.sqrt(np.maximum(_XS - 3.0, 0.0) ** 2 + np.maximum(7.0 - _XS, 0.0) ** 2)
    return float(np.maximum(1.0, 1.0 + 2.0 * np.maximum(0.0, 1.0 - d / 1.5)).sum())


def kernel_s() -> float:
    """Wall time of one run of the fixed kernel, with the collector paused so
    the program's live objects do not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _search()
        _distances()
        _encode()
        _arrays()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


WINDOW = 2  # gaps used on each side of an op, beyond the two next to it


def scales(gaps: list[float]) -> list[float]:
    """Scale factor for each op ``i``, which ran between ``gaps[i]`` and
    ``gaps[i + 1]`` (median kernel times of the gaps)."""
    return [
        REFERENCE_S / statistics.fmean(gaps[max(0, i - WINDOW) : i + WINDOW + 2])
        for i in range(len(gaps) - 1)
    ]


def sample(budget_s: float) -> float:
    """Median kernel time over at least one run and about ``budget_s``."""
    times = [kernel_s()]
    while sum(times) < budget_s:
        times.append(kernel_s())
    return statistics.median(times)
