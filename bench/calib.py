"""The calibration kernel: a fixed pure-Python workload.

One reading (:func:`calibrate`, ~0.3 s) is the median of three kernel
passes.  Its time on a machine is the unit in which ``ops_per_calib`` is
expressed, so that a result file from one machine can be compared with
one from another; taken at the start and the end of every workload
process, it is also the noise sentinel (a repetition whose two readings
differ by more than :data:`NOISE_LIMIT` is marked ``noisy``).  The
kernel uses the primitives the simulator leans on — a heap Dijkstra over
a weighted graph, and dict/tuple churn — and nothing from ``repro``.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Dict, List, Tuple

NOISE_LIMIT = 0.10

_COLS, _ROWS = 50, 40
_SOURCES = 40
_CHURN = 90_000


def _lattice() -> List[List[Tuple[int, int]]]:
    """A 2 000-node grid whose edge weights come from a fixed LCG."""
    state = 12345
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(_COLS * _ROWS)]
    for row in range(_ROWS):
        for col in range(_COLS):
            node = row * _COLS + col
            for other in ((node + 1) if col + 1 < _COLS else -1,
                          (node + _COLS) if row + 1 < _ROWS else -1):
                if other < 0:
                    continue
                state = (state * 1103515245 + 12345) % 2147483648
                weight = 1 + state % 9
                adjacency[node].append((other, weight))
                adjacency[other].append((node, weight))
    return adjacency


def _dijkstra(adjacency: List[List[Tuple[int, int]]], source: int) -> None:
    dist: Dict[int, int] = {source: 0}
    heap = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for other, weight in adjacency[node]:
            nd = d + weight
            if nd < dist.get(other, 1 << 60):
                dist[other] = nd
                heapq.heappush(heap, (nd, other))


def run_kernel() -> float:
    """One kernel pass; returns its seconds."""
    t0 = time.perf_counter()
    adjacency = _lattice()
    for i in range(_SOURCES):
        _dijkstra(adjacency, (i * 83) % len(adjacency))
    table: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    for i in range(_CHURN):
        key = (i % 97, i % 31)
        old = table.get(key, (0, 0, 0))
        table[key] = (old[0] + 1, old[1] ^ i, i)
    return time.perf_counter() - t0


def calibrate() -> float:
    """One calibration reading: the median seconds of three passes,
    after one discarded pass that warms the interpreter up."""
    run_kernel()
    return statistics.median(run_kernel() for _ in range(3))
