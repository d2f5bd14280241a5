"""How fast the host runs right now, from a fixed reference workload.

On a shared host the speed of a vCPU swings by up to a factor of two
over seconds to minutes, with the neighbours' load.  A pass timed in
a slow phase then reads slow although the program did not change.
``HostSpeed`` measures the host between passes with a fixed workload
of its own, in two halves: a small event loop (a heap of timed
requests, per-bank open rows, per-row counters), like the simulator's
inner loop, and random lookups in a large dict plus random gathers
from a large numpy array, which miss the CPU caches as the program
does.  Either half alone tracked the program's slow phases worse than
both together.  The workload imports nothing from the program, so no
change to the program can change it.

A time ``t`` measured while the host ran the reference workload at
``r`` chunks per second is reported as ``t * r * REFERENCE_CHUNK_S``:
the time it would have taken on a host that runs one chunk in
``REFERENCE_CHUNK_S`` seconds.  On a host that is uniformly twice as
slow, both ``t`` and ``1 / r`` double, and the product stays put.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter
from typing import List, Tuple

import numpy as np

#: Seconds one chunk took on the reference host (2 vCPUs of an Intel
#: Xeon, Python 3.11) in a fast phase; it only sets the scale.
REFERENCE_CHUNK_S = 0.04
_REQUESTS = 8_000
_KEYS = 200_000
_LOOKUPS = 40_000
_VALUES = 2_000_000
_GATHERS = 200_000


def _data():
    """The cache-missing half's working set, about 35 MB.  It is built
    for each block and freed after it, so the program's passes run with
    the memory they would have without the benchmark."""
    rng = np.random.default_rng(7)
    table = {key: key * 2654435761 % 65521 for key in range(_KEYS)}
    lookups = rng.integers(0, _KEYS, _LOOKUPS).tolist()
    values = rng.random(_VALUES)
    gathers = rng.integers(0, _VALUES, _GATHERS)
    return table, lookups, values, gathers


class _Request:
    __slots__ = ("bank", "row", "due")

    def __init__(self, bank: int, row: int, due: float) -> None:
        self.bank = bank
        self.row = row
        self.due = due


def chunk(table, lookups, values, gathers) -> Tuple[int, int, float]:
    """One unit of reference work; returns a checksum of what it did."""
    rng = random.Random(1)
    heap: List[tuple] = []
    open_row = {}
    counts = {}
    hits = 0
    now = 0.0
    for seq in range(_REQUESTS):
        request = _Request(rng.randrange(32), rng.randrange(4096), now)
        heapq.heappush(heap, (request.due + (seq % 13) * 1.5, seq, request))
        if len(heap) > 48:
            due, _, head = heapq.heappop(heap)
            key = (head.bank, head.row)
            counts[key] = counts.get(key, 0) + 1
            if open_row.get(head.bank) == head.row:
                hits += 1
            else:
                open_row[head.bank] = head.row
            now = max(now, due) + 0.25
    total = 0
    for key in lookups:
        total += table[key]
    return hits, total, float(values[gathers].sum())


class HostSpeed:
    """Reference chunks per second, measured in blocks between passes."""

    def __init__(self) -> None:
        #: ``(chunks, seconds)`` of each block, in order.
        self.blocks: List[Tuple[int, float]] = []
        self._checksum = None

    def measure(self, seconds: float) -> None:
        """Run whole chunks for at least ``seconds`` and record a block."""
        data = _data()
        if self._checksum is None:
            self._checksum = chunk(*data)
        chunks = 0
        started = perf_counter()
        while True:
            if chunk(*data) != self._checksum:
                raise RuntimeError("the reference workload is not deterministic")
            chunks += 1
            elapsed = perf_counter() - started
            if elapsed >= seconds:
                break
        self.blocks.append((chunks, elapsed))

    def factor(self, first: int, last: int) -> float:
        """Reference seconds per measured second over blocks
        ``first..last`` (inclusive)."""
        blocks = self.blocks[first:last + 1]
        chunks = sum(count for count, _ in blocks)
        seconds = sum(elapsed for _, elapsed in blocks)
        return chunks * REFERENCE_CHUNK_S / seconds
