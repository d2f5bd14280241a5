"""Counting Bloom filters (BlockHammer's tracking substrate).

BlockHammer tracks per-row activation rates with a pair of counting
Bloom filters used in alternating epochs, so stale history expires
without per-row storage.  The filter overestimates (never
underestimates) a row's count, which is the direction a security
mechanism needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np


@dataclass
class CountingBloomFilter:
    """A counting Bloom filter over row addresses."""

    n_counters: int = 1024
    n_hashes: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_counters < 1 or self.n_hashes < 1:
            raise ValueError("filter dimensions must be positive")
        self._counters = [0] * self.n_counters
        self._insertions = 0
        rng = np.random.default_rng(self.seed)
        # Odd multipliers give full-period multiplicative hashes.
        multipliers = rng.integers(1, 2**31, size=self.n_hashes) * 2 + 1
        offsets = rng.integers(0, 2**31, size=self.n_hashes)
        self._hashes = tuple(zip(multipliers.tolist(), offsets.tolist()))
        self._index_memo: Dict[int, Tuple[int, ...]] = {}

    def _indices(self, key: int) -> Tuple[int, ...]:
        """The distinct counters ``key`` hashes to, memoized per key.

        Keys are row addresses, far below 2**31, so Python's exact
        integers give the same indices the int64 hash did.  A counter
        hit by two of a key's hashes appears once: each insert bumps it
        once (716 of 131072 rows collide under seed 0).
        """
        indices = self._index_memo.get(key)
        if indices is None:
            n = self.n_counters
            indices = tuple(dict.fromkeys(
                ((key * multiplier + offset) >> 7) % n
                for multiplier, offset in self._hashes
            ))
            self._index_memo[key] = indices
        return indices

    def insert(self, key: int) -> None:
        counters = self._counters
        for index in self._indices(key):
            counters[index] += 1
        self._insertions += 1

    def estimate(self, key: int) -> int:
        """Count estimate: never below the true insertion count."""
        return min(map(self._counters.__getitem__, self._indices(key)))

    def clear(self) -> None:
        self._counters = [0] * self.n_counters
        self._insertions = 0

    @property
    def total_insertions(self) -> int:
        """Keys inserted since the last :meth:`clear`.

        Counted explicitly: a key whose hashes collide bumps fewer than
        ``n_hashes`` counters, so the counter sum undercounts it.
        """
        return self._insertions


@dataclass
class DualCountingBloomFilter:
    """BlockHammer's epoch-rotating filter pair.

    Both filters receive every insert; queries read the *older* filter,
    which always holds at least one full epoch of history, so a row's
    count is never underestimated right after an epoch boundary.  At
    each boundary the older filter is cleared and the roles swap.
    """

    n_counters: int = 1024
    n_hashes: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        self._filters = [
            CountingBloomFilter(self.n_counters, self.n_hashes, self.seed),
            CountingBloomFilter(self.n_counters, self.n_hashes, self.seed + 1),
        ]
        self._older = 0

    def insert(self, key: int) -> None:
        for filt in self._filters:
            filt.insert(key)

    def estimate(self, key: int) -> int:
        return self._filters[self._older].estimate(key)

    def rotate(self) -> None:
        """Epoch boundary: retire the older filter's history."""
        self._filters[self._older].clear()
        self._older = 1 - self._older
