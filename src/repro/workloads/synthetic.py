"""Parameterized synthetic memory-request traces.

A :class:`SyntheticTrace` emits one core's post-LLC miss stream.  Each
chain (one per outstanding-miss slot) keeps a current open row; with
probability ``row_locality`` the next request hits the same row at the
next column, otherwise it jumps to a new (bank, row) drawn from a
Zipf-weighted working set.  The Zipf exponent controls how hard the
workload hammers its hottest rows -- the property RowHammer defenses
key on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.sim.engine import TraceStep

_BATCH = 4096

#: ``TraceStep`` from one tuple of its fields.  A NamedTuple's own
#: ``__new__`` is a Python function; ``tuple.__new__`` builds the same
#: record without a Python-level call, once per simulated request.
_make_step = partial(tuple.__new__, TraceStep)


@dataclass(frozen=True)
class SuiteProfile:
    """Memory-behaviour knobs of one benchmark-suite class."""

    name: str
    row_locality: float
    zipf_exponent: float
    working_set_rows: int
    banks_used: int
    write_ratio: float
    gap_mean_ns: float

    def __post_init__(self) -> None:
        if not 0 <= self.row_locality < 1:
            raise ValueError("row_locality must be in [0, 1)")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be non-negative")
        if self.working_set_rows < 1 or self.banks_used < 1:
            raise ValueError("working set and bank count must be positive")
        if not 0 <= self.write_ratio <= 1:
            raise ValueError("write_ratio must be a probability")
        if self.gap_mean_ns < 0:
            raise ValueError("gap_mean_ns must be non-negative")


class SyntheticTrace:
    """One core's request stream (implements the engine Trace protocol)."""

    def __init__(
        self,
        profile: SuiteProfile,
        *,
        total_banks: int = 32,
        rows_per_bank: int = 128 * 1024,
        columns_per_row: int = 128,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.total_banks = total_banks
        self.rows_per_bank = rows_per_bank
        self.columns_per_row = columns_per_row
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 0x770]))

        n = min(profile.working_set_rows, rows_per_bank)
        rows = self._rng.choice(rows_per_bank, size=n, replace=False)
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** profile.zipf_exponent
        self._probs = weights / weights.sum()
        banks = self._rng.choice(
            total_banks, size=min(profile.banks_used, total_banks), replace=False
        )
        # Each working-set row lives in one fixed bank (as a physical
        # page does); hot rows therefore concentrate activations on one
        # (bank, row) pair -- the behaviour activation-count defenses
        # react to.  Both tables are read once per request, so they
        # are kept as lists of Python ints.
        self._rows = rows.tolist()
        self._bank_of_row = banks[
            self._rng.integers(0, len(banks), size=n)
        ].tolist()
        self._chain_state: Dict[int, Tuple[int, int, int]] = {}
        self._row_batch = np.empty(0, dtype=np.int64)
        self._row_local: List[bool] = []
        self._is_write: List[bool] = []
        self._gap_batch = np.empty(0)
        # Exhausted: the first draw refills.
        self._batch_pos = _BATCH

    # ------------------------------------------------------------------

    def _refill(self) -> None:
        # Draw order is part of every golden: rows, then the
        # (locality, bank, write) uniforms, then the gaps.  The two
        # uniforms next_step tests are compared once per batch into
        # bool lists (a list index is cheaper than ``ndarray.item``);
        # the float batches stay arrays, read with ``ndarray.item``,
        # since a whole-batch ``tolist()`` of them costs more memory
        # than it saves time.
        profile = self.profile
        self._row_batch = self._rng.choice(
            len(self._rows), size=_BATCH, p=self._probs
        )
        uniform = self._rng.random((_BATCH, 3))
        self._row_local = (uniform[:, 0] < profile.row_locality).tolist()
        self._is_write = (uniform[:, 2] < profile.write_ratio).tolist()
        self._gap_batch = self._rng.exponential(
            max(profile.gap_mean_ns, 1e-9), size=_BATCH
        )
        self._batch_pos = 0

    def next_step(self, chain: int) -> TraceStep:
        i = self._batch_pos
        if i >= _BATCH:
            self._refill()
            i = 0
        self._batch_pos = i + 1
        state = self._chain_state.get(chain)
        if state is not None and self._row_local[i]:
            bank, row, column = state
            column = (column + 1) % self.columns_per_row
        else:
            row_index = self._row_batch.item(i)
            bank = self._bank_of_row[row_index]
            row = self._rows[row_index]
            column = 0
        self._chain_state[chain] = (bank, row, column)
        return _make_step(
            (bank, row, column, self._is_write[i], self._gap_batch.item(i))
        )
