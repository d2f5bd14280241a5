"""Common defense interface and preventive-action vocabulary.

A defense observes every row activation (``on_activation``) and
returns zero or more *mitigations* -- preventive actions the memory
controller must carry out (refresh victims, delay the aggressor,
migrate or swap rows, or move counter state between the controller
and DRAM).  The performance simulator charges each mitigation's DRAM
cost; the security tests verify that the mitigations fire early
enough.

Thresholds come from a :class:`ThresholdProvider`: either the global
worst case (No Svärd) or per-row values from a built Svärd instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.svard import Svard


# ---------------------------------------------------------------------------
# Threshold providers
# ---------------------------------------------------------------------------


class ThresholdProvider(Protocol):
    """Supplies the HC_first threshold of a potential victim row."""

    def threshold(self, bank: int, row: int) -> float: ...


@dataclass(frozen=True)
class GlobalThreshold:
    """The conventional configuration: every row is the weakest row."""

    value: float

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError("threshold must be positive")

    def threshold(self, bank: int, row: int) -> float:
        return self.value


@dataclass(frozen=True)
class SvardThresholds:
    """Per-row thresholds from a built Svärd instance (Section 6.1)."""

    svard: Svard

    def threshold(self, bank: int, row: int) -> float:
        return self.svard.threshold_for(bank, row)


# ---------------------------------------------------------------------------
# Mitigations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mitigation:
    """Base class for preventive actions."""


@dataclass(frozen=True)
class VictimRefresh(Mitigation):
    """Refresh (activate/precharge) the given victim rows."""

    bank: int
    rows: Tuple[int, ...]


@dataclass(frozen=True)
class ThrottleDelay(Mitigation):
    """Delay the triggering activation by ``delay_ns`` (BlockHammer)."""

    delay_ns: float


@dataclass(frozen=True)
class RowMigration(Mitigation):
    """Copy a row's content to another row (AQUA quarantine)."""

    bank: int
    src_row: int
    dst_row: int


@dataclass(frozen=True)
class RowSwap(Mitigation):
    """Exchange the contents of two rows (RRS)."""

    bank: int
    row_a: int
    row_b: int


@dataclass(frozen=True)
class CounterTraffic(Mitigation):
    """Off-chip counter reads/writes (Hydra's dominant overhead)."""

    bank: int
    reads: int = 0
    writes: int = 0


# ---------------------------------------------------------------------------
# Defense base class
# ---------------------------------------------------------------------------


class Defense(ABC):
    """A read-disturbance solution observing row activations.

    Subclasses implement :meth:`on_activation`; the base class owns
    the threshold provider and the victim-row geometry (blast radius
    1: rows at +/-1 of the aggressor).
    """

    name: str = "defense"

    def __init__(
        self,
        hc_first: float,
        *,
        thresholds: Optional[ThresholdProvider] = None,
        rows_per_bank: int = 128 * 1024,
        seed: int = 0,
    ) -> None:
        if hc_first <= 0:
            raise ValueError("hc_first must be positive")
        self.hc_first = float(hc_first)
        self.thresholds: ThresholdProvider = (
            thresholds if thresholds is not None else GlobalThreshold(hc_first)
        )
        self.rows_per_bank = rows_per_bank
        self.seed = seed
        self.stats = DefenseStats()
        self._victim_thresholds: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------

    @abstractmethod
    def on_activation(self, bank: int, row: int, now_ns: float) -> List[Mitigation]:
        """Observe one ACT; return the preventive actions to perform."""

    def on_refresh_window(self, now_ns: float) -> None:
        """Called once per refresh window (tREFW): reset epoch state."""

    # ------------------------------------------------------------------

    def victim_rows(self, row: int) -> Tuple[int, ...]:
        """Rows an activation of ``row`` can disturb (blast radius 1)."""
        victims = []
        if row - 1 >= 0:
            victims.append(row - 1)
        if row + 1 < self.rows_per_bank:
            victims.append(row + 1)
        return tuple(victims)

    def min_victim_threshold(self, bank: int, row: int) -> float:
        """The binding threshold of one activation: its weakest victim.

        Memoized per ``(bank, row)`` on first use: thresholds are
        static for a whole simulation, and a defense asks on every
        ACT.  The memo fills lazily because an eager per-row table
        would cost a full bank's worth of lookups (128K rows at the
        paper's geometry) for the few hundred rows a run activates.
        """
        key = (bank, row)
        threshold = self._victim_thresholds.get(key)
        if threshold is None:
            victims = self.victim_rows(row)
            if not victims:
                threshold = self.hc_first
            else:
                threshold = min(
                    self.thresholds.threshold(bank, v) for v in victims
                )
            self._victim_thresholds[key] = threshold
        return threshold


@dataclass
class DefenseStats:
    """Counters shared by all defenses (consumed by the simulator)."""

    activations_observed: int = 0
    victim_refreshes: int = 0
    throttle_events: int = 0
    throttle_delay_ns: float = 0.0
    migrations: int = 0
    swaps: int = 0
    counter_reads: int = 0
    counter_writes: int = 0

    def record(self, mitigations: Sequence[Mitigation]) -> None:
        for mitigation in mitigations:
            if isinstance(mitigation, VictimRefresh):
                self.victim_refreshes += len(mitigation.rows)
            elif isinstance(mitigation, ThrottleDelay):
                self.throttle_events += 1
                self.throttle_delay_ns += mitigation.delay_ns
            elif isinstance(mitigation, RowMigration):
                self.migrations += 1
            elif isinstance(mitigation, RowSwap):
                self.swaps += 1
            elif isinstance(mitigation, CounterTraffic):
                self.counter_reads += mitigation.reads
                self.counter_writes += mitigation.writes
            else:
                raise TypeError(
                    f"no counter for mitigation {type(mitigation).__name__}"
                )
