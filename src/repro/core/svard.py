"""The Svärd mechanism (Section 6).

On every row activation the memory controller (or the DRAM chip)
queries Svärd with the activated row address; Svärd returns the
``HC_first`` threshold of the *potential victim rows* -- conservative
for weak rows, relaxed for strong ones.  The deployed read-disturbance
defense uses that threshold instead of the module-wide worst case.

Svärd keeps each row's 4-bit bin id in a :class:`BinStore` whose
``location`` picks one of Section 6.2's implementation options; the
lookup is the same for both:

* ``"mc-table"`` -- an SRAM table in the memory controller with one
  4-bit entry per DRAM row; the lookup hides under the activation.
* ``"in-dram"`` -- four extra bits per DRAM row stored with the
  data-integrity metadata, fetched in parallel with the activation
  (zero added latency) and co-refreshed by the defense's preventive
  actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.binning import VulnerabilityBins
from repro.core.profile import VulnerabilityProfile


#: Section 6.2's metadata locations, in the order the paper lists them.
STORAGE_LOCATIONS = ("mc-table", "in-dram")


@dataclass
class BinStore:
    """Per-row bin ids, held in the memory controller or in DRAM.

    ``"mc-table"`` lookups hide under the row activation (the Section
    6.4 CACTI estimate is 0.47 ns against a ~14 ns tRCD).  ``"in-dram"``
    ids arrive with the first read of the activated row, so they add
    no latency; the bits live in the disturbed row itself, so the
    defense's preventive refreshes must cover them (``co_refreshed``).

    A bank outside the profile folds onto the profiled banks by index.
    """

    bins_per_bank: Dict[int, np.ndarray]
    location: str = "mc-table"
    _by_index: List[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.location not in STORAGE_LOCATIONS:
            raise ValueError(f"unknown storage option {self.location!r}")
        self._by_index = [
            self.bins_per_bank[bank] for bank in sorted(self.bins_per_bank)
        ]

    @property
    def co_refreshed(self) -> bool:
        return self.location == "in-dram"

    def bin_id(self, bank: int, row: int) -> int:
        """The stored 4-bit bin id of one row."""
        table = self.bins_per_bank.get(bank)
        if table is None:
            table = self._by_index[bank % len(self._by_index)]
        return int(table[row % len(table)])

    def storage_bits(self) -> int:
        """Total metadata bits held by this store."""
        return 4 * sum(len(t) for t in self.bins_per_bank.values())


@dataclass
class Svard:
    """Svärd: per-row threshold provider for read-disturbance defenses."""

    profile: VulnerabilityProfile
    bins: VulnerabilityBins
    store: BinStore

    @classmethod
    def build(
        cls,
        profile: VulnerabilityProfile,
        *,
        n_bins: int = 16,
        storage: str = "mc-table",
    ) -> "Svard":
        """Classify a profile into bins and populate a metadata store.

        ``storage`` selects Section 6.2's implementation option:
        ``"mc-table"`` or ``"in-dram"``.
        """
        all_values = np.concatenate(
            [profile.values(bank) for bank in profile.banks]
        )
        bins = VulnerabilityBins.from_values(all_values, n_bins)
        bins_per_bank = {
            bank: bins.bin_ids(profile.values(bank)) for bank in profile.banks
        }
        store = BinStore(bins_per_bank=bins_per_bank, location=storage)
        return cls(profile=profile, bins=bins, store=store)

    # ------------------------------------------------------------------

    def threshold_for(self, bank: int, row: int) -> float:
        """The HC_first threshold Svärd reports for one (victim) row."""
        return self.bins.threshold_of(self.store.bin_id(bank, row))

    def aggressiveness_scale(self, bank: int, row: int) -> float:
        """How much less aggressive a defense can be for this row.

        1.0 for rows in the weakest bin; larger for stronger rows.
        """
        return self.threshold_for(bank, row) / self.profile.worst_case

    def worst_case_threshold(self) -> float:
        return float(self.bins.threshold_of(0))

    # ------------------------------------------------------------------
    # Security (Section 6.3)
    # ------------------------------------------------------------------

    def verify_security_invariant(self) -> bool:
        """No row's reported threshold exceeds its actual HC_first.

        This is the property that makes Svärd security-preserving: a
        defense configured with Svärd's threshold acts at least as
        early as the row's own vulnerability requires.
        """
        for bank in self.profile.banks:
            values = self.profile.values(bank)
            thresholds = self.bins.thresholds(values)
            if np.any(thresholds > values):
                return False
        return True

    def overprotection_factor(self) -> float:
        """Mean factor by which the no-Svärd configuration overprotects.

        Without Svärd every row is treated as the worst-case row;
        this reports ``mean(HC_first / worst_case)`` -- the headroom
        Svärd converts into fewer preventive actions.
        """
        total, count = 0.0, 0
        worst = self.profile.worst_case
        for bank in self.profile.banks:
            values = self.profile.values(bank)
            total += float(np.sum(values / worst))
            count += len(values)
        return total / count
