"""Svärd: the paper's primary contribution (Section 6).

Svärd stores a small per-row vulnerability classification (a 4-bit bin
id) and, on every row activation, hands the deployed read-disturbance
defense a threshold that matches the activated row's actual
vulnerability instead of the module-wide worst case.

* :mod:`repro.core.profile` -- per-row ``HC_first`` profiles, built
  from characterization results or ground truth, with the worst-case
  scaling of Section 7.1.
* :mod:`repro.core.binning` -- clustering rows into <= 16
  vulnerability bins with security-preserving (lower-bound) thresholds.
* :mod:`repro.core.svard` -- the mechanism itself, with the memory-
  controller table and in-DRAM metadata storage options of Section 6.2.
* :mod:`repro.core.area_model` -- the Section 6.4 hardware-cost model.
"""

from repro.core.profile import VulnerabilityProfile
from repro.core.binning import VulnerabilityBins
from repro.core.svard import STORAGE_LOCATIONS, BinStore, Svard
from repro.core.area_model import (
    SvardAreaModel,
    mc_table_area_mm2,
    mc_table_access_latency_ns,
    in_dram_overhead_fraction,
)

__all__ = [
    "VulnerabilityProfile",
    "VulnerabilityBins",
    "Svard",
    "BinStore",
    "STORAGE_LOCATIONS",
    "SvardAreaModel",
    "mc_table_area_mm2",
    "mc_table_access_latency_ns",
    "in_dram_overhead_fraction",
]
