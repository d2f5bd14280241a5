"""Read-disturbance defenses (the paper's five comparison points).

All five state-of-the-art solutions evaluated in Section 7 are
implemented against a common interface (:mod:`repro.defenses.base`):

* :mod:`repro.defenses.para` -- PARA (Kim+, ISCA'14): probabilistic
  adjacent-row refresh.
* :mod:`repro.defenses.blockhammer` -- BlockHammer (Yaglikci+,
  HPCA'21): counting-Bloom-filter blacklisting plus throttling.
* :mod:`repro.defenses.hydra` -- Hydra (Qureshi+, ISCA'22): hybrid
  group counters + per-row counters in DRAM with a counter cache.
* :mod:`repro.defenses.aqua` -- AQUA (Saxena+, MICRO'22): quarantining
  aggressor rows by migration.
* :mod:`repro.defenses.rrs` -- Randomized Row-Swap (Saileshwar+,
  ASPLOS'22): periodically swapping hot rows to random locations.

:func:`make_defense` builds any of them by name for a simulated system,
so every defense's epoch agrees with the engine's reset cadence.

Each defense consults a *threshold provider* for the ``HC_first`` of
the potential victim rows of every activation.  The provider is either
the module-wide worst case (the paper's "No Svärd" configuration) or
:class:`repro.defenses.base.SvardThresholds` wrapping a built
:class:`repro.core.Svard` instance.
"""

from typing import Optional

from repro.defenses.base import (
    CounterTraffic,
    Defense,
    GlobalThreshold,
    Mitigation,
    RowMigration,
    RowSwap,
    SvardThresholds,
    ThresholdProvider,
    ThrottleDelay,
    VictimRefresh,
)
from repro.defenses.bloom import CountingBloomFilter, DualCountingBloomFilter
from repro.defenses.para import Para
from repro.defenses.blockhammer import BlockHammer
from repro.defenses.hydra import Hydra
from repro.defenses.aqua import Aqua
from repro.defenses.rrs import RandomizedRowSwap

DEFENSE_CLASSES = {
    "AQUA": Aqua,
    "BlockHammer": BlockHammer,
    "Hydra": Hydra,
    "PARA": Para,
    "RRS": RandomizedRowSwap,
}


def make_defense(
    name: str,
    hc_first: float,
    config,
    *,
    thresholds: Optional[ThresholdProvider] = None,
    seed: int = 0,
    **extra,
) -> Defense:
    """Build the defense ``name`` for a simulation of ``config``.

    ``config`` is the :class:`~repro.sim.config.SystemConfig` the
    defense runs under.  BlockHammer's epoch is the engine's defense
    epoch (``defense_epoch_ns``, else tREFW), so its blacklist and
    throttle windows reset when the engine resets them.  ``extra``
    passes defense-specific knobs through (e.g. Hydra's
    ``rcc_entries``).
    """
    kwargs = dict(rows_per_bank=config.rows_per_bank, seed=seed, **extra)
    if thresholds is not None:
        kwargs["thresholds"] = thresholds
    if name == "BlockHammer":
        kwargs["epoch_ns"] = config.defense_epoch_ns or config.timing.tREFW
    return DEFENSE_CLASSES[name](hc_first, **kwargs)


__all__ = [
    "Defense",
    "Mitigation",
    "VictimRefresh",
    "ThrottleDelay",
    "RowMigration",
    "RowSwap",
    "CounterTraffic",
    "ThresholdProvider",
    "GlobalThreshold",
    "SvardThresholds",
    "CountingBloomFilter",
    "DualCountingBloomFilter",
    "Para",
    "BlockHammer",
    "Hydra",
    "Aqua",
    "RandomizedRowSwap",
    "DEFENSE_CLASSES",
    "make_defense",
]
