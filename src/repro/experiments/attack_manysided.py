"""Many-sided (N-aggressor) hammering versus the preventive defenses.

The ROADMAP's "richer attack patterns" item: round-robin N-sided
RowHammer (TRRespass-style) against the probabilistic and
tracking-based defenses at a worst-case HC_first of 64.  Spreading the
same activation rate over more aggressor rows dilutes per-row
activation counts, which is precisely the regime where sampling
defenses (PARA) keep paying per-activation while trackers
(BlockHammer) relax -- and where Svärd's per-row thresholds shift the
balance.  Reported like Fig 13: slowdown versus the no-defense
baseline, normalized to No Svärd per (defense, N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.api import ResultSet, register
from repro.experiments.common import ExperimentScale
from repro.experiments.fig13_adversarial import (
    HC_FIRST,
    SlowdownExperiment,
    slowdown_result_set,
)
from repro.orchestration import OrchestrationContext
from repro.sim.config import SystemConfig
from repro.workloads.adversarial import ManySidedHammerTrace

#: The aggressor-count sweep: double-sided, the common many-sided
#: escalation, and a cache/tracker-straining wide rotation.
N_SIDES_SWEEP = (2, 8, 32)


@dataclass
class ManySidedResult:
    #: (defense, n_sides, configuration) -> slowdown normalized to
    #: No Svärd at the same (defense, n_sides).
    normalized_slowdown: Dict[Tuple[str, int, str], float]
    #: (defense, n_sides, configuration) -> raw slowdown vs no-defense.
    raw_slowdown: Dict[Tuple[str, int, str], float]

    def render(self) -> str:
        return result_set(self).render_text()


def result_set(result: ManySidedResult) -> ResultSet:
    return slowdown_result_set(
        "attack-manysided",
        f"Many-sided hammering at HC_first = {HC_FIRST}: "
        "N-aggressor rotation vs preventive defenses",
        ("defense", "n_sides", "config"),
        ("defense", "N", "config"),
        result.normalized_slowdown,
        result.raw_slowdown,
        x="n_sides",
    )


@dataclass(frozen=True)
class ManySidedPattern:
    """Round-robin ``n_sides``-aggressor hammering, one set per core."""

    n_sides: int

    def build_traces(self, config: SystemConfig) -> List:
        # One aggressor set per core, in separate banks, phased within
        # the rotation so simultaneous cores do not ride each other's
        # row buffer; stride 2 is the generalized double-sided sandwich.
        return [
            ManySidedHammerTrace(
                n_sides=self.n_sides,
                base_row=(1000 + 4096 * core) % config.rows_per_bank,
                bank=core % config.total_banks,
                rows_per_bank=config.rows_per_bank,
                start_offset=core * 3,
            )
            for core in range(config.cores)
        ]

    def defense_knobs(self) -> Dict[str, int]:
        return {}


@register
class ManySidedExperiment(SlowdownExperiment):
    name = "attack-manysided"
    description = "Many-sided (N-aggressor) hammering vs PARA/BlockHammer"
    paper_ref = "Sec. 7.3 (extended)"

    DEFENSE_NAMES = ("PARA", "BlockHammer")
    MIN_REQUESTS_PER_CORE = 6_000
    result_type = ManySidedResult

    quick_overrides = {"requests_per_core": 3000}

    def cells(self):
        return [
            ((defense_name, n_sides), ManySidedPattern(n_sides))
            for defense_name in self.DEFENSE_NAMES
            for n_sides in N_SIDES_SWEEP
        ]

    def result_set(self, result):
        return result_set(result)


def run(
    scale: ExperimentScale = ExperimentScale(),
    *,
    system_config: Optional[SystemConfig] = None,
    orchestration: Optional[OrchestrationContext] = None,
) -> ManySidedResult:
    return ManySidedExperiment(system_config=system_config).run(
        scale, orchestration
    )
