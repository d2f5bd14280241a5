"""Fig 13: Hydra and RRS under adversarial access patterns.

At a worst-case HC_first of 64, the paper measures the slowdown of
Hydra under a counter-cache-thrashing pattern and of RRS under a
single-row hammer, for No Svärd and the three Svärd profiles,
normalized to No Svärd.  Svärd reduces both (Obsv 16), most with the
Mfr. S profile (Obsv 17).
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import astuple, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.api import (
    Experiment,
    PlotSpec,
    ResultSet,
    ResultTable,
    TableBlock,
    TextBlock,
    register,
)
from repro.experiments.common import (
    NO_SVARD,
    ExperimentScale,
    make_simulation_task,
    performance_config,
    svard_configurations,
)
from repro.orchestration import OrchestrationContext, TaskGroup
from repro.sim.config import SystemConfig
from repro.workloads.adversarial import HydraAdversarialTrace, RrsAdversarialTrace

HC_FIRST = 64


@dataclass
class Fig13Result:
    #: (defense, configuration) -> slowdown normalized to No Svärd.
    normalized_slowdown: Dict[Tuple[str, str], float]
    #: (defense, configuration) -> raw slowdown vs no-defense baseline.
    raw_slowdown: Dict[Tuple[str, str], float]

    def render(self) -> str:
        return result_set(self).render_text()


def slowdown_result_set(
    experiment: str,
    title: str,
    key_headers: Tuple[str, ...],
    key_labels: Tuple[str, ...],
    normalized: Dict[tuple, float],
    raw: Dict[tuple, float],
    x: str,
) -> ResultSet:
    """A slowdown table keyed by ``key_headers``, ending in the config.

    Shared with attack-manysided.  ``raw`` is the slowdown against the
    no-defense baseline and ``normalized`` the same normalized to No
    Svärd; ``key_labels`` head the text table's key columns and ``x``
    is the bar chart's x axis.
    """
    data_rows = [
        (*key, raw[key], value) for key, value in sorted(normalized.items())
    ]
    return ResultSet(
        experiment=experiment,
        title=title,
        scalars={"hc_first": HC_FIRST},
        tables=(
            ResultTable(
                name="slowdown",
                headers=key_headers + ("raw_slowdown", "normalized_slowdown"),
                rows=data_rows,
            ),
        ),
        layout=(
            TextBlock(title + "\n\n"),
            TableBlock(
                headers=key_labels + ("slowdown", "norm. to No Svärd"),
                rows=[
                    tuple(str(part) for part in key)
                    + (f"{slowdown:.2f}", f"{normalized_slowdown:.3f}")
                    for *key, slowdown, normalized_slowdown in data_rows
                ],
            ),
        ),
        plots=(
            PlotSpec(
                name="slowdown",
                kind="bar",
                table="slowdown",
                x=x,
                y=("normalized_slowdown",),
                series="config",
                title=title,
                ylabel="slowdown normalized to No Svärd",
            ),
        ),
    )


def result_set(result: Fig13Result) -> ResultSet:
    return slowdown_result_set(
        "fig13",
        f"Fig 13: adversarial access patterns at HC_first = {HC_FIRST}",
        ("defense", "config"),
        ("defense", "config"),
        result.normalized_slowdown,
        result.raw_slowdown,
        x="defense",
    )


class SlowdownExperiment(Experiment):
    """Slowdown of defended runs under attack patterns, at HC_FIRST.

    Shared by fig13 and attack-manysided.  A subclass lists its
    ``cells``: a cell is ``(defense, *sweep point)`` plus the attack
    pattern it runs.  Each pattern runs once without a defense (a
    pattern's fields name its baseline task), each cell once per Svärd
    configuration; the mean ratio of finish times to the baseline is
    the raw slowdown, then normalized to the cell's No Svärd run.
    """

    #: Floor on requests per core: the attack needs a slice long
    #: enough for its rows to reach the defense's thresholds.
    MIN_REQUESTS_PER_CORE = 0
    #: The rich result type, built from ``normalized_slowdown`` and
    #: ``raw_slowdown``.
    result_type: type

    def __init__(self, system_config: Optional[SystemConfig] = None) -> None:
        self.system_config = system_config

    @abstractmethod
    def cells(self) -> Sequence[Tuple[tuple, object]]:
        """``(cell, pattern)`` pairs, in task order."""

    def _config(self, scale: ExperimentScale) -> SystemConfig:
        return performance_config(
            scale, self.system_config,
            min_requests_per_core=self.MIN_REQUESTS_PER_CORE,
        )

    def build_tasks(self, scale, orch):
        config = self._config(scale)
        cells = self.cells()
        patterns = dict.fromkeys(pattern for _, pattern in cells)
        tasks = [
            make_simulation_task(
                (self.name, "baseline", *astuple(pattern)),
                pattern, None, NO_SVARD, HC_FIRST, scale, config,
            )
            for pattern in patterns
        ]
        tasks += [
            make_simulation_task(
                (self.name, "attack", *cell, configuration),
                pattern, cell[0], configuration, HC_FIRST, scale, config,
            )
            for cell, pattern in cells
            for configuration in svard_configurations(scale)
        ]
        return [TaskGroup(
            tasks=tuple(tasks), fingerprint=(self.name, scale, config),
        )]

    def reduce(self, scale, outputs):
        configurations = svard_configurations(scale)
        raw: Dict[tuple, float] = {}
        normalized: Dict[tuple, float] = {}
        for cell, pattern in self.cells():
            base_times = np.array(
                outputs[(self.name, "baseline", *astuple(pattern))]
            )
            for configuration in configurations:
                times = outputs[(self.name, "attack", *cell, configuration)]
                raw[(*cell, configuration)] = float(
                    np.mean(np.array(times) / base_times)
                )
            reference = raw[(*cell, NO_SVARD)]
            for configuration in configurations:
                normalized[(*cell, configuration)] = (
                    raw[(*cell, configuration)] / reference
                )
        return self.result_type(normalized_slowdown=normalized, raw_slowdown=raw)


#: Scaled-down row-count-cache capacity for the adversarial study:
#: the trace's working set must exceed it (see EXPERIMENTS.md).
HYDRA_RCC_ENTRIES = 512


@dataclass(frozen=True)
class AdversarialPattern:
    """Fig 13's attack on one defense: Hydra's counter-cache thrash or
    RRS's single-row hammer, one trace per core."""

    defense: str

    def build_traces(self, config: SystemConfig) -> List:
        if self.defense == "Hydra":
            # The attacker revisits each row often enough that its
            # group escalates to exact tracking even under Svärd's
            # relaxed thresholds -- Hydra's counter traffic is then
            # threshold-independent, which is the attack's point.
            return [
                HydraAdversarialTrace(
                    n_rows=640,
                    bank_stride=config.total_banks,
                    rows_per_bank=config.rows_per_bank,
                    start_offset=core * 80,
                )
                for core in range(config.cores)
            ]
        return [
            RrsAdversarialTrace(
                target_row=997 * (core + 1) % config.rows_per_bank,
                scratch_row=(997 * (core + 1) + 64) % config.rows_per_bank,
                bank=core % config.total_banks,
            )
            for core in range(config.cores)
        ]

    def defense_knobs(self) -> Dict[str, int]:
        # The thrash is sized against a row-count cache this small.
        if self.defense == "Hydra":
            return {"rcc_entries": HYDRA_RCC_ENTRIES}
        return {}


@register
class Fig13Experiment(SlowdownExperiment):
    name = "fig13"
    description = "Hydra and RRS under adversarial access patterns"
    paper_ref = "Fig. 13"

    DEFENSE_NAMES = ("Hydra", "RRS")
    MIN_REQUESTS_PER_CORE = 12_000
    result_type = Fig13Result

    def cells(self):
        return [
            ((defense_name,), AdversarialPattern(defense_name))
            for defense_name in self.DEFENSE_NAMES
        ]

    def result_set(self, result):
        return result_set(result)


def run(
    scale: ExperimentScale = ExperimentScale(),
    *,
    system_config: Optional[SystemConfig] = None,
    orchestration: Optional[OrchestrationContext] = None,
) -> Fig13Result:
    return Fig13Experiment(system_config=system_config).run(scale, orchestration)
