"""Fig 13: Hydra and RRS under adversarial access patterns.

At a worst-case HC_first of 64, the paper measures the slowdown of
Hydra under a counter-cache-thrashing pattern and of RRS under a
single-row hammer, for No Svärd and the three Svärd profiles,
normalized to No Svärd.  Svärd reduces both (Obsv 16), most with the
Mfr. S profile (Obsv 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.defenses import make_defense
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
    svard_configurations,
    svard_thresholds,
)
from repro.orchestration import (
    OrchestrationContext,
    Task,
    TaskGroup,
    make_task,
)
from repro.sim.config import SystemConfig
from repro.sim.engine import MemorySystem
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


#: Scaled-down row-count-cache capacity for the adversarial study:
#: the trace's working set must exceed it (see EXPERIMENTS.md).
HYDRA_RCC_ENTRIES = 512


def _adversarial_traces(defense_name: str, config: SystemConfig) -> List:
    if defense_name == "Hydra":
        # The attacker revisits each row often enough that its group
        # escalates to exact tracking even under Svärd's relaxed
        # thresholds -- Hydra's counter traffic is then threshold-
        # independent, which is the attack's point.
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


def _baseline_task(task: Task) -> List[float]:
    """No-defense finish times under one adversarial pattern."""
    defense_name, config = task.params
    return MemorySystem(
        config, _adversarial_traces(defense_name, config)
    ).run().finish_times()


def _attack_task(task: Task) -> List[float]:
    """Finish times of one (defense, Svärd configuration) under attack."""
    defense_name, configuration, scale, config = task.params
    thresholds = svard_thresholds(configuration, HC_FIRST, scale)
    extra = (
        {"rcc_entries": HYDRA_RCC_ENTRIES} if defense_name == "Hydra" else {}
    )
    defense = make_defense(
        defense_name, HC_FIRST, config,
        thresholds=thresholds, seed=scale.seed, **extra,
    )
    return MemorySystem(
        config, _adversarial_traces(defense_name, config), defense=defense
    ).run().finish_times()


@register
class Fig13Experiment(Experiment):
    name = "fig13"
    description = "Hydra and RRS under adversarial access patterns"
    paper_ref = "Fig. 13"

    DEFENSE_NAMES = ("Hydra", "RRS")

    def __init__(self, system_config: Optional[SystemConfig] = None) -> None:
        self.system_config = system_config

    def _config(self, scale: ExperimentScale) -> SystemConfig:
        return self.system_config or scale.system_config(
            requests_per_core=max(scale.requests_per_core, 12_000),
            defense_epoch_ns=1_000_000.0,
        )

    def build_tasks(self, scale, orch):
        config = self._config(scale)
        tasks = [
            make_task(
                ("fig13", "baseline", defense_name),
                _baseline_task,
                (defense_name, config),
                base_seed=scale.seed,
            )
            for defense_name in self.DEFENSE_NAMES
        ]
        tasks += [
            make_task(
                ("fig13", "attack", defense_name, configuration),
                _attack_task,
                (defense_name, configuration, scale, config),
                base_seed=scale.seed,
            )
            for defense_name in self.DEFENSE_NAMES
            for configuration in svard_configurations(scale)
        ]
        return [TaskGroup(tasks=tuple(tasks), fingerprint=("fig13", scale, config))]

    def reduce(self, scale, outputs):
        configurations = svard_configurations(scale)
        raw: Dict[Tuple[str, str], float] = {}
        normalized: Dict[Tuple[str, str], float] = {}
        for defense_name in self.DEFENSE_NAMES:
            base_times = np.array(outputs[("fig13", "baseline", defense_name)])
            for configuration in configurations:
                times = outputs[("fig13", "attack", defense_name, configuration)]
                raw[(defense_name, configuration)] = float(
                    np.mean(np.array(times) / base_times)
                )
            reference = raw[(defense_name, NO_SVARD)]
            for configuration in configurations:
                normalized[(defense_name, configuration)] = (
                    raw[(defense_name, configuration)] / reference
                )
        return Fig13Result(normalized_slowdown=normalized, raw_slowdown=raw)

    def result_set(self, result):
        return result_set(result)


def run(
    scale: ExperimentScale = ExperimentScale(),
    *,
    system_config: Optional[SystemConfig] = None,
    orchestration: Optional[OrchestrationContext] = None,
) -> Fig13Result:
    return Fig13Experiment(system_config=system_config).run(scale, orchestration)
