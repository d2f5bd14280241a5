"""The traced pass: the same cells, timed at each layer boundary.

The pass asks each experiment for its tasks (``build_tasks``) and
rebuilds every cell from the layers' public functions instead of
calling the task function, so that timing proxies can sit between the
layers:

* ``TracedTrace`` around each trace handed to ``MemorySystem``
  (``Trace.next_step``);
* ``TracedDefense`` around the defense (``on_activation`` and
  ``on_refresh_window``);
* ``TracedThresholds`` around the threshold provider handed to the
  defense as ``thresholds=`` (``GlobalThreshold`` or
  ``SvardThresholds``).

``CharacterizationRunner.characterize_bank`` and
``SubarrayReverseEngineer.infer`` are timed around the call.  Any other
task (Fig 10's aging study) runs through ``Task.execute`` untimed.
The outputs go through each experiment's ``reduce`` and are checked,
cell by cell, against the untraced pass: a rebuilt cell that drifts
from the program's own task function fails the run.

A proxy's time is the sum of its calls' durations.  Self times
subtract the nested layers: a defense's self time excludes its
threshold lookups, and the engine's self time is ``MemorySystem.run``
minus the trace, defense and threshold time spent inside it, so the
four self times add up to ``sim.run_s`` by construction.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.bender.infrastructure import TestPlatform
from repro.characterization.runner import CharacterizationRunner
from repro.core.svard import Svard
from repro.defenses import DEFENSE_CLASSES
from repro.defenses.base import GlobalThreshold, SvardThresholds
from repro.experiments.common import NO_SVARD, scaled_profile
from repro.experiments.fig12_performance import DEFENSE_EPOCH_NS
from repro.faults.modules import module_by_label
from repro.orchestration import serial_context
from repro.reveng.subarray import SubarrayReverseEngineer
from repro.sim.engine import MemorySystem
from repro.workloads.mixes import (
    build_alone_trace,
    build_traces,
    single_core_config,
)

from passes import cell_name, clear_memos, digest
from workloads import Workload

DEFENSE_NAMES = tuple(sorted(DEFENSE_CLASSES))


class Meter:
    """Seconds and calls accumulated at one layer boundary."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0


class TracedTrace:
    __slots__ = ("_inner", "_meter")

    def __init__(self, inner, meter: Meter) -> None:
        self._inner = inner
        self._meter = meter

    def next_step(self, chain: int):
        started = perf_counter()
        step = self._inner.next_step(chain)
        meter = self._meter
        meter.seconds += perf_counter() - started
        meter.calls += 1
        return step


class TracedThresholds:
    __slots__ = ("_inner", "_meter")

    def __init__(self, inner, meter: Meter) -> None:
        self._inner = inner
        self._meter = meter

    def threshold(self, bank: int, row: int) -> float:
        started = perf_counter()
        value = self._inner.threshold(bank, row)
        meter = self._meter
        meter.seconds += perf_counter() - started
        meter.calls += 1
        return value


class TracedDefense:
    """Times the two hooks; the engine calls nothing else on a defense."""

    def __init__(self, inner, meter: Meter) -> None:
        self.inner = inner
        self._meter = meter
        self.mitigations = 0

    def on_activation(self, bank: int, row: int, now_ns: float):
        started = perf_counter()
        mitigations = self.inner.on_activation(bank, row, now_ns)
        meter = self._meter
        meter.seconds += perf_counter() - started
        meter.calls += 1
        self.mitigations += len(mitigations)
        return mitigations

    def on_refresh_window(self, now_ns: float) -> None:
        started = perf_counter()
        self.inner.on_refresh_window(now_ns)
        self._meter.seconds += perf_counter() - started


class Spans:
    """Everything the traced pass measures, accumulated over cells."""

    def __init__(self) -> None:
        self.next_step = Meter()
        self.trace_build = Meter()
        self.sim_run = Meter()
        self.svard_build = Meter()
        self.defense = {name: Meter() for name in DEFENSE_NAMES}
        self.threshold = {name: Meter() for name in DEFENSE_NAMES}
        self.characterize_bank = Meter()
        self.infer = Meter()
        self.requests = 0
        self.activations = 0
        self.row_hits = 0
        self.row_misses = 0
        self.simulated_ns = 0.0
        self.refreshes = 0
        self.mitigations = 0
        self.defense_activations = 0
        self._providers: Dict[tuple, SvardThresholds] = {}

    # -- layer calls ---------------------------------------------------

    def _timed(self, meter: Meter, fn, *args):
        started = perf_counter()
        value = fn(*args)
        meter.seconds += perf_counter() - started
        meter.calls += 1
        return value

    def traces(self, build, *args) -> List[TracedTrace]:
        return [
            TracedTrace(trace, self.next_step)
            for trace in self._timed(self.trace_build, build, *args)
        ]

    def svard(self, configuration: str, hc: int, scale) -> SvardThresholds:
        label = configuration.removeprefix("Svärd-")
        return self._timed(
            self.svard_build,
            lambda: SvardThresholds(
                Svard.build(scaled_profile(label, hc, scale))
            ),
        )

    def shared_svard(self, configuration: str, hc: int, scale):
        """Fig 12's provider, built once per key like its setup hook."""
        key = (configuration, hc)
        if key not in self._providers:
            self._providers[key] = self.svard(configuration, hc, scale)
        return self._providers[key]

    def defense_for(self, name: str, hc: int, thresholds, **kwargs):
        inner = DEFENSE_CLASSES[name](
            hc,
            thresholds=TracedThresholds(thresholds, self.threshold[name]),
            **kwargs,
        )
        return TracedDefense(inner, self.defense[name])

    def simulate(self, config, traces, defense=None):
        system = MemorySystem(config, traces, defense=defense)
        result = self._timed(self.sim_run, system.run)
        self.requests += sum(core.completed_requests for core in result.cores)
        self.activations += result.activations
        self.row_hits += result.row_hits
        self.row_misses += result.row_misses
        self.simulated_ns += result.total_ns
        self.refreshes += result.refreshes_issued
        if defense is not None:
            self.mitigations += defense.mitigations
            self.defense_activations += defense.inner.stats.activations_observed
        return result

    # -- cells ---------------------------------------------------------

    def rebuild(self, task) -> Any:
        """The output ``task.execute()`` would return, rebuilt traced."""
        key = task.key
        if key[:2] == ("fig12", "baseline"):
            mix, config = task.params
            alone_config = single_core_config(config)
            alone = [
                self.simulate(
                    alone_config,
                    self.traces(build_alone_trace, mix, core, alone_config),
                ).cores[0].finish_ns
                for core in range(config.cores)
            ]
            shared = self.simulate(config, self.traces(build_traces, mix, config))
            return {"alone": alone, "shared": shared.finish_times()}
        if key[:2] == ("fig12", "sim"):
            mix, name, configuration, hc, scale, config = task.params
            thresholds = (
                GlobalThreshold(hc) if configuration == NO_SVARD
                else self.shared_svard(configuration, hc, scale)
            )
            kwargs = dict(rows_per_bank=config.rows_per_bank, seed=scale.seed)
            if name == "BlockHammer":
                kwargs["epoch_ns"] = config.defense_epoch_ns or DEFENSE_EPOCH_NS
            defense = self.defense_for(name, hc, thresholds, **kwargs)
            traces = self.traces(build_traces, mix, config)
            return self.simulate(config, traces, defense).finish_times()
        if key[0] == "characterize":
            label, config = task.params
            runner = CharacterizationRunner(module_by_label(label), config)
            return self._timed(
                self.characterize_bank, runner.characterize_bank,
                config.banks[key[-1]],
            )
        if key[:2] == ("fig8", "subarray"):
            label, rows_per_bank, seed = task.params
            platform = TestPlatform(
                module_by_label(label), rows_per_bank=rows_per_bank, seed=seed
            )
            platform.device.rowclone_success_rate = 1.0
            engineer = SubarrayReverseEngineer(platform, seed=seed)
            inference = self._timed(self.infer, engineer.infer, 0)
            return inference, -(-rows_per_bank // platform.geometry.subarray_rows)
        return task.execute()

    # -- metrics -------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        threshold_s = sum(m.seconds for m in self.threshold.values())
        threshold_calls = sum(m.calls for m in self.threshold.values())
        defense_self = {
            name: self.defense[name].seconds - self.threshold[name].seconds
            for name in DEFENSE_NAMES
        }
        defense_inclusive = sum(m.seconds for m in self.defense.values())
        sim_self = self.sim_run.seconds - self.next_step.seconds - defense_inclusive
        accesses = self.row_hits + self.row_misses
        metrics = {
            "workloads.next_step_s": (self.next_step.seconds, "s"),
            "workloads.steps": (self.next_step.calls, "count"),
            "workloads.build_s": (self.trace_build.seconds, "s"),
            "sim.run_s": (self.sim_run.seconds, "s"),
            "sim.self_s": (sim_self, "s"),
            "sim.self_us_per_req": (
                1e6 * sim_self / self.requests if self.requests else 0.0, "us"
            ),
            "sim.req_per_s": (
                self.requests / self.sim_run.seconds
                if self.sim_run.seconds else 0.0, "1/s",
            ),
            "sim.requests": (self.requests, "count"),
            "sim.activations": (self.activations, "count"),
            "sim.row_hit_rate": (
                self.row_hits / accesses if accesses else 0.0, "ratio"
            ),
            "sim.simulated_ns": (self.simulated_ns, "ns"),
            "sim.refreshes": (self.refreshes, "count"),
            "defenses.on_activation_s": (sum(defense_self.values()), "s"),
            "defenses.mitigations": (self.mitigations, "count"),
            "defenses.preventive_per_act": (
                self.mitigations / self.defense_activations
                if self.defense_activations else 0.0, "ratio",
            ),
            "core.threshold_s": (threshold_s, "s"),
            "core.threshold_calls": (threshold_calls, "count"),
            "core.threshold_ns_per_call": (
                1e9 * threshold_s / threshold_calls if threshold_calls else 0.0,
                "ns",
            ),
            "core.svard_build_s": (self.svard_build.seconds, "s"),
            "characterization.characterize_bank_s": (
                self.characterize_bank.seconds, "s"
            ),
            "reveng.infer_s": (self.infer.seconds, "s"),
        }
        for name in DEFENSE_NAMES:
            metrics[f"defenses.{name}.self_s"] = (defense_self[name], "s")
        return metrics


def traced_pass(workload: Workload, seed: int):
    """``(wall_s, {cell: digest}, text digest, spans)`` of one pass."""
    clear_memos()
    scale = workload.scale(seed)
    spans = Spans()
    all_outputs: Dict[tuple, Any] = {}
    texts = []
    started = perf_counter()
    for experiment in workload.experiments:
        outputs = {
            task.key: spans.rebuild(task)
            for group in experiment.build_tasks(scale, serial_context())
            for task in group.tasks
        }
        result = experiment.reduce(scale, outputs)
        texts.append(experiment.result_set(result).render_text())
        all_outputs.update(outputs)
    wall_s = perf_counter() - started
    cells = {cell_name(key): digest(value) for key, value in all_outputs.items()}
    return wall_s, cells, digest(texts), spans
