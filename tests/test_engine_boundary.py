"""The engine's boundary with traces and defenses.

``MemorySystem.run`` may call only ``next_step`` on a trace and only
``on_activation``/``on_refresh_window`` on a defense.  perfbench's
traced pass wraps exactly those three methods to time each layer, so
a read of any other attribute would bypass (or break) its proxies.
These tests hand the engine recording proxies and assert the set of
attributes it touched.
"""

import pytest

from repro.defenses import DEFENSE_CLASSES, make_defense
from repro.dram.timing import device_for
from repro.sim.config import SystemConfig
from repro.sim.engine import MemorySystem
from repro.workloads.suites import profile_by_name
from repro.workloads.synthetic import SyntheticTrace


class Recorder:
    """Delegates every attribute read to ``inner`` and records its name."""

    def __init__(self, inner) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        object.__getattribute__(self, "_reads").add(name)
        return getattr(object.__getattribute__(self, "_inner"), name)

    @staticmethod
    def reads(proxy) -> set:
        return object.__getattribute__(proxy, "_reads")


def _config(device: str) -> SystemConfig:
    return SystemConfig(
        cores=2,
        ranks=1,
        bank_groups=2,
        banks_per_group=2,
        rows_per_bank=512,
        requests_per_core=300,
        mlp_per_core=2,
        timing=device_for(device),
        defense_epoch_ns=2_000.0,
    )


@pytest.mark.parametrize("device", ["DDR4-3200", "DDR5-4800"])
@pytest.mark.parametrize("name", [None] + sorted(DEFENSE_CLASSES))
def test_engine_reads_only_the_protocol_methods(device, name):
    config = _config(device)
    traces = [
        Recorder(SyntheticTrace(
            profile_by_name("ycsb"),
            total_banks=config.total_banks,
            rows_per_bank=config.rows_per_bank,
            columns_per_row=config.columns_per_row,
            seed=core,
        ))
        for core in range(config.cores)
    ]
    defense = None
    if name is not None:
        defense = Recorder(make_defense(name, 16, config, seed=0))
    result = MemorySystem(config, traces, defense=defense).run()
    assert sum(core.completed_requests for core in result.cores) == 600
    for trace in traces:
        assert Recorder.reads(trace) == {"next_step"}
    if defense is not None:
        assert Recorder.reads(defense) == {"on_activation", "on_refresh_window"}
        assert object.__getattribute__(defense, "_inner").stats.activations_observed
