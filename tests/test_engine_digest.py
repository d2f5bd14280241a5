"""Bit-exact digests of the simulator engine, cell by cell.

Each cell runs one tiny :class:`MemorySystem` simulation with command
logging on and pins everything the run produces: every field of the
:class:`SimulationResult` (per-core finish and latency sums included),
the defense's :class:`DefenseStats`, and the sha256 of the logged
command stream in emission order.  The grid is {no defense, each of
the five defenses} x {``GlobalThreshold``, Svärd-S0} x {DDR4-3200,
DDR5-4800, LPDDR4-3200}; the DDR5 and LPDDR4 cells cover the sliced
refresh path that the Fig 12 grid never runs.

Floats are compared exactly (JSON round-trips them bit for bit), so
any change to an operation order, a draw order or a memo's semantics
in the engine, the traces, the defenses or the threshold providers
shows up here.  Regenerating after an *intentional* behaviour change::

    PYTHONPATH=src python -m pytest tests/test_engine_digest.py --update-golden
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.profile import VulnerabilityProfile
from repro.core.svard import Svard
from repro.defenses import DEFENSE_CLASSES, make_defense
from repro.defenses.base import SvardThresholds
from repro.dram.timing import device_for
from repro.faults.modules import module_by_label
from repro.sim.config import SystemConfig
from repro.sim.engine import MemorySystem
from repro.workloads.suites import profile_by_name
from repro.workloads.synthetic import SyntheticTrace

GOLDEN = Path(__file__).parent / "golden" / "engine_digest.json"

DEVICES = ("DDR4-3200", "DDR5-4800", "LPDDR4-3200")
DEFENSES = (None,) + tuple(sorted(DEFENSE_CLASSES))
THRESHOLDS = ("global", "Svärd-S0")
HC_FIRST = 32
ROWS_PER_BANK = 512
SEED = 5


def _config(device: str) -> SystemConfig:
    return SystemConfig(
        cores=2,
        ranks=2,
        bank_groups=2,
        banks_per_group=2,
        rows_per_bank=ROWS_PER_BANK,
        requests_per_core=400,
        mlp_per_core=3,
        timing=device_for(device),
        defense_epoch_ns=20_000.0,
    )


def _svard() -> SvardThresholds:
    profile = VulnerabilityProfile.from_ground_truth(
        module_by_label("S0"),
        banks=(0, 3),
        rows_per_bank=ROWS_PER_BANK,
        seed=SEED,
    ).scaled_to_worst_case(HC_FIRST)
    return SvardThresholds(Svard.build(profile))


def _cells():
    for device in DEVICES:
        yield device, None, "global"
        for name in DEFENSES[1:]:
            for thresholds in THRESHOLDS:
                yield device, name, thresholds


def _cell_id(device, name, thresholds) -> str:
    return f"{device}/{name or 'none'}/{thresholds}"


def _command_digest(log) -> str:
    """sha256 of the stream by value (a numpy float hashes as a float)."""
    sha = hashlib.sha256()
    for timed in log:
        command = timed.command
        sha.update(
            f"{float(timed.time_ns)!r} {command.kind.name} {command.rank} "
            f"{command.bank} {command.row} {command.column}\n".encode()
        )
    return sha.hexdigest()


def run_cell(device, name, thresholds, svard) -> dict:
    config = _config(device)
    suites = ("spec17", "ycsb")
    traces = [
        SyntheticTrace(
            profile_by_name(suites[core % len(suites)]),
            total_banks=config.total_banks,
            rows_per_bank=config.rows_per_bank,
            columns_per_row=config.columns_per_row,
            seed=SEED * 10 + core,
        )
        for core in range(config.cores)
    ]
    defense = None
    if name is not None:
        defense = make_defense(
            name, HC_FIRST, config,
            thresholds=svard if thresholds != "global" else None,
            seed=SEED,
        )
    log = []
    result = MemorySystem(config, traces, defense=defense).run(command_log=log)
    return {
        "result": dataclasses.asdict(result),
        "defense_stats": (
            dataclasses.asdict(defense.stats) if defense is not None else None
        ),
        "commands": len(log),
        "command_sha256": _command_digest(log),
    }


@pytest.fixture(scope="module")
def digests():
    svard = _svard()
    return {
        _cell_id(*cell): run_cell(*cell, svard) for cell in _cells()
    }


def test_engine_digest(digests, request):
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(
            json.dumps(digests, indent=1, sort_keys=True, ensure_ascii=False)
            + "\n",
            encoding="utf-8",
        )
        pytest.skip("golden regenerated")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(golden)
    mismatched = [cell for cell in golden if digests[cell] != golden[cell]]
    assert not mismatched, f"cells drifted from the golden: {mismatched}"


def test_grid_exercises_every_path(digests):
    """The pinned cells actually do the work they exist to pin."""
    for cell, digest in digests.items():
        assert digest["result"]["refreshes_issued"] > 0, cell
        stats = digest["defense_stats"]
        if stats is not None:
            assert stats["activations_observed"] > 0, cell
    for name in DEFENSE_CLASSES:
        acted = [
            digests[_cell_id(device, name, thresholds)]["defense_stats"]
            for device in DEVICES
            for thresholds in THRESHOLDS
        ]
        assert any(
            s["victim_refreshes"] or s["throttle_events"] or s["migrations"]
            or s["swaps"] or s["counter_reads"]
            for s in acted
        ), name
