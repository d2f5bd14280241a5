#!/usr/bin/env python
"""`make bench-engine`: simulator throughput, layer by layer.

Times one ``fig12-grid`` cell size (the Fig 12 quick grid at
HC_first = 64: one mix of 8 cores x 2500 requests on the paper's
system) several ways:

* ``trace``  -- ``SyntheticTrace.next_step`` alone, the mix's eight
  traces drained round-robin over their chains, no engine;
* ``engine`` -- ``MemorySystem.run`` with no defense;
* ``<defense>/<configuration>`` -- the engine with each of the five
  defenses, under No Svärd and Svärd-S0.

Each figure is requests per second of the fastest of ``REPEATS``
fresh runs (on a shared host, noise only ever adds time); the median
run is recorded beside it.  Every simulated cell also records a digest of its
per-core finish times.  Writes ``BENCH_engine.json`` at the repository
root, but only if every cell's digest equals the one already recorded
there: a cell that moved is named, the file is left untouched and the
script exits 1.  After an intentional behaviour change, delete
``BENCH_engine.json`` first.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.defenses import DEFENSE_CLASSES, make_defense  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    ExperimentScale,
    svard_configurations,
    svard_thresholds,
)
from repro.experiments.fig12_performance import Fig12Experiment  # noqa: E402
from repro.sim.engine import MemorySystem  # noqa: E402
from repro.workloads.mixes import build_traces, generate_mixes  # noqa: E402

#: ``perfbench``'s fig12-grid scale (seed 0).
SCALE = ExperimentScale(
    rows_per_bank=1024,
    banks=(1, 4),
    n_mixes=1,
    requests_per_core=2500,
    hc_first_values=(64,),
    svard_profiles=("S0",),
    seed=0,
)
HC_FIRST = 64
REPEATS = 5


def _finish_digest(result) -> str:
    text = ",".join(repr(t) for t in result.finish_times())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def bench_trace(mix, config) -> float:
    """Seconds to draw every request of the cell from its traces."""
    traces = build_traces(mix, config)
    chains = config.mlp_per_core
    started = time.perf_counter()
    for trace in traces:
        next_step = trace.next_step
        for i in range(config.requests_per_core):
            next_step(i % chains)
    return time.perf_counter() - started


def bench_engine(mix, config, defense_factory):
    """``(seconds, finish digest)`` of one fresh simulation."""
    traces = build_traces(mix, config)
    defense = defense_factory() if defense_factory else None
    system = MemorySystem(config, traces, defense=defense)
    started = time.perf_counter()
    result = system.run()
    return time.perf_counter() - started, _finish_digest(result)


def _row(requests: int, seconds: list, digest=None) -> dict:
    row = {
        "req_per_s": round(requests / min(seconds)),
        "min_s": round(min(seconds), 4),
        "median_s": round(statistics.median(seconds), 4),
    }
    if digest is not None:
        row["finish_digest"] = digest
    return row


def moved_cells(recorded: dict, results: dict) -> list:
    """Labels whose finish digest differs from the ``recorded`` document."""
    return sorted(
        label
        for label, row in recorded["results"].items()
        if "finish_digest" in row
        and results.get(label, {}).get("finish_digest") != row["finish_digest"]
    )


def main() -> int:
    config = Fig12Experiment()._config(SCALE)
    mix = generate_mixes(SCALE.n_mixes, cores=config.cores, seed=SCALE.seed)[0]
    requests = config.cores * config.requests_per_core
    print(
        f"bench-engine: {config.cores} cores x {config.requests_per_core} "
        f"requests, HC_first {HC_FIRST}, best of {REPEATS}"
    )

    providers = {
        configuration: svard_thresholds(configuration, HC_FIRST, SCALE)
        for configuration in svard_configurations(SCALE)
    }
    defenses = {"engine": None}
    for name in sorted(DEFENSE_CLASSES):
        for configuration, provider in providers.items():
            defenses[f"{name}/{configuration}"] = partial(
                make_defense, name, HC_FIRST, config,
                thresholds=provider, seed=SCALE.seed,
            )

    results = {
        "trace": _row(
            requests, [bench_trace(mix, config) for _ in range(REPEATS)]
        )
    }
    print(f"  {'trace':<24} {results['trace']['req_per_s']:>8} req/s")
    for label, factory in defenses.items():
        runs = [bench_engine(mix, config, factory) for _ in range(REPEATS)]
        digests = {digest for _, digest in runs}
        assert len(digests) == 1, f"{label}: runs disagree"
        results[label] = _row(requests, [s for s, _ in runs], digests.pop())
        print(f"  {label:<24} {results[label]['req_per_s']:>8} req/s")

    document = {
        "bench": "engine",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scale": {
            "cores": config.cores,
            "requests_per_core": config.requests_per_core,
            "rows_per_bank": config.rows_per_bank,
            "hc_first": HC_FIRST,
            "defense_epoch_ns": config.defense_epoch_ns,
            "repeats": REPEATS,
        },
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "results": results,
    }
    out_path = ROOT / "BENCH_engine.json"
    if out_path.exists():
        moved = moved_cells(json.loads(out_path.read_text()), results)
        if moved:
            print(
                f"finish digests moved from {out_path.name}: "
                f"{', '.join(moved)}; not written (delete the file to "
                "record an intentional change)",
                file=sys.stderr,
            )
            return 1
    out_path.write_text(
        json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    )
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
