"""The benchmark's workloads: which experiments run, at which scale.

Each workload is a list of experiments plus the ``ExperimentScale``
fields they run at.  ``--seed`` fills in ``ExperimentScale.seed``,
which is the only thing the program receives from the benchmark.  ``bench`` is the measured size.  ``tiny`` runs the
same code paths in a few seconds and exists for ``selfcheck.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.experiments.api import Experiment, get_experiment
from repro.experiments.common import ExperimentScale

#: The HC_first = 64 column of the Fig 12 quick grid of
#: ``benchmarks/conftest.py::perf_scale``: the column where the
#: defenses work hardest and where ``test_bench_fig12.py`` asserts the
#: paper's ordering.  One column keeps a pass near 4 s, so a run holds
#: several passes (see README.md, "Why passes are short").
PERF_SCALE: Dict[str, Any] = dict(
    rows_per_bank=1024,
    banks=(1, 4),
    n_mixes=1,
    requests_per_core=2500,
    hc_first_values=(64,),
    svard_profiles=("S0",),
)

#: ``benchmarks/conftest.py::bench_scale`` (all 15 modules, 2 banks)
#: at half the rows, for the same reason.
BENCH_SCALE: Dict[str, Any] = dict(rows_per_bank=512, banks=(1, 4))

#: The characterization-side experiments, in the order a full sweep
#: runs them; later ones reuse the in-process characterization memo
#: that the earlier ones fill, exactly as in one runner invocation.
CHARACTERIZE_EXPERIMENTS = (
    "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table5",
)


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: Tuple[Experiment, ...]
    scale_fields: Dict[str, Any]

    def scale(self, seed: int) -> ExperimentScale:
        return ExperimentScale(seed=seed, **self.scale_fields)


def workloads(size: str) -> Dict[str, Workload]:
    """``{name: Workload}`` for ``size`` in ``("bench", "tiny")``."""
    if size == "bench":
        perf, characterize = PERF_SCALE, BENCH_SCALE
    elif size == "tiny":
        perf = dict(
            PERF_SCALE, rows_per_bank=256, requests_per_core=60,
            hc_first_values=(256, 64),
        )
        characterize = dict(
            rows_per_bank=256, banks=(1,), modules=("H3", "M0", "S0")
        )
    else:
        raise ValueError(f"unknown size {size!r}")
    return {
        "fig12-grid": Workload(
            "fig12-grid", (get_experiment("fig12"),), perf
        ),
        "characterize": Workload(
            "characterize",
            tuple(get_experiment(name) for name in CHARACTERIZE_EXPERIMENTS),
            characterize,
        ),
    }
