"""One untraced pass of a workload, and the digests that check it.

A pass starts cold, as a fresh sweep does: the on-disk result cache
is a new empty directory and the in-process memos are cleared.  It
then goes through each experiment's public ``run(scale, orchestration)``
and renders the result set.  ``RecordingContext`` keeps every task
output that flows through the orchestration layer, so each cell can be
checked against its pinned digest.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.experiments import common as experiments_common
from repro.orchestration import OrchestrationContext, ResultCache
from repro.orchestration import task as orchestration_task
from repro.orchestration.status import profile_cache

from workloads import Workload


def clear_memos() -> None:
    """Forget every in-process memo, so the next pass starts cold."""
    experiments_common._CHARACTERIZATION_CACHE.clear()
    experiments_common._PROFILE_MEMO.clear()
    orchestration_task._PROCESS_SETUP_CACHE.clear()


def cell_name(key: tuple) -> str:
    return "/".join(str(part) for part in key)


def _feed(digest, value: Any) -> None:
    """Hash ``value`` by content, independent of pickle's encoding."""
    if isinstance(value, np.ndarray):
        digest.update(f"nd{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        _feed(digest, value.item())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        digest.update(type(value).__qualname__.encode() + b"(")
        for f in dataclasses.fields(value):
            digest.update(f.name.encode() + b"=")
            _feed(digest, getattr(value, f.name))
        digest.update(b")")
    elif isinstance(value, dict):
        digest.update(b"{")
        for key, item in value.items():
            _feed(digest, key)
            digest.update(b":")
            _feed(digest, item)
        digest.update(b"}")
    elif isinstance(value, (list, tuple)):
        digest.update(b"[" if isinstance(value, list) else b"(")
        for item in value:
            _feed(digest, item)
            digest.update(b",")
        digest.update(b"]")
    elif isinstance(value, enum.Enum):
        digest.update(f"{type(value).__qualname__}.{value.name}".encode())
    elif isinstance(value, (str, int, float, bool, type(None))):
        digest.update(f"{type(value).__name__}:{value!r};".encode())
    else:
        raise TypeError(f"no digest rule for {type(value).__name__}")


def digest(value: Any) -> str:
    sha = hashlib.sha256()
    _feed(sha, value)
    return sha.hexdigest()[:24]


@dataclass
class PassResult:
    wall_s: float
    #: ``{cell name: digest}`` of every task output.
    cells: Dict[str, str]
    #: Digest of the workload's rendered result-set text.
    text: str
    #: ``{cache entry key: run_s}`` from the orchestration profile
    #: stamps; entry keys name the same cell in every pass of a run.
    cell_run_s: Dict[str, float]
    #: ``profile_cache(...)["overall"]`` of the pass's result cache.
    orchestration: Dict[str, Any]
    #: The rich result objects, in experiment order.
    results: List[Any]


class RecordingContext(OrchestrationContext):
    """An orchestration context that keeps every task output."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.outputs: Dict[tuple, Any] = {}

    def run_groups(self, groups):
        outputs = super().run_groups(groups)
        self.outputs.update(outputs)
        return outputs


def untraced_pass(
    workload: Workload, seed: int, jobs: int, work_dir: Path
) -> PassResult:
    clear_memos()
    scale = workload.scale(seed)
    cache_dir = work_dir / f"cache-{time.monotonic_ns()}"
    started = time.perf_counter()
    with RecordingContext(jobs=jobs, cache=ResultCache(cache_dir)) as orch:
        results = [
            experiment.run(scale, orchestration=orch)
            for experiment in workload.experiments
        ]
        texts = [
            experiment.result_set(result).render_text()
            for experiment, result in zip(workload.experiments, results)
        ]
    wall_s = time.perf_counter() - started
    try:
        return PassResult(
            wall_s=wall_s,
            cells={
                cell_name(key): digest(value)
                for key, value in orch.outputs.items()
            },
            text=digest(texts),
            cell_run_s={
                entry_key: float(stamp["run_s"])
                for entry_key, stamp in orch.cache.profile_seen.items()
            },
            orchestration=profile_cache(cache_dir)["overall"],
            results=results,
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
