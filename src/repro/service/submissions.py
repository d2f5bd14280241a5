"""Sweep submissions: the service's write path.

A POST to the experiment service lands here as a
:class:`~repro.experiments.recipes.Recipe` (already validated by the
manifest loader).  The :class:`SubmissionManager` assigns it a run id,
persists a **run record** (``run.json``) under the service state tree,
and executes the sweep on a background thread through
:func:`repro.experiments.sweep.run_cells` -- the loop behind ``runner
recipe run`` -- so the artifact tree a run serves is byte-identical
(modulo ``meta.provenance``) to the CLI's.

State lives on disk, not in the process::

    <cache>/service/runs/<id>/run.json      the run record (atomic JSON)
    <cache>/service/runs/<id>/artifacts/    seed*/<experiment>.json,
                                            report.html

so a restarted service lists every historical run, and concurrent HTTP
readers never see a torn record (every ``run.json`` rewrite goes
through :func:`~repro.experiments.render.atomic_write_text`).

Each submission gets its **own** :class:`ResultCache` instance and
backend over the shared cache directory: per-entry provenance counters
on the cache object are per-run that way, and no mutable state is
shared between sweep threads.  Results still flow through the one
on-disk cache, so concurrent runs of overlapping grids share work.
"""

from __future__ import annotations

import json
import re
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.recipes import Recipe, RecipeError
from repro.experiments.render import atomic_write_text, get_renderer
from repro.experiments.sweep import (
    recipe_cells,
    run_cells,
    write_recipe_report,
)
from repro.orchestration import (
    OrchestrationContext,
    ResultCache,
    create_backend,
    default_queue_dir,
)
from repro.orchestration.backends import DEFAULT_LEASE_TIMEOUT

__all__ = [
    "RUN_RECORD_FORMAT",
    "RunNotFound",
    "SubmissionManager",
    "service_dir",
    "service_runs_dir",
]

#: Bumped when the run.json shape changes.  Format 2 added the live
#: ``cells_done`` / ``cells_total`` progress counters.
RUN_RECORD_FORMAT = 2

#: Characters allowed in the recipe-name half of a run id.
_ID_SAFE = re.compile(r"[^a-zA-Z0-9._-]+")

#: Run ids look like ``0007-report-smoke``.
_RUN_ID = re.compile(r"^\d{4}-[a-zA-Z0-9._-]{1,48}$")


class RunNotFound(KeyError):
    """No run record under the requested id."""


def service_dir(cache_dir: Path) -> Path:
    """Service state root inside a cache directory.

    ``service`` is 7 characters, so (like ``queue``) it can never be
    mistaken for a 2-character cache shard.
    """
    return Path(cache_dir) / "service"


def service_runs_dir(cache_dir: Path) -> Path:
    return service_dir(cache_dir) / "runs"


class SubmissionManager:
    """Accepts recipe sweeps and runs them on background threads.

    ``max_concurrent`` bounds simultaneously *executing* sweeps;
    excess submissions sit in state ``queued`` until a slot frees
    (enforced by a semaphore, FIFO-ish by thread wakeup order).
    ``participate`` mirrors the CLI's queue-backend default: a
    participating submitter claims tasks itself while it waits, so a
    laptop service is useful with zero external workers; the fleet
    deployment passes ``participate=False`` and lets ``runner
    worker`` processes drain the queue.
    """

    def __init__(
        self,
        cache_dir: Path,
        *,
        max_concurrent: int = 4,
        participate: bool = False,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        log=None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.runs_dir = service_runs_dir(self.cache_dir)
        self.participate = participate
        self.lease_timeout = lease_timeout
        self.log = log or (lambda message: None)
        self._lock = threading.Lock()
        self._slots = threading.Semaphore(max(1, int(max_concurrent)))
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Run records
    # ------------------------------------------------------------------

    def _record_path(self, run_id: str) -> Path:
        return self.runs_dir / run_id / "run.json"

    def artifacts_dir(self, run_id: str) -> Path:
        return self.runs_dir / run_id / "artifacts"

    def _write_record(self, record: Dict[str, Any]) -> None:
        atomic_write_text(
            self._record_path(record["id"]),
            json.dumps(record, indent=2, sort_keys=True) + "\n",
        )

    def get_run(self, run_id: str) -> Dict[str, Any]:
        """The on-disk run record, the single source of truth."""
        if not _RUN_ID.match(run_id):
            raise RunNotFound(run_id)
        try:
            return json.loads(self._record_path(run_id).read_text())
        except FileNotFoundError:
            raise RunNotFound(run_id)
        except (OSError, json.JSONDecodeError) as error:
            raise RunNotFound(f"{run_id}: unreadable run record: {error}")

    def list_runs(self) -> List[Dict[str, Any]]:
        """Every readable run record, newest id first.

        Scanned from disk so a restarted service still lists the runs
        its predecessor executed.  Records mid-rename or from a future
        format are skipped rather than failing the listing.
        """
        records = []
        try:
            names = sorted(
                entry.name for entry in self.runs_dir.iterdir()
                if _RUN_ID.match(entry.name)
            )
        except FileNotFoundError:
            return []
        for name in reversed(names):
            try:
                records.append(self.get_run(name))
            except RunNotFound:
                continue
        return records

    def _allocate_run_id(self, recipe_name: str) -> str:
        """``NNNN-<name>``: monotonic, human-sortable, collision-free.

        The directory mkdir is the allocation: it is exclusive, so two
        racing submissions can never share an id even though the scan
        below races.
        """
        slug = _ID_SAFE.sub("-", recipe_name).strip("-")[:48] or "recipe"
        with self._lock:
            self.runs_dir.mkdir(parents=True, exist_ok=True)
            taken = [
                int(entry.name[:4])
                for entry in self.runs_dir.iterdir()
                if _RUN_ID.match(entry.name)
            ]
            number = max(taken, default=0) + 1
            while True:
                run_id = f"{number:04d}-{slug}"
                try:
                    (self.runs_dir / run_id).mkdir()
                except FileExistsError:
                    number += 1
                    continue
                return run_id

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, recipe: Recipe, *, smoke: bool = False) -> Dict[str, Any]:
        """Accept one sweep; returns its run record (state ``queued``).

        Raises :class:`~repro.experiments.recipes.RecipeError` for a
        recipe naming unknown experiments -- the service rejects those
        with a 400 instead of leaving a doomed run behind.
        """
        recipe.validate_experiments()
        run_id = self._allocate_run_id(recipe.name)
        record = {
            "format": RUN_RECORD_FORMAT,
            "id": run_id,
            "recipe": recipe.to_manifest(),
            "smoke": bool(smoke),
            "state": "queued",
            "submitted_at": time.time(),
            "started_at": None,
            "finished_at": None,
            "error": None,
            "failed_cells": [],
            "cells_done": 0,
            "cells_total": None,
            "artifacts": [],
            "report": None,
        }
        self._write_record(record)
        # The caller gets a snapshot: the sweep thread mutates (and
        # re-persists) the live record from the moment it starts.
        snapshot = json.loads(json.dumps(record))
        thread = threading.Thread(
            target=self._execute,
            args=(record, recipe, bool(smoke)),
            name=f"sweep-{run_id}",
            daemon=True,
        )
        with self._lock:
            self._threads.append(thread)
        thread.start()
        self.log(f"accepted {run_id}: recipe {recipe.name} "
                 f"v{recipe.version}{' (smoke)' if smoke else ''}")
        return snapshot

    def _execute(
        self, record: Dict[str, Any], recipe: Recipe, smoke: bool
    ) -> None:
        run_id = record["id"]
        out_dir = self.artifacts_dir(run_id)
        with self._slots:
            record["state"] = "running"
            record["started_at"] = time.time()
            self._write_record(record)
            self.log(f"running {run_id}")
            try:
                # Fresh cache + backend per run: per-entry provenance
                # counters stay per-run, and nothing mutable is shared
                # across sweep threads.  The *directory* is shared --
                # that is the whole point.
                cache = ResultCache(self.cache_dir)
                backend = create_backend(
                    "queue",
                    queue_dir=default_queue_dir(cache.directory),
                    participate=self.participate,
                    lease_timeout=self.lease_timeout,
                )
                orch = OrchestrationContext(cache=cache, backend=backend)

                def progress(cells_done: int, cells_total: int) -> None:
                    # Re-persisted after every finished cell, so a
                    # polling GET /runs/<id> watches the sweep advance
                    # instead of staring at state "running".
                    record["cells_done"] = cells_done
                    record["cells_total"] = cells_total
                    self._write_record(record)

                def log(message: str) -> None:
                    self.log(f"[{run_id}] {message}")

                renderer = get_renderer("json")
                artifacts: List[Path] = []

                def emit(cell, result_set) -> None:
                    artifacts.extend(
                        renderer.write(result_set, cell.out_dir(out_dir))
                    )

                with orch:
                    outcome = run_cells(
                        recipe_cells(recipe, smoke=smoke), orch, emit,
                        keep=True, log=log, progress=progress,
                    )
                if outcome.completed:
                    from repro.experiments.aggregate import AggregationError

                    try:
                        record["report"] = str(write_recipe_report(
                            recipe, smoke, outcome.completed, out_dir
                        ).relative_to(out_dir))
                    except AggregationError as error:
                        # The per-seed artifacts are all on disk by
                        # now; losing the report must not look like
                        # losing the sweep.
                        record["error"] = (
                            f"report aggregation failed: {error}"
                        )
                        log(f"error: {record['error']}")
            except Exception as error:  # noqa: BLE001 -- run record is the report
                record["state"] = "failed"
                record["error"] = (
                    f"{type(error).__name__}: {error}\n"
                    + traceback.format_exc()
                )
                record["finished_at"] = time.time()
                self._write_record(record)
                self.log(f"failed {run_id}: {type(error).__name__}: {error}")
                return
            record["failed_cells"] = list(outcome.failed_cells)
            record["artifacts"] = sorted(
                str(path.relative_to(out_dir)) for path in artifacts
            )
            record["state"] = "failed" if outcome.failed_cells else "done"
            record["finished_at"] = time.time()
            self._write_record(record)
            self.log(
                f"{record['state']} {run_id}: "
                f"{len(record['artifacts'])} artifacts"
                + (f", {len(outcome.failed_cells)} failed cells"
                   if outcome.failed_cells else "")
            )

    # ------------------------------------------------------------------

    def active_count(self) -> int:
        with self._lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            return len(self._threads)

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted sweep finished (tests, shutdown)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
            if thread.is_alive():
                return False
        return True
