"""The one loop that runs experiment cells, shared by every caller.

``runner run``, ``runner recipe run`` and the experiment service's
:class:`~repro.service.submissions.SubmissionManager` each build a
list of :class:`Cell` objects -- one experiment at one scale, with
the recipe it belongs to, if any -- and hand it to :func:`run_cells`
together with their own *emit* step (the CLI renders to stdout or
``--out``; the service writes JSON artifacts under its run
directory).  Per cell the loop takes an orchestration stats snapshot,
runs the experiment, records an
:class:`~repro.experiments.api.ExperimentError` as a failed cell,
tags device-axis titles and ``meta.recipe`` for recipe cells, stamps
``meta.provenance``, emits, and keeps the ResultSet for the report
when asked.  A sweep submitted over HTTP therefore produces artifacts
**byte-identical** (modulo the ``meta.provenance`` execution record,
which deliberately says *how* each artifact was computed) to the same
recipe run from the command line.

Artifact layout under a recipe sweep's output directory::

    <out>/seed<seed>/<experiment>.json     one ResultSet per cell
    <out>/seed<seed>/<device>/...          with a recipe `devices` axis
    <out>/report.html                      aggregated across seeds

All files are published with atomic renames
(:func:`repro.experiments.render.atomic_write_text`), so HTTP readers
polling a directory mid-sweep see complete artifacts or none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.experiments.api import ExperimentError, ResultSet, all_experiments
from repro.experiments.common import ExperimentScale
from repro.experiments.recipes import Recipe
from repro.experiments.render import atomic_write_text
from repro.orchestration import OrchestrationContext

__all__ = [
    "Cell",
    "SweepOutcome",
    "recipe_cells",
    "recipe_out_dir",
    "run_cells",
    "stamp_provenance",
    "stats_snapshot",
    "write_recipe_report",
]


def stats_snapshot(orch: OrchestrationContext) -> tuple:
    """Orchestration counters *now*; pair with :func:`stamp_provenance`."""
    provenance_seen = (
        len(orch.cache.provenance_events) if orch.cache is not None else 0
    )
    return (
        orch.stats.submitted,
        orch.stats.hits,
        orch.stats.executed,
        provenance_seen,
    )


def stamp_provenance(
    result_set, orch: OrchestrationContext, before: tuple
) -> None:
    """Record how this ResultSet was computed (shown by the report).

    ``before`` is the :func:`stats_snapshot` taken just before the
    experiment ran, so the task counts are per-experiment even though
    the context is shared by the whole CLI invocation.  When a cache
    is attached, ``workers`` maps each worker label (``host:pid``)
    that computed one of this experiment's results -- this process,
    a pool worker's parent, or any ``runner worker`` on any host --
    to its result count, straight from the per-entry provenance
    stamps in the cache; ``profile`` summarizes the per-task timing
    stamps (:data:`~repro.orchestration.PROFILE_FIELDS`) of the
    entries this experiment touched that carry them.
    """
    submitted, hits, executed, provenance_before = before
    now_submitted, now_hits, now_executed, _ = stats_snapshot(orch)
    provenance = {
        "backend": orch.backend.describe(),
        "cache_dir": (
            str(orch.cache.directory) if orch.cache is not None else None
        ),
        "tasks": {
            "submitted": now_submitted - submitted,
            "cache_hits": now_hits - hits,
            "executed": now_executed - executed,
        },
    }
    if orch.cache is not None:
        # Slice the append-only event log, not the first-seen dict:
        # a repeated experiment's cache hits re-log already-seen
        # entry keys, so its slice is never empty.  Dedup keys within
        # the slice (a store immediately re-read counts once) and
        # resolve worker labels through the dict, which the queue
        # backend blanks for foreign submitters' entries.
        workers: dict = {}
        profiles: list = []
        events = orch.cache.provenance_events[provenance_before:]
        for entry_key in dict.fromkeys(events):
            worker = orch.cache.provenance_seen.get(entry_key)
            if worker is not None:
                workers[worker] = workers.get(worker, 0) + 1
            profile = orch.cache.profile_seen.get(entry_key)
            if profile is not None:
                profiles.append(profile)
        provenance["workers"] = {
            worker: workers[worker] for worker in sorted(workers)
        }
        if profiles:
            from repro.orchestration.status import summarize_profiles

            provenance["profile"] = summarize_profiles(profiles)
    result_set.meta["provenance"] = provenance


def recipe_out_dir(
    out_dir: Path, seed: int, *, device: Optional[str] = None
) -> Path:
    """Deterministic artifact layout: one subdirectory per seed.

    Recipes with a ``devices`` axis nest one more level
    (``seed0/lpddr4-3200/...``) so a multi-generation sweep never
    collides the same experiment's artifacts.
    """
    seed_dir = out_dir / f"seed{seed}"
    if device is None:
        return seed_dir
    return seed_dir / device.lower()


@dataclass(frozen=True)
class Cell:
    """One experiment at one scale: the unit :func:`run_cells` runs."""

    experiment: str
    scale: ExperimentScale
    #: The recipe this cell is part of (``None`` for ``runner run``).
    recipe: Optional[Recipe] = None
    #: Whether the recipe's smoke overrides are applied.
    smoke: bool = False

    @property
    def label(self) -> str:
        """``fig12`` for a run cell; ``fig12@seed0[/DDR5-4800]`` in a recipe."""
        if self.recipe is None:
            return self.experiment
        label = f"{self.experiment}@seed{self.scale.seed}"
        if self.scale.device is not None:
            label = f"{label}/{self.scale.device}"
        return label

    def out_dir(self, root: Path) -> Path:
        """Where this cell's artifacts go under an output root."""
        if self.recipe is None:
            return root
        return recipe_out_dir(root, self.scale.seed, device=self.scale.device)


def recipe_cells(recipe: Recipe, *, smoke: bool = False) -> List[Cell]:
    """Every cell of ``recipe``'s grid, in manifest order.

    Raises :class:`~repro.experiments.recipes.RecipeError` for unknown
    experiments or an invalid scale.
    """
    recipe.validate_experiments()
    return [
        Cell(experiment, scale, recipe, smoke)
        for experiment, _seed, scale in recipe.runs(smoke=smoke)
    ]


@dataclass
class SweepOutcome:
    """What one :func:`run_cells` call produced."""

    #: Labels of cells that raised ExperimentError.
    failed_cells: List[str] = field(default_factory=list)
    #: ``(cell, result_set)`` per finished cell, kept for the report.
    completed: List[Tuple[Cell, ResultSet]] = field(default_factory=list)


def run_cells(
    cells: Sequence[Cell],
    orch: OrchestrationContext,
    emit: Callable[[Cell, ResultSet], None],
    *,
    keep: bool = False,
    log: Optional[Callable[[str], None]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepOutcome:
    """Run every cell through ``orch`` and hand each ResultSet to ``emit``.

    ``emit(cell, result_set)`` renders or writes each finished cell's
    ResultSet wherever the caller wants it.  ``keep`` retains every
    ResultSet in :attr:`SweepOutcome.completed` for a report; it is
    off by default because a paper-scale grid held in memory is waste
    otherwise.  Per-cell :class:`ExperimentError` is logged, recorded
    and the sweep continues; anything else -- a backend failure, a
    renderer error from ``emit`` -- propagates, since the whole sweep
    is wrong, not one cell.

    ``progress(cells_done, cells_total)`` is called once up front and
    once per finished cell (failed cells count as done -- it tracks
    sweep position, not success), so callers like the experiment
    service can surface live completion counts.
    """
    log = log or (lambda message: None)
    experiments = all_experiments()
    outcome = SweepOutcome()
    if progress is not None:
        progress(0, len(cells))
    for cells_done, cell in enumerate(cells, 1):
        recipe = cell.recipe
        if recipe is not None:
            log(f"[recipe {recipe.name} v{recipe.version}] {cell.label}")
        before = stats_snapshot(orch)
        try:
            result_set = experiments[cell.experiment].run_result_set(
                cell.scale, orch
            )
        except ExperimentError as error:
            log(f"error: {cell.label}: {error}")
            outcome.failed_cells.append(cell.label)
        else:
            if recipe is not None:
                device = cell.scale.device
                if device is not None:
                    result_set.title = f"{result_set.title} [{device}]"
                result_set.meta["recipe"] = {
                    "name": recipe.name,
                    "version": recipe.version,
                    "seed": cell.scale.seed,
                    "smoke": cell.smoke,
                }
            stamp_provenance(result_set, orch, before)
            emit(cell, result_set)
            if keep:
                outcome.completed.append((cell, result_set))
        if progress is not None:
            progress(cells_done, len(cells))
    return outcome


def write_recipe_report(
    recipe: Recipe,
    smoke: bool,
    completed: Sequence[Tuple[Cell, ResultSet]],
    out_dir: Path,
) -> Path:
    """``<out>/report.html`` for the cells of one recipe run.

    The cells aggregate **in memory** (per experiment and device,
    across the seed matrix), so the report works with any ``--format``
    -- the on-disk artifacts need not be JSON.  ``completed`` is
    :attr:`SweepOutcome.completed`.  The page is published atomically
    so an HTTP reader never sees half a report.

    Raises :class:`~repro.experiments.aggregate.AggregationError` when
    the seed matrices do not align; the per-cell artifacts survive.
    """
    from repro.experiments.aggregate import ResultSetAggregate
    from repro.experiments.report import build_report

    sections = []
    for experiment_name in recipe.experiments:
        # One section per (experiment, device) cell group: a devices
        # axis must not aggregate DDR4 numbers with DDR5 numbers.
        for device in recipe.devices or (None,):
            members = [
                (cell.scale.seed, result_set)
                for cell, result_set in completed
                if cell.experiment == experiment_name
                and cell.scale.device == device
            ]
            if not members:
                continue  # every seed of this cell group failed
            if len(members) == 1:
                sections.append(members[0][1])
            else:
                sections.append(ResultSetAggregate.from_result_sets(
                    [result_set for _, result_set in members],
                    [seed for seed, _ in members],
                ).to_result_set())
    seeds = ", ".join(str(seed) for seed in recipe.seeds)
    html = build_report(
        sections,
        title=f"{recipe.name} v{recipe.version}",
        subtitle=f"{recipe.description} -- seeds {seeds}"
                 + (" (smoke scale)" if smoke else ""),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.html"
    atomic_write_text(path, html)
    return path
