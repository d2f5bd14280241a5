"""The repository benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload fig12-grid --seed 0 --seconds 50 --trace 0

``--trace 0`` times untraced serial passes for ``--seconds`` and reports
the end-to-end metrics, in seconds of a reference host speed that
``calibrate.py`` measures between passes.  ``--trace 1`` repeats rounds
of an untraced pass, a pass on a 2-process pool and a traced pass
(``tracing.py``), and reports the per-layer metrics.  Every pass
starts cold.  Every
cell output is checked against the digests pinned in
``reference.json`` for the seed, or, for a seed without a pin, against
the run's first pass.  Human-readable lines come first; the last line
of standard output is the JSON result.  The exit code is 0 only if
every output checked out.  See README.md for the metric definitions.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fig12-grid", "characterize")
PROBE_TIMEOUT_S = 120
#: Seconds of the reference workload after each pass (``--trace 0``)
#: or each round of passes (``--trace 1``).
BLOCK_S = 1.0
#: The pool size of ``orchestration.wall_j2_s``.
POOL_JOBS = 2
#: Seeds on which ``benchmarks/test_bench_fig12.py``'s Fig 12 ordering
#: holds for the one-mix quick grid (it asserts it on seed 0); on other
#: seeds a single mix can swap neighbouring defenses.
FIG12_ORDERING_SEEDS = (0,)
FIG12_ORDER = ("BlockHammer", "RRS", "PARA", "AQUA", "Hydra")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", default="bench", choices=("bench", "tiny"),
        help="tiny runs the same paths in seconds (used by selfcheck.py)",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set up, print the set-up time and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def set_up(args):
    """Import the program and build the workload; raise ImportError if
    the program is not there."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.orchestration import code_version

    from workloads import workloads

    code_version()  # hashes the package source once per process
    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    return workloads(args.size)[args.workload], work_dir


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


class Checker:
    """Counts cells attempted and failed against the expected digests."""

    def __init__(self, reference):
        self.expected = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label, cells, text):
        if self.expected is None:
            self.expected = {"cells": dict(cells), "text": text}
        expected = self.expected["cells"]
        self.attempted += len(expected)
        bad = sorted(
            name for name in set(expected) | set(cells)
            if cells.get(name) != expected.get(name)
        )
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{label}: {len(bad)} cells differ: {bad[:5]}")
        if text != self.expected["text"]:
            self.problems.append(f"{label}: rendered result set differs")

    def crashed(self, label, error):
        self.attempted += len(self.expected["cells"]) if self.expected else 1
        self.failed += len(self.expected["cells"]) if self.expected else 1
        self.problems.append(f"{label}: raised {error!r}")

    def require(self, label, holds):
        if not holds:
            self.problems.append(f"{label} does not hold")


def load_reference(args):
    if args.size != "bench":
        return None
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)[args.workload].get(str(args.seed))


def fig12_ordering_holds(result) -> bool:
    """The assertions of ``benchmarks/test_bench_fig12.py``."""
    at_64 = [result.weighted_speedup(name, "No Svärd", 64) for name in FIG12_ORDER]
    improvements = {
        name: result.improvement(name, "Svärd-S0", 64) for name in FIG12_ORDER
    }
    return (
        all(a < b for a, b in zip(at_64, at_64[1:]))
        and all(value > 1.0 for value in improvements.values())
        and improvements["Hydra"] == min(improvements.values())
    )


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def run_pass(checker, label, fn):
    try:
        outcome = fn()
    except Exception as error:  # a failing cell is a result, not a crash
        checker.crashed(label, error)
        return None
    return outcome


def setup_probe(args) -> float:
    """The set-up time of a process that only sets up."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
            "--size", args.size, "--setup-probe",
        ],
        cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def measure_end_to_end(args, workload, work_dir, checker, setup_s):
    """Cold serial passes for ``--seconds``, each followed by a process
    that only sets up and by a block of the reference workload
    (``calibrate.py``).

    A warm-up pass comes first and is checked but not timed: it pays
    the program's lazy one-time work, which a later pass in the same
    process would not.  The peak memory is read after it, before the
    reference workload's own data has ever been allocated.  Each timed
    pass is scaled by the host speed of the blocks just before and just
    after it, and each set-up by that of the block just after it.  Each
    metric is the median over the run.
    """
    from calibrate import HostSpeed
    from passes import untraced_pass

    def checked_pass(label):
        outcome = run_pass(
            checker, label,
            lambda: untraced_pass(workload, args.seed, 1, work_dir),
        )
        if outcome is None:
            return None
        checker.check(label, outcome.cells, outcome.text)
        if (
            workload.name == "fig12-grid" and args.size == "bench"
            and args.seed in FIG12_ORDERING_SEEDS
        ):
            checker.require(
                f"{label}: the Fig 12 ordering",
                fig12_ordering_holds(outcome.results[0]),
            )
        return outcome

    warm_up = checked_pass("warm-up pass")
    if warm_up is None:
        return {}, []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = HostSpeed()
    speed.measure(BLOCK_S)
    raw_walls, raw_setups, walls, setups, factors = [], [], [], [], []
    cell_times = []
    started = time.perf_counter()
    while True:
        outcome = checked_pass(f"pass {len(walls) + 1}")
        if outcome is None:
            return {}, []
        try:
            raw_setups.append(setup_probe(args))
        except (subprocess.SubprocessError, ValueError, IndexError, KeyError) as error:
            checker.problems.append(f"set-up probe: {error!r}")
            return {}, []
        speed.measure(BLOCK_S)
        factor = speed.factor(len(walls), len(walls) + 1)
        factors.append(factor)
        raw_walls.append(outcome.wall_s)
        walls.append(outcome.wall_s * factor)
        setups.append(raw_setups[-1] * speed.factor(len(walls), len(walls)))
        cell_times.extend(run_s * factor for run_s in outcome.cell_run_s.values())
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(walls) > args.seconds:
            break
    notes = [
        f"raw wall of the warm-up pass (s): {warm_up.wall_s:.3f}",
        "raw pass walls (s): " + ", ".join(f"{w:.3f}" for w in raw_walls),
        "raw set-up times (s): " + ", ".join(f"{s:.3f}" for s in raw_setups)
        + f"; this process's own: {setup_s:.3f}",
        "host speed factors: " + ", ".join(f"{f:.3f}" for f in factors),
        f"cells: {len(cell_times) // len(walls)}, each timed {len(walls)} times",
    ]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cell_p50_s": (statistics.median(cell_times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, notes


def measure_per_layer(args, workload, work_dir, checker):
    from calibrate import HostSpeed
    from passes import untraced_pass
    from tracing import traced_pass

    speed = HostSpeed()
    rounds, round_times = [], []
    started = time.perf_counter()
    while not rounds or (
        time.perf_counter() - started + statistics.median(round_times)
        <= args.seconds
    ):
        round_started = time.perf_counter()
        label = f"round {len(rounds) + 1}"
        untraced = run_pass(
            checker, label + " untraced",
            lambda: untraced_pass(workload, args.seed, 1, work_dir),
        )
        if untraced is None:
            break
        checker.check(label + " untraced", untraced.cells, untraced.text)
        pooled = run_pass(
            checker, label + " pooled",
            lambda: untraced_pass(workload, args.seed, POOL_JOBS, work_dir),
        )
        if pooled is None:
            break
        checker.check(label + " pooled", pooled.cells, pooled.text)
        traced = run_pass(
            checker, label + " traced", lambda: traced_pass(workload, args.seed)
        )
        if traced is None:
            break
        traced_wall, cells, text, spans = traced
        checker.check(label + " traced", cells, text)
        layers = spans.metrics()
        orchestration = untraced.orchestration
        busy = sum(orchestration[part]["total"] for part in ("setup_s", "run_s", "store_s"))
        layers.update({
            "orchestration.setup_s": (orchestration["setup_s"]["total"], "s"),
            "orchestration.run_s": (orchestration["run_s"]["total"], "s"),
            "orchestration.store_s": (orchestration["store_s"]["total"], "s"),
            "orchestration.overhead_share": (orchestration["overhead_share"], "ratio"),
            "orchestration.result_bytes": (orchestration["result_bytes"]["total"], "B"),
            "orchestration.cell_tail_s": (max(untraced.cell_run_s.values()), "s"),
            "orchestration.wall_j2_s": (pooled.wall_s, "s"),
            "experiments.driver_s": (untraced.wall_s - busy, "s"),
            "trace_overhead_s": (traced_wall - untraced.wall_s, "s"),
        })
        # The self times add up to ``sim.run_s`` by definition
        # (tracing.py); what can go wrong is a proxy timing work outside
        # the span it is subtracted from, which leaves a self time
        # below zero.
        negative = sorted(
            name for name, (value, _) in layers.items()
            if name.endswith(".self_s") and value < 0
        )
        checker.require(
            f"{label}: no negative self time {negative}",
            not negative,
        )
        speed.measure(BLOCK_S)
        layers["host.speed_factor"] = (speed.factor(len(rounds), len(rounds)), "ratio")
        round_times.append(time.perf_counter() - round_started)
        rounds.append(layers)
    if not rounds:
        return {}, []
    metrics = {
        name: (statistics.median(r[name][0] for r in rounds), unit)
        for name, (_, unit) in rounds[0].items()
    }
    return metrics, [f"rounds (untraced, pooled and traced pass): {len(rounds)}"]


# ----------------------------------------------------------------------


def host_stamp():
    import numpy
    from repro.orchestration import code_version

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "code_version": code_version(),
    }


def git_commit():
    """HEAD of the checkout, read from ``.git`` if it has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload, work_dir = set_up(args)
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - STARTED
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        reference = load_reference(args)
        checker = Checker(reference)
        if args.trace:
            metrics, notes = measure_per_layer(args, workload, work_dir, checker)
        else:
            metrics, notes = measure_end_to_end(
                args, workload, work_dir, checker, setup_s
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    correct = bool(metrics) and checker.failed == 0 and not checker.problems
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"size {args.size}")
    print("host: " + json.dumps(host_stamp()))
    print(f"reference: {'pinned digests' if reference else 'the first pass'}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"cells: {checker.attempted} attempted, {checker.failed} failed "
          f"(fail_rate {checker.failed / max(checker.attempted, 1):.4f})")
    for problem in checker.problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
