"""Self-check of the benchmark at tiny scale (about a minute).

    python3 perfbench/selfcheck.py

For every workload and both trace modes it runs ``run.py --size tiny``
and checks that the result line names exactly the metrics
``BENCHMARK.json`` lists, with their units, and that every output
checked out (``run.py`` fails a run whose traced pass changes any
cell).  It also checks that ``reference.json`` pins at least two seeds
per workload, and that in a directory holding only the benchmark
``run.py`` exits non-zero without printing a result.  The file name
keeps it out of pytest's collection, so tier-1 time does not grow.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} --trace {trace}"
            done = run(
                ["--workload", workload["name"], "--seed", "3", "--seconds",
                 "2", "--trace", str(trace), "--size", "tiny"],
                ROOT,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            units = {
                name: metric["unit"]
                for name, metric in result["metrics"].items()
            }
            if done.returncode != 0 or not result["correct"]:
                failures.append(f"{label}: not correct\n{done.stdout}")
            if units != expected[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
            print(f"{label}: {len(units)} metrics, "
                  f"{result['attempted']} cells checked")

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        if len(reference.get(workload["name"], {})) < 2:
            failures.append(f"{workload['name']}: fewer than two pinned seeds")

    bare = ROOT / ".perfbench-work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        HERE, bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(["--workload", "fig12-grid", "--seed", "0", "--seconds",
                    "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if done.returncode == 0 or done.stdout.strip():
        failures.append("without the program, run.py did not fail cleanly")
    print(f"benchmark alone: exit {done.returncode}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
