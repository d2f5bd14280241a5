"""Pin the reference digests that run.py checks every cell against.

    python3 perfbench/pin.py            # seeds 0 and 1
    python3 perfbench/pin.py 0 1 7      # any seeds

For each workload and seed this makes one untraced serial pass and one
traced pass, refuses to pin if the two disagree on any cell, and writes
the digests to ``reference.json``.  Re-pin only when a change is meant
to alter results; a change that claims a speed-up must leave every
digest as it is.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from passes import untraced_pass  # noqa: E402
from tracing import traced_pass  # noqa: E402
from workloads import workloads  # noqa: E402


def main(argv) -> int:
    seeds = [int(seed) for seed in argv] or [0, 1]
    work_dir = ROOT / ".perfbench-work" / "pin"
    work_dir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name, workload in workloads("bench").items():
            reference[name] = {}
            for seed in seeds:
                untraced = untraced_pass(workload, seed, 1, work_dir)
                _, cells, text, _ = traced_pass(workload, seed)
                if (cells, text) != (untraced.cells, untraced.text):
                    print(f"{name} seed {seed}: traced pass disagrees",
                          file=sys.stderr)
                    return 1
                reference[name][str(seed)] = {
                    "text": text, "cells": dict(sorted(cells.items())),
                }
                print(f"{name} seed {seed}: {len(cells)} cells pinned")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
