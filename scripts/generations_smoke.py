#!/usr/bin/env python
"""`make generations-smoke`: the device-generation model end to end.

Two halves, both cheap enough for every ``make test``:

1. a tiny sweep per generation (DDR4-3200, DDR4-2666, LPDDR4-3200,
   DDR5-4800, each undefended and under PARA) runs with command
   logging on and must replay with **zero** violations against the
   rulebook derived from that generation's own rule table -- LPDDR4's
   per-bank refresh checks tRFCpb, DDR5's same-bank refresh checks
   tRFCsb;
2. the refactor guard: `runner check-timing` at the default DDR4-3200
   settings must still emit a JSON document byte-identical to the
   golden captured before the generation refactor
   (``tests/golden/check_timing_ddr4.json``).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conformance_smoke import build_system  # noqa: E402
from repro.sim.conformance import check_run  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "check_timing_ddr4.json"

#: (device, suite, defense) cells: every generation both undefended
#: and under PARA, DDR4 at two speed grades.
SWEEP = [
    ("DDR4-3200", "ycsb", None),
    ("DDR4-3200", "spec17", "PARA"),
    ("DDR4-2666", "tpc", None),
    ("DDR4-2666", "ycsb", "PARA"),
    ("LPDDR4-3200", "ycsb", None),
    ("LPDDR4-3200", "spec17", "PARA"),
    ("DDR5-4800", "ycsb", None),
    ("DDR5-4800", "spec17", "PARA"),
]

#: The refresh rule each generation's rulebook must actually exercise.
REFRESH_RULE = {
    "DDR4": "tRFC",
    "LPDDR4": "tRFCpb",
    "DDR5": "tRFCsb",
}


def main() -> int:
    print("generations-smoke: replaying every generation's rulebook")
    for device, suite, defense_name in SWEEP:
        system = build_system(device, suite, defense_name)
        result, report = check_run(system)
        label = f"{device}/{suite}/{defense_name or 'none'}"
        if not report.ok:
            print(f"  FAIL {label}:")
            print(report.render_text())
            return 1
        refresh_rule = REFRESH_RULE[device.split("-")[0]]
        if report.checks.get(refresh_rule, 0) <= 0:
            print(
                f"  FAIL {label}: rulebook never exercised {refresh_rule} "
                f"(checks: {sorted(report.checks)})"
            )
            return 1
        print(
            f"  ok {label}: {report.commands} commands, "
            f"{sum(report.checks.values())} checks, "
            f"{report.checks[refresh_rule]}x {refresh_rule}, "
            f"{result.refreshes_issued} refreshes"
        )

    # Refactor guard: the DDR4 check-timing document must not have
    # moved by a single byte since before the generation model landed.
    command = [
        sys.executable, "-m", "repro.experiments.runner", "check-timing",
        "--json", "--cores", "2", "--requests-per-core", "1500",
        "--rows-per-bank", "4096", "--suite", "ycsb", "--seed", "0",
    ]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        env={**__import__("os").environ, "PYTHONPATH": "src"},
    )
    if proc.returncode != 0:
        print(f"  FAIL check-timing exited {proc.returncode}:")
        print(proc.stderr)
        return 1
    golden = GOLDEN.read_text()
    if proc.stdout != golden:
        print("  FAIL DDR4 check-timing output drifted from the golden:")
        print(f"    golden: {GOLDEN}")
        print(f"    got {len(proc.stdout)} bytes, want {len(golden)} bytes")
        return 1
    print(f"  ok DDR4 check-timing byte-identical to {GOLDEN.name}")
    print("generations-smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
