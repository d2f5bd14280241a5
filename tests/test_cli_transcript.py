"""Transcript pin of the experiment CLI's `run` and `recipe run` paths.

Each case drives :func:`repro.experiments.runner.main` in-process and
records everything a user or script can observe: the exit code,
stdout, stderr, and the artifact tree written under ``--out`` (JSON
artifacts with their ``meta.provenance`` execution record dropped,
other files by sha256).  The transcript is compared byte for byte
against ``tests/golden/cli_transcript.json``, so any refactor of the
sweep loop behind these commands must leave their output unchanged.

Regenerating (after an *intentional* CLI change)::

    PYTHONPATH=src python -m pytest tests/test_cli_transcript.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import runner

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_transcript.json"

#: A cheap two-seed recipe: sec64 is analytic, so both cells are instant.
TWO_SEED_RECIPE = {
    "format": 1,
    "name": "cli-pin",
    "version": 2,
    "description": "hardware cost at two seeds",
    "experiments": ["sec64"],
    "seeds": [0, 1],
}

#: fig8 refuses a selection without Samsung modules, so both seeds of
#: its cells fail while sec64's succeed.
FAILING_RECIPE = dict(
    TWO_SEED_RECIPE, name="cli-pin-failing",
    experiments=["fig8", "sec64"], overrides={"modules": ["H0"]},
)

CASES = {
    "run-text": ["run", "sec64", "--no-cache"],
    "run-json-stdout": ["run", "sec64", "--no-cache", "--format", "json"],
    "run-json-out": [
        "run", "sec64", "--no-cache", "--format", "json", "--out", "{out}",
    ],
    "run-unknown-experiment": ["run", "sec64", "fig99", "--no-cache"],
    "run-failing-cell": [
        "run", "fig8", "sec64", "--modules", "H0", "--no-cache",
    ],
    "recipe-text-stdout": [
        "recipe", "run", "{recipe}", "--no-cache", "--format", "text",
    ],
    "recipe-json-out-report": [
        "recipe", "run", "{recipe}", "--no-cache", "--format", "json",
        "--out", "{out}", "--report",
    ],
    "recipe-failing-cells": [
        "recipe", "run", "{failing}", "--no-cache", "--format", "json",
        "--out", "{out}", "--report",
    ],
}


def _artifact_tree(out_dir: Path) -> dict:
    tree = {}
    if not out_dir.exists():
        return tree
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        relative = path.relative_to(out_dir).as_posix()
        if path.suffix == ".json":
            document = json.loads(path.read_text())
            document.get("meta", {}).pop("provenance", None)
            tree[relative] = document
        else:
            tree[relative] = hashlib.sha256(path.read_bytes()).hexdigest()
    return tree


def _transcript(argv_template, tmp_path, capsys) -> dict:
    recipe_path = tmp_path / "cli-pin.json"
    recipe_path.write_text(json.dumps(TWO_SEED_RECIPE))
    failing_path = tmp_path / "cli-pin-failing.json"
    failing_path.write_text(json.dumps(FAILING_RECIPE))
    out_dir = tmp_path / "out"
    argv = [
        part.format(out=out_dir, recipe=recipe_path, failing=failing_path)
        for part in argv_template
    ]
    code = runner.main(argv)
    captured = capsys.readouterr()

    def scrub(text: str) -> str:
        return text.replace(str(tmp_path), "<TMP>")

    return {
        "exit": code,
        "stdout": scrub(captured.out),
        "stderr": scrub(captured.err),
        "artifacts": _artifact_tree(out_dir),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_transcript(case, tmp_path, capsys, request):
    actual = _transcript(CASES[case], tmp_path, capsys)
    if request.config.getoption("--update-golden"):
        golden = (
            json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        )
        golden[case] = actual
        GOLDEN_PATH.write_text(
            json.dumps(golden, indent=2, sort_keys=True, ensure_ascii=False)
            + "\n"
        )
        return
    expected = json.loads(GOLDEN_PATH.read_text())[case]
    assert actual == expected
