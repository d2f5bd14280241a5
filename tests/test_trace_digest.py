"""Bit-exact digests of ``SyntheticTrace`` step streams.

Each stream draws 9000 steps from one trace on an interleaved 4-chain
schedule (chain ``i % 4`` for step ``i``) and pins the sha256 of every
step by value.  9000 steps cross two batch refills (``_BATCH`` is
4096), so a change to the refill, the draw order or how a batch is
read shows up here even where the engine digests, which stop short of
the first refill, cannot see it.  The grid is every suite profile on
seeds 0 and 1, at the paper's geometry.

Regenerating after an *intentional* behaviour change::

    PYTHONPATH=src python -m pytest tests/test_trace_digest.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.workloads.suites import SUITE_NAMES, profile_by_name
from repro.workloads.synthetic import _BATCH, SyntheticTrace

GOLDEN = Path(__file__).parent / "golden" / "trace_digest.json"

SEEDS = (0, 1)
CHAINS = 4
STEPS = 9000


def stream_digest(suite: str, seed: int) -> str:
    trace = SyntheticTrace(profile_by_name(suite), seed=seed)
    sha = hashlib.sha256()
    for i in range(STEPS):
        step = trace.next_step(i % CHAINS)
        sha.update(
            f"{step.bank} {step.row} {step.column} {step.is_write!r} "
            f"{step.gap_ns!r}\n".encode()
        )
    return sha.hexdigest()


@pytest.fixture(scope="module")
def digests():
    return {
        f"{suite}/seed{seed}": stream_digest(suite, seed)
        for suite in SUITE_NAMES
        for seed in SEEDS
    }


def test_streams_cross_two_refills():
    assert STEPS > 2 * _BATCH


def test_trace_digest(digests, request):
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip("golden regenerated")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(golden)
    mismatched = [key for key in golden if digests[key] != golden[key]]
    assert not mismatched, f"streams drifted from the golden: {mismatched}"
