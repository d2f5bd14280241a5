"""Loop-reference oracle for the batched platform characterization.

This module preserves the original per-row Algorithm 1 loop: one
:meth:`repro.bender.TestPlatform.measure_ber` call per (row, pattern,
hammer count, iteration).  It is deliberately slow and deliberately
simple -- its only job is to be an independently-auditable oracle that
the vectorized :meth:`CharacterizationRunner._characterize_bank_platform`
must match bit-for-bit (asserted by the property tests and the
``make test`` kernels smoke).

Do not optimize this file.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.characterization.runner import BankProfile, CharacterizationRunner
from repro.faults.datapatterns import DATA_PATTERNS, WCDP_CANDIDATES


def characterize_bank_loop(
    runner: CharacterizationRunner,
    bank: int,
    rows: Optional[Sequence[int]] = None,
) -> BankProfile:
    """Run Algorithm 1 for one bank with the per-row reference loop.

    Produces a :class:`BankProfile` with the same measured-rows-sized
    shape as the batched kernel path, so profiles from both can be
    compared array-for-array.
    """
    platform = runner._platform
    if platform is None:
        raise ValueError("loop reference requires a platform-mode runner")
    config = runner.config
    t_on = config.t_agg_on_ns
    row_list = list(rows) if rows is not None else list(
        range(config.rows_per_bank)
    )
    n = len(row_list)
    hc_grid = sorted(config.hc_grid)
    hc_max = hc_grid[-1]

    wcdp_index = np.zeros(n, dtype=np.int8)
    ber_by_hc: Dict[int, np.ndarray] = {
        int(hc): np.zeros(n) for hc in hc_grid
    }

    for slot, row in enumerate(row_list):
        # Find the WCDP at the maximum hammer count.
        best_pattern, best_ber = DATA_PATTERNS[0], -1.0
        for pattern in DATA_PATTERNS:
            result = platform.measure_ber(bank, row, pattern, hc_max, t_on)
            if result.ber > best_ber:
                best_pattern, best_ber = pattern, result.ber
        if best_pattern in WCDP_CANDIDATES:
            wcdp_index[slot] = WCDP_CANDIDATES.index(best_pattern)

        # Sweep the hammer count at the WCDP, worst case across
        # iterations.
        for hc in hc_grid:
            worst = 0.0
            for _ in range(config.iterations):
                result = platform.measure_ber(bank, row, best_pattern, hc, t_on)
                worst = max(worst, result.ber)
            ber_by_hc[int(hc)][slot] = worst

    return runner._bank_profile(
        bank, wcdp_index, ber_by_hc,
        np.asarray(row_list, dtype=np.int64), config.rows_per_bank,
    )
