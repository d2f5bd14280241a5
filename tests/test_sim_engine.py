"""Tests for the memory-system simulator and metrics."""

import pytest

from repro.defenses.base import GlobalThreshold, Mitigation
from repro.defenses.para import Para
from repro.defenses.rrs import RandomizedRowSwap
from repro.sim.config import MitigationCosts, SystemConfig
from repro.sim.engine import MemorySystem, TraceStep
from repro.sim.metrics import (
    compute_metrics,
    harmonic_speedup,
    max_slowdown,
    weighted_speedup,
)
from repro.workloads.suites import profile_by_name
from repro.workloads.synthetic import SyntheticTrace


class FixedTrace:
    """Deterministic trace for unit tests."""

    def __init__(self, steps):
        self.steps = list(steps)
        self._i = 0

    def next_step(self, chain):
        step = self.steps[self._i % len(self.steps)]
        self._i += 1
        return step


def small_config(**overrides):
    defaults = dict(
        cores=1, ranks=1, bank_groups=2, banks_per_group=2,
        rows_per_bank=4096, requests_per_core=200, mlp_per_core=2,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


class TestSystemConfig:
    def test_table4_defaults(self):
        config = SystemConfig()
        assert config.cores == 8
        assert config.ranks == 2
        assert config.total_banks == 32
        assert config.rows_per_bank == 128 * 1024
        assert config.column_cap == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(cores=0)
        with pytest.raises(ValueError):
            SystemConfig(column_cap=0)

    def test_mitigation_costs_ordering(self):
        costs = MitigationCosts()
        assert costs.victim_refresh_ns < costs.counter_access_ns
        assert costs.counter_access_ns < costs.migration_ns
        assert costs.swap_ns == pytest.approx(2 * costs.migration_ns)


class TestEngineBasics:
    def test_all_requests_complete(self):
        config = small_config()
        trace = FixedTrace([TraceStep(bank=0, row=5, column=c % 8, gap_ns=10.0)
                            for c in range(8)])
        result = MemorySystem(config, [trace]).run()
        assert result.cores[0].completed_requests == 200
        assert result.total_ns > 0

    def test_row_hits_cheaper_than_misses(self):
        config = small_config(requests_per_core=300)
        hit_trace = FixedTrace([TraceStep(bank=0, row=5, column=c % 64, gap_ns=5.0)
                                for c in range(64)])
        miss_trace = FixedTrace([TraceStep(bank=0, row=r, column=0, gap_ns=5.0)
                                 for r in range(64)])
        t_hits = MemorySystem(config, [hit_trace]).run().cores[0].finish_ns
        t_miss = MemorySystem(small_config(requests_per_core=300),
                              [miss_trace]).run().cores[0].finish_ns
        assert t_hits < t_miss * 0.6

    def test_row_hit_rate_reported(self):
        config = small_config()
        trace = FixedTrace([TraceStep(bank=0, row=5, column=c % 32, gap_ns=5.0)
                            for c in range(32)])
        result = MemorySystem(config, [trace]).run()
        assert result.row_hit_rate > 0.8

    def test_bank_parallelism_helps(self):
        serial = FixedTrace([TraceStep(bank=0, row=r % 64, column=0, gap_ns=2.0)
                             for r in range(64)])
        parallel = FixedTrace([TraceStep(bank=r % 4, row=r % 64, column=0, gap_ns=2.0)
                               for r in range(64)])
        t_serial = MemorySystem(small_config(mlp_per_core=4),
                                [serial]).run().cores[0].finish_ns
        t_parallel = MemorySystem(small_config(mlp_per_core=4),
                                  [parallel]).run().cores[0].finish_ns
        assert t_parallel < t_serial

    def test_refresh_issued(self):
        config = small_config(requests_per_core=2000)
        trace = FixedTrace([TraceStep(bank=0, row=r % 16, column=0, gap_ns=100.0)
                            for r in range(16)])
        result = MemorySystem(config, [trace]).run()
        assert result.refreshes_issued >= 1

    def test_trace_count_must_match_cores(self):
        config = small_config(cores=2)
        with pytest.raises(ValueError):
            MemorySystem(config, [FixedTrace([TraceStep(0, 0, 0)])])

    def test_multicore_contention_slows_cores(self):
        trace_factory = lambda: FixedTrace(
            [TraceStep(bank=0, row=r % 32, column=0, gap_ns=5.0) for r in range(32)]
        )
        alone = MemorySystem(small_config(), [trace_factory()]).run()
        shared = MemorySystem(
            small_config(cores=4), [trace_factory() for _ in range(4)]
        ).run()
        assert max(shared.finish_times()) > alone.cores[0].finish_ns

    def test_deterministic(self):
        config = small_config()
        make = lambda: SyntheticTrace(
            profile_by_name("ycsb"), total_banks=config.total_banks,
            rows_per_bank=config.rows_per_bank, seed=3,
        )
        a = MemorySystem(config, [make()]).run()
        b = MemorySystem(config, [make()]).run()
        assert a.finish_times() == b.finish_times()

    @pytest.mark.parametrize("defense", [None, "PARA"])
    def test_total_ns_covers_every_finish(self, defense):
        # A request's completion is computed when it is scheduled and
        # is never an event, so the last event can precede the last
        # finish; total_ns must still cover every core's finish.
        config = small_config(cores=2, requests_per_core=300)
        traces = [
            SyntheticTrace(
                profile_by_name("ycsb"), total_banks=config.total_banks,
                rows_per_bank=config.rows_per_bank, seed=seed,
            )
            for seed in range(config.cores)
        ]
        para = None
        if defense is not None:
            para = Para(64, rows_per_bank=config.rows_per_bank, seed=0)
        result = MemorySystem(config, traces, defense=para).run()
        assert result.total_ns >= max(result.finish_times())

    def test_total_ns_of_one_request_is_its_finish(self):
        config = small_config(requests_per_core=1, mlp_per_core=1)
        trace = FixedTrace([TraceStep(bank=0, row=5, column=0, gap_ns=10.0)])
        result = MemorySystem(config, [trace]).run()
        assert result.total_ns == result.cores[0].finish_ns > 10.0


class TestDefenseIntegration:
    def test_para_adds_overhead(self):
        config = small_config(requests_per_core=500)
        make = lambda: FixedTrace(
            [TraceStep(bank=0, row=r % 64, column=0, gap_ns=2.0) for r in range(64)]
        )
        base = MemorySystem(config, [make()]).run().cores[0].finish_ns
        defended = MemorySystem(
            config, [make()],
            defense=Para(64, rows_per_bank=config.rows_per_bank, seed=0),
        ).run().cores[0].finish_ns
        assert defended > base * 1.2

    def test_overhead_grows_as_threshold_shrinks(self):
        config = small_config(requests_per_core=500)
        make = lambda: FixedTrace(
            [TraceStep(bank=0, row=r % 64, column=0, gap_ns=2.0) for r in range(64)]
        )
        times = {}
        for hc in (4096, 256, 64):
            defense = Para(hc, rows_per_bank=config.rows_per_bank, seed=0)
            times[hc] = MemorySystem(config, [make()], defense=defense).run().cores[0].finish_ns
        assert times[64] > times[256] > times[4096]

    def test_unknown_mitigation_is_an_error(self):
        # An action the engine cannot cost must not run as free.
        class Unknown(Mitigation):
            pass

        class UnknownDefense:
            def on_activation(self, bank, row, now_ns):
                return [Unknown()]

            def on_refresh_window(self, now_ns):
                pass

        trace = FixedTrace([TraceStep(bank=0, row=5, column=0, gap_ns=2.0)])
        system = MemorySystem(small_config(), [trace], defense=UnknownDefense())
        with pytest.raises(TypeError, match="Unknown"):
            system.run()

    def test_rrs_swaps_expensive(self):
        config = small_config(requests_per_core=400)
        make = lambda: FixedTrace(
            [TraceStep(bank=0, row=r, column=0, gap_ns=2.0) for r in (7, 9)]
        )
        base = MemorySystem(config, [make()]).run().cores[0].finish_ns
        defense = RandomizedRowSwap(64, rows_per_bank=config.rows_per_bank, seed=0)
        defended = MemorySystem(config, [make()], defense=defense).run()
        assert defended.cores[0].finish_ns > base * 1.5
        assert defense.stats.swaps > 0


class TestMetrics:
    def test_weighted_speedup_identity(self):
        assert weighted_speedup([1.0, 1.0], [1.0, 1.0]) == pytest.approx(2.0)

    def test_weighted_speedup_slowdown(self):
        assert weighted_speedup([1.0, 1.0], [2.0, 2.0]) == pytest.approx(1.0)

    def test_harmonic_speedup(self):
        assert harmonic_speedup([1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0)
        assert harmonic_speedup([1.0, 1.0], [2.0, 2.0]) == pytest.approx(0.5)

    def test_max_slowdown(self):
        assert max_slowdown([1.0, 1.0], [3.0, 1.5]) == pytest.approx(3.0)

    def test_normalization(self):
        a = compute_metrics([1.0] * 4, [2.0] * 4)
        b = compute_metrics([1.0] * 4, [4.0] * 4)
        normalized = b.normalized_to(a)
        assert normalized.weighted_speedup == pytest.approx(0.5)
        assert normalized.max_slowdown == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_speedup([0.0], [1.0])
