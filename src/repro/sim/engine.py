"""The event-driven memory-system simulator.

Cores issue dependent chains of memory requests (MLP = number of
chains); the memory controller queues them per bank and schedules
FR-FCFS with a column cap under DDR4 bank/rank timing.  Every row
activation is reported to the attached defense, whose preventive
actions are charged as bank-busy time (refreshes, migrations, swaps,
counter traffic) or as activation delay (throttling).

The engine is deliberately command-granular rather than cycle-
granular: every timing decision uses the JEDEC parameters, but time
advances from event to event, which keeps full Fig 12 sweeps
tractable in Python while preserving the contention behaviour the
defenses' overheads come from.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.defenses.base import (
    CounterTraffic,
    Defense,
    Mitigation,
    RowMigration,
    RowSwap,
    ThrottleDelay,
    VictimRefresh,
)
from repro.dram.commands import (
    Command,
    CommandKind,
    TimedCommand,
    act as _act,
    pre as _pre,
    rd as _rd,
    wr as _wr,
)
from repro.dram.timing import REFRESH_PER_BANK
from repro.sim.config import MitigationCosts, SystemConfig
from repro.sim.request import MemoryRequest


@dataclass(frozen=True)
class TraceStep:
    """One memory request emitted by a workload trace."""

    bank: int
    row: int
    column: int
    is_write: bool = False
    gap_ns: float = 0.0


class Trace(Protocol):
    """A per-core workload: yields the next request of one chain."""

    def next_step(self, chain: int) -> TraceStep: ...


@dataclass
class CoreResult:
    """Per-core outcome of one simulation."""

    core: int
    completed_requests: int
    finish_ns: float
    total_latency_ns: float


@dataclass
class SimulationResult:
    """Outcome of one run: per-core times plus controller counters."""

    cores: List[CoreResult]
    total_ns: float
    row_hits: int
    row_misses: int
    activations: int
    refreshes_issued: int

    def finish_times(self) -> List[float]:
        return [core.finish_ns for core in self.cores]

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class _BankState:
    """Per-bank scheduler state.

    Bank timing (``busy_until``/``wake_at``) lives in numpy arrays owned
    by :meth:`MemorySystem.run` so the refresh sweep can update every
    bank at once.
    """

    __slots__ = ("open_row", "last_act_ns", "hits_in_row", "queue")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.last_act_ns = -1e18
        self.hits_in_row = 0
        self.queue: deque = deque()


class MemorySystem:
    """Wires cores, the memory controller, and an optional defense."""

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[Trace],
        *,
        defense: Optional[Defense] = None,
        seed: int = 0,
    ) -> None:
        if len(traces) != config.cores:
            raise ValueError(
                f"{config.cores} cores need {config.cores} traces, "
                f"got {len(traces)}"
            )
        self.config = config
        self.traces = list(traces)
        self.defense = defense
        self.costs = MitigationCosts(
            timing=config.timing, columns_per_row=config.columns_per_row
        )
        self.seed = seed
        self._command_log: Optional[List[TimedCommand]] = None

    # ------------------------------------------------------------------

    def run(
        self, *, command_log: Optional[List[TimedCommand]] = None
    ) -> SimulationResult:
        """Simulate to completion.

        ``command_log``, when given, receives the implied DDR4 command
        stream as :class:`TimedCommand` records (ACT/PRE/RD/WR from
        demand servicing, per-bank REF at each bank's effective refresh
        start, and the implied PRE that ends a preventive-action burst).
        Logging is off by default and never changes a single scheduling
        decision -- results are bit-identical either way; the log is
        meant for :class:`repro.sim.conformance.TimingChecker`.  The
        log is *not* globally time-sorted (banks drain independently);
        the checker sorts it.
        """
        self._command_log = command_log
        config = self.config
        timing = config.timing
        n_banks = config.total_banks
        banks = [_BankState() for _ in range(n_banks)]
        busy_until = np.zeros(n_banks)
        wake_at = np.full(n_banks, np.inf)
        has_queue = np.zeros(n_banks, dtype=bool)
        rank_act_windows: List[deque] = [deque(maxlen=4) for _ in range(config.ranks)]
        rank_last_act = [-1e18] * config.ranks

        remaining = [config.requests_per_core] * config.cores
        in_flight = [0] * config.cores
        finish_time = [0.0] * config.cores
        total_latency = [0.0] * config.cores
        completed = [0] * config.cores

        self._stat_row_hits = 0
        self._stat_row_misses = 0
        self._stat_activations = 0
        refreshes = 0

        heap: List[Tuple[float, int, str, tuple]] = []
        seq = 0

        def push(time: float, kind: str, payload: tuple) -> None:
            nonlocal seq
            heapq.heappush(heap, (time, seq, kind, payload))
            seq += 1

        # Initial chain arrivals.
        issued = [0] * config.cores
        for core in range(config.cores):
            chains = min(config.mlp_per_core, remaining[core])
            for chain in range(chains):
                step = self.traces[core].next_step(chain)
                issued[core] += 1
                push(step.gap_ns, "arrival", (core, chain, step))

        # Periodic refresh and defense epochs.  All-bank generations
        # (DDR4) issue one REF per tREFI; sliced generations rotate --
        # LPDDR4 REFpb over the rank's banks, DDR5 REFsb over the bank
        # index within each group -- spacing slices tREFI / slices
        # apart so every bank still refreshes once per tREFI.
        refresh_slices = timing.refresh_slices(
            banks_per_rank=config.banks_per_rank,
            banks_per_group=config.banks_per_group,
        )
        if refresh_slices == 1:
            push(timing.tREFI, "refresh", ())
        else:
            refresh_interval = timing.tREFI / refresh_slices
            refresh_latency = timing.refresh_latency_ns
            if timing.refresh_granularity == REFRESH_PER_BANK:
                refresh_targets = [
                    [
                        rank * config.banks_per_rank + k
                        for rank in range(config.ranks)
                    ]
                    for k in range(refresh_slices)
                ]
            else:
                refresh_targets = [
                    [
                        rank * config.banks_per_rank
                        + group * config.banks_per_group
                        + k
                        for rank in range(config.ranks)
                        for group in range(config.bank_groups)
                    ]
                    for k in range(refresh_slices)
                ]
            push(refresh_interval, "refresh", (0,))
        epoch_ns = config.defense_epoch_ns or timing.tREFW
        if self.defense is not None:
            push(epoch_ns, "epoch", ())

        banks_per_rank = config.banks_per_rank

        def rank_of(bank: int) -> int:
            return bank // banks_per_rank

        # Hot-loop locals: try_schedule runs once per serviced request,
        # so the invariant attribute lookups (config knobs, bound
        # methods, trace list) are hoisted out of the closure body.
        column_cap = config.column_cap
        requests_per_core = config.requests_per_core
        pick = self._pick
        service = self._service
        traces = self.traces

        def try_schedule(bank_id: int, now: float) -> None:
            nonlocal total_completed, queued_total
            bank = banks[bank_id]
            while bank.queue:
                busy = busy_until[bank_id]
                if busy > now + 1e-9:
                    if busy < wake_at[bank_id]:
                        wake_at[bank_id] = busy
                        push(busy, "bank_free", (bank_id,))
                    return
                request = pick(bank, column_cap)
                queued_total -= 1
                if not bank.queue:
                    has_queue[bank_id] = False
                start = max(now, busy)
                finish = service(
                    bank, bank_id, request, start,
                    rank_act_windows, rank_last_act, rank_of, busy_until,
                )
                request.completion_ns = finish
                core = request.core
                completed[core] += 1
                total_completed += 1
                total_latency[core] += finish - request.arrival_ns
                in_flight[core] -= 1
                finish_time[core] = max(finish_time[core], finish)
                if issued[core] < requests_per_core:
                    step = traces[core].next_step(request.chain)
                    issued[core] += 1
                    push(finish + step.gap_ns, "arrival", (core, request.chain, step))
                now = max(now, finish)

        # ------------------------------------------------------------------
        # The event loop.
        # ------------------------------------------------------------------
        last_time = 0.0
        total_requests = config.requests_per_core * config.cores
        total_completed = 0
        queued_total = 0

        while heap:
            time, _, kind, payload = heapq.heappop(heap)
            last_time = max(last_time, time)
            if kind == "arrival":
                core, chain, step = payload
                request = MemoryRequest(
                    core=core,
                    bank=step.bank % n_banks,
                    row=step.row % config.rows_per_bank,
                    column=step.column % config.columns_per_row,
                    is_write=step.is_write,
                    arrival_ns=time,
                    chain=chain,
                )
                in_flight[core] += 1
                banks[request.bank].queue.append(request)
                queued_total += 1
                has_queue[request.bank] = True
                try_schedule(request.bank, time)
            elif kind == "bank_free":
                # Drain every bank_free at this timestamp in one go.
                # Banks are independent at equal times (nothing a bank's
                # scheduling does can retroactively wake another bank at
                # the *same* instant), so this batches the heap churn
                # without reordering any service decision.
                wake_at[payload[0]] = np.inf
                try_schedule(payload[0], time)
                while heap and heap[0][0] == time and heap[0][2] == "bank_free":
                    _, _, _, next_payload = heapq.heappop(heap)
                    wake_at[next_payload[0]] = np.inf
                    try_schedule(next_payload[0], time)
            elif kind == "refresh" and refresh_slices > 1:
                # Sliced refresh (LPDDR4 per-bank / DDR5 same-bank):
                # each REF locks only its slice's banks, scalar path.
                refreshes += 1
                slice_index = payload[0]
                for bank_id in refresh_targets[slice_index]:
                    ref_start = max(float(busy_until[bank_id]), time)
                    if command_log is not None:
                        command_log.append(TimedCommand(
                            ref_start,
                            Command(
                                CommandKind.REF,
                                rank=rank_of(bank_id),
                                bank=bank_id,
                            ),
                        ))
                    busy_until[bank_id] = ref_start + refresh_latency
                    banks[bank_id].open_row = None
                    if has_queue[bank_id] and busy_until[bank_id] < wake_at[bank_id]:
                        wake_at[bank_id] = busy_until[bank_id]
                        push(float(busy_until[bank_id]), "bank_free", (bank_id,))
                if total_completed < total_requests:
                    push(
                        time + refresh_interval,
                        "refresh",
                        ((slice_index + 1) % refresh_slices,),
                    )
            elif kind == "refresh":
                refreshes += 1
                if command_log is not None:
                    # The all-bank refresh is charged per bank as the
                    # bank becomes free (busy banks finish their work
                    # first); log each bank's effective refresh start,
                    # the instant its tRFC lockout begins.
                    for bank_id in range(n_banks):
                        command_log.append(TimedCommand(
                            max(float(busy_until[bank_id]), time),
                            Command(
                                CommandKind.REF,
                                rank=rank_of(bank_id),
                                bank=bank_id,
                            ),
                        ))
                # All-bank refresh: one vectorized timing sweep instead
                # of a per-bank pass.
                np.maximum(busy_until, time, out=busy_until)
                busy_until += timing.tRFC
                for bank in banks:
                    bank.open_row = None
                # flatnonzero walks banks in ascending order -- the same
                # push order the per-bank loop produced.
                for bank_id in np.flatnonzero(has_queue & (busy_until < wake_at)):
                    wake_at[bank_id] = busy_until[bank_id]
                    push(busy_until[bank_id], "bank_free", (int(bank_id),))
                if total_completed < total_requests:
                    push(time + timing.tREFI, "refresh", ())
            elif kind == "epoch":
                if self.defense is not None:
                    self.defense.on_refresh_window(time)
                    if total_completed < total_requests:
                        push(time + epoch_ns, "epoch", ())
            if total_completed >= total_requests and queued_total == 0:
                break

        cores = [
            CoreResult(
                core=core,
                completed_requests=completed[core],
                finish_ns=float(finish_time[core]),
                total_latency_ns=float(total_latency[core]),
            )
            for core in range(config.cores)
        ]
        return SimulationResult(
            cores=cores,
            total_ns=float(last_time),
            row_hits=self._stat_row_hits,
            row_misses=self._stat_row_misses,
            activations=self._stat_activations,
            refreshes_issued=refreshes,
        )

    # ------------------------------------------------------------------

    def _pick(self, bank: _BankState, column_cap: int) -> MemoryRequest:
        """FR-FCFS with a column cap: prefer row hits, oldest first."""
        if bank.open_row is not None and bank.hits_in_row < column_cap:
            for index, request in enumerate(bank.queue):
                if request.row == bank.open_row:
                    del bank.queue[index]
                    return request
        return bank.queue.popleft()

    def _service(
        self,
        bank: _BankState,
        bank_id: int,
        request: MemoryRequest,
        start: float,
        rank_act_windows: List[deque],
        rank_last_act: List[float],
        rank_of,
        busy_until: np.ndarray,
    ) -> float:
        """Serve one request; returns its completion time."""
        # One attribute fetch per timing parameter per call: this is
        # the hottest function in a Fig 12 sweep, and the dataclass
        # attribute walk (self -> config -> timing -> field) shows up.
        timing = self.config.timing
        tRCD = timing.tRCD
        tCL = timing.tCL
        tBL = timing.tBL
        log = self._command_log
        t = start
        if bank.open_row == request.row:
            self._stat_row_hits += 1
            data_start = max(t, bank.last_act_ns + tRCD)
            # Summed left-to-right exactly as before the locals were
            # hoisted: float addition is order-sensitive and these
            # results are golden-protected bit-for-bit.
            finish = data_start + tCL + tBL
            busy_until[bank_id] = data_start + timing.column_to_column_ns
            bank.hits_in_row += 1
            if log is not None:
                column_cmd = _wr if request.is_write else _rd
                log.append(TimedCommand(
                    data_start,
                    column_cmd(bank_id, request.column, rank=rank_of(bank_id)),
                ))
            return finish

        # Row miss: precharge (if open) + activate.  The scheduler
        # does not track bank-group adjacency, so it paces ACTs at the
        # generation's rank-level minimum (tRRD_S with bank groups,
        # the single tRRD without).
        tRRD_S = timing.act_to_act_ns
        tFAW = timing.tFAW
        rank = rank_of(bank_id)
        self._stat_row_misses += 1
        if bank.open_row is not None:
            # Split from the original one-liner `t = max(...) + tRP`
            # with identical operations in identical order, so the
            # PRE issue time is observable for the log.
            t = max(t, bank.last_act_ns + timing.tRAS)
            if log is not None:
                log.append(TimedCommand(t, _pre(bank_id, rank=rank)))
            t = t + timing.tRP
        act_time = max(t, rank_last_act[rank] + tRRD_S)
        window = rank_act_windows[rank]
        if len(window) == 4:
            act_time = max(act_time, window[0] + tFAW)
        if log is not None:
            log.append(TimedCommand(
                act_time, _act(bank_id, request.row, rank=rank)
            ))

        chain_delay = 0.0
        preventive: List[float] = []
        if self.defense is not None:
            mitigations = self.defense.on_activation(bank_id, request.row, act_time)
            chain_delay, preventive = self._mitigation_costs(mitigations)
        self._stat_activations += 1

        rank_last_act[rank] = act_time
        window.append(act_time)

        bank.open_row = request.row
        bank.last_act_ns = act_time
        bank.hits_in_row = 1
        data_start = act_time + tRCD
        if log is not None:
            column_cmd = _wr if request.is_write else _rd
            log.append(TimedCommand(
                data_start, column_cmd(bank_id, request.column, rank=rank)
            ))
        # Throttling (BlockHammer) stalls the issuing chain, not the
        # bank: other requests keep flowing while the aggressor waits.
        finish = data_start + tCL + tBL + chain_delay

        # Preventive actions are real DRAM activations: they occupy the
        # bank *and* consume rank-level ACT bandwidth (tRRD/tFAW), which
        # is how low-threshold defenses saturate the memory system.
        free_at = data_start + tBL
        for occupancy in preventive:
            act = max(free_at, rank_last_act[rank] + tRRD_S)
            if len(window) == 4:
                act = max(act, window[0] + tFAW)
            window.append(act)
            rank_last_act[rank] = act
            free_at = act + occupancy
        busy_until[bank_id] = free_at
        if preventive:
            # The preventive activations end with the bank precharged;
            # the just-opened demand row is lost.
            bank.open_row = None
            bank.hits_in_row = 0
            if log is not None:
                # Preventive bursts are modeled as opaque bank-busy
                # time (each occupancy already includes a full row
                # cycle), so only the closing precharge is observable:
                # the bank is usable again tRP after it.
                log.append(TimedCommand(
                    free_at - timing.tRP, _pre(bank_id, rank=rank)
                ))
        return finish

    def _mitigation_costs(
        self, mitigations: Sequence[Mitigation]
    ) -> Tuple[float, List[float]]:
        """(chain delay, per-preventive-ACT occupancy list) of actions.

        Each entry of the occupancy list is one preventive activation
        and the time the bank stays busy with it: a row cycle for a
        victim refresh or counter access, a row cycle plus the column
        burst for each half of a migration/swap.
        """
        costs = self.costs
        burst = self.config.columns_per_row * self.config.timing.column_to_column_ns
        delay = 0.0
        preventive: List[float] = []
        for mitigation in mitigations:
            if isinstance(mitigation, ThrottleDelay):
                delay += mitigation.delay_ns
            elif isinstance(mitigation, VictimRefresh):
                preventive.extend(
                    [costs.victim_refresh_ns] * len(mitigation.rows)
                )
            elif isinstance(mitigation, RowMigration):
                # Read the source row out, write the destination row.
                preventive.extend([costs.victim_refresh_ns + burst] * 2)
            elif isinstance(mitigation, RowSwap):
                preventive.extend([costs.victim_refresh_ns + burst] * 4)
            elif isinstance(mitigation, CounterTraffic):
                preventive.extend(
                    [costs.counter_access_ns]
                    * (mitigation.reads + mitigation.writes)
                )
        return delay, preventive
