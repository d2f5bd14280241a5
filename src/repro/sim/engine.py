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

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import List, NamedTuple, Optional, Protocol, Sequence, Tuple

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
from repro.dram.timing import REFRESH_ALL_BANK, REFRESH_PER_BANK
from repro.sim.config import MitigationCosts, SystemConfig

_INF = float("inf")


class TraceStep(NamedTuple):
    """One memory request emitted by a workload trace.

    A named tuple rather than a frozen dataclass: one is built per
    simulated request, and tuple construction is several times
    cheaper than a frozen dataclass's ``object.__setattr__`` walk.
    """

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


#: Event kinds.  Ints, not strings: the heap holds one event per
#: request and the loop dispatches on the kind of every one.
_ARRIVAL = 0
_BANK_FREE = 1
_REFRESH = 2
_EPOCH = 3


class _BankState:
    """Per-bank scheduler state.

    Bank timing (``busy_until``/``wake_at``/``has_queue``) lives in
    plain Python lists owned by :meth:`MemorySystem.run`.  Every
    scheduling decision reads or writes one bank's entry, about 10^5
    times per Fig 12 cell, while the all-bank refresh that once
    justified numpy arrays runs about 20 times: a numpy scalar read
    or write costs several times a list index, so lists win.
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
        log = command_log
        config = self.config
        timing = config.timing
        defense = self.defense
        n_banks = config.total_banks
        banks = [_BankState() for _ in range(n_banks)]
        busy_until = [0.0] * n_banks
        wake_at = [_INF] * n_banks
        has_queue = [False] * n_banks
        rank_act_windows: List[deque] = [deque(maxlen=4) for _ in range(config.ranks)]
        rank_last_act = [-1e18] * config.ranks

        finish_time = [0.0] * config.cores
        total_latency = [0.0] * config.cores
        completed = [0] * config.cores

        row_hits = 0
        row_misses = 0
        activations = 0
        refreshes = 0

        # Heap entries are ``(time, seq, kind, payload)``; ``seq`` breaks
        # time ties in push order.
        heap: List[Tuple[float, int, int, object]] = []
        next_seq = count().__next__
        next_steps = [trace.next_step for trace in self.traces]
        rows_per_bank = config.rows_per_bank
        columns_per_row = config.columns_per_row

        # Initial chain arrivals.  An arrival's payload is the queued
        # request record itself (see try_schedule), built here with
        # its coordinates reduced modulo the geometry.
        issued = [0] * config.cores
        for core in range(config.cores):
            chains = min(config.mlp_per_core, config.requests_per_core)
            for chain in range(chains):
                bank, row, column, is_write, gap = next_steps[core](chain)
                issued[core] += 1
                heappush(heap, (gap, next_seq(), _ARRIVAL, (
                    row % rows_per_bank, core, chain, gap,
                    column % columns_per_row, is_write, bank % n_banks,
                )))

        # Periodic refresh and defense epochs.  Refresh rotates over
        # slices spaced tREFI / slices apart, so every bank still
        # refreshes once per tREFI: DDR4's all-bank REF is one slice
        # of every bank, LPDDR4's REFpb rotates over the rank's banks,
        # DDR5's REFsb over the bank index within each group.  A
        # refresh event's payload is its slice index.
        refresh_slices = timing.refresh_slices(
            banks_per_rank=config.banks_per_rank,
            banks_per_group=config.banks_per_group,
        )
        refresh_interval = timing.tREFI / refresh_slices
        refresh_latency = timing.refresh_latency_ns
        if timing.refresh_granularity == REFRESH_ALL_BANK:
            refresh_targets = [range(n_banks)]
        elif timing.refresh_granularity == REFRESH_PER_BANK:
            refresh_targets = [
                [rank * config.banks_per_rank + k for rank in range(config.ranks)]
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
        heappush(heap, (refresh_interval, next_seq(), _REFRESH, 0))
        epoch_ns = config.defense_epoch_ns or timing.tREFW
        if defense is not None:
            heappush(heap, (epoch_ns, next_seq(), _EPOCH, None))

        # Hot-loop locals: every timing parameter, derived cost and
        # bound method the per-request path touches is read once here,
        # not walked through self -> config -> timing (or recomputed by
        # a property) on every request.
        banks_per_rank = config.banks_per_rank
        column_cap = config.column_cap
        requests_per_core = config.requests_per_core
        tRCD = timing.tRCD
        tCL = timing.tCL
        tBL = timing.tBL
        tRAS = timing.tRAS
        tRP = timing.tRP
        tFAW = timing.tFAW
        column_to_column = timing.column_to_column_ns
        # The scheduler does not track bank-group adjacency, so it
        # paces ACTs at the generation's rank-level minimum (tRRD_S
        # with bank groups, the single tRRD without).
        tRRD_S = timing.act_to_act_ns
        on_activation = defense.on_activation if defense is not None else None
        costs = self.costs
        victim_refresh_ns = costs.victim_refresh_ns
        counter_access_ns = costs.counter_access_ns
        # A migration/swap half streams the whole row: a row cycle plus
        # the column burst.
        burst = config.columns_per_row * column_to_column
        row_copy_ns = victim_refresh_ns + burst

        def mitigation_costs(
            mitigations: Sequence[Mitigation],
        ) -> Tuple[float, List[float]]:
            """(chain delay, per-preventive-ACT occupancy list) of actions.

            Each entry of the occupancy list is one preventive
            activation and the time the bank stays busy with it: a row
            cycle for a victim refresh or counter access, a row cycle
            plus the column burst for each half of a migration/swap.
            """
            delay = 0.0
            preventive: List[float] = []
            for mitigation in mitigations:
                if isinstance(mitigation, ThrottleDelay):
                    delay += mitigation.delay_ns
                elif isinstance(mitigation, VictimRefresh):
                    preventive.extend([victim_refresh_ns] * len(mitigation.rows))
                elif isinstance(mitigation, RowMigration):
                    # Read the source row out, write the destination row.
                    preventive.extend([row_copy_ns] * 2)
                elif isinstance(mitigation, RowSwap):
                    preventive.extend([row_copy_ns] * 4)
                elif isinstance(mitigation, CounterTraffic):
                    preventive.extend(
                        [counter_access_ns]
                        * (mitigation.reads + mitigation.writes)
                    )
                else:
                    # An action the engine cannot cost must not be
                    # simulated as free.
                    raise TypeError(
                        f"no DRAM cost for mitigation "
                        f"{type(mitigation).__name__}"
                    )
            return delay, preventive

        def try_schedule(bank_id: int, now: float) -> None:
            """Serve ``bank_id``'s queue from ``now`` until the bank is busy.

            The one closure call per scheduled request: picking,
            servicing and completing a request are inlined here.  Each
            two-argument ``max(a, b)`` of the timing arithmetic is
            written ``b if b > a else a`` (``max`` returns ``a`` unless
            ``b > a``; the comparison keeps that tie rule and skips a
            builtin call).

            A queued request is the tuple ``(row, core, chain,
            arrival_ns, column, is_write, bank)``, built when its
            arrival is pushed: a plain tuple costs no Python-level
            constructor, and the FR-FCFS scan reads ``candidate[0]``.
            """
            nonlocal total_completed
            nonlocal row_hits, row_misses, activations
            bank = banks[bank_id]
            queue = bank.queue
            while queue:
                busy = busy_until[bank_id]
                if busy > now + 1e-9:
                    if busy < wake_at[bank_id]:
                        wake_at[bank_id] = busy
                        heappush(heap, (busy, next_seq(), _BANK_FREE, bank_id))
                    return
                # FR-FCFS with a column cap: prefer row hits, oldest
                # first.
                request = None
                open_row = bank.open_row
                if open_row is not None and bank.hits_in_row < column_cap:
                    for index, candidate in enumerate(queue):
                        if candidate[0] == open_row:
                            del queue[index]
                            request = candidate
                            break
                if request is None:
                    request = queue.popleft()
                if not queue:
                    has_queue[bank_id] = False
                start = busy if busy > now else now
                row, core, chain, arrival_ns, column, is_write, _ = request

                if open_row == row:
                    row_hits += 1
                    data_start = bank.last_act_ns + tRCD
                    if not data_start > start:
                        data_start = start
                    # Summed left-to-right: float addition is
                    # order-sensitive and these results are
                    # golden-protected bit-for-bit.
                    finish = data_start + tCL + tBL
                    busy_until[bank_id] = data_start + column_to_column
                    bank.hits_in_row += 1
                    if log is not None:
                        column_cmd = _wr if is_write else _rd
                        log.append(TimedCommand(
                            data_start,
                            column_cmd(
                                bank_id, column, rank=bank_id // banks_per_rank,
                            ),
                        ))
                else:
                    # Row miss: precharge (if open) + activate.
                    rank = bank_id // banks_per_rank
                    row_misses += 1
                    t = start
                    if open_row is not None:
                        # Split from the one-liner `t = max(...) + tRP`
                        # with identical operations in identical order,
                        # so the PRE issue time is observable for the
                        # log.
                        ready = bank.last_act_ns + tRAS
                        if ready > t:
                            t = ready
                        if log is not None:
                            log.append(TimedCommand(t, _pre(bank_id, rank=rank)))
                        t = t + tRP
                    act_time = rank_last_act[rank] + tRRD_S
                    if not act_time > t:
                        act_time = t
                    window = rank_act_windows[rank]
                    if len(window) == 4:
                        ready = window[0] + tFAW
                        if ready > act_time:
                            act_time = ready
                    if log is not None:
                        log.append(TimedCommand(
                            act_time, _act(bank_id, row, rank=rank)
                        ))

                    chain_delay = 0.0
                    preventive: Sequence[float] = ()
                    if on_activation is not None:
                        mitigations = on_activation(bank_id, row, act_time)
                        if mitigations:
                            chain_delay, preventive = mitigation_costs(mitigations)
                    activations += 1

                    rank_last_act[rank] = act_time
                    window.append(act_time)

                    bank.open_row = row
                    bank.last_act_ns = act_time
                    bank.hits_in_row = 1
                    data_start = act_time + tRCD
                    if log is not None:
                        column_cmd = _wr if is_write else _rd
                        log.append(TimedCommand(
                            data_start, column_cmd(bank_id, column, rank=rank)
                        ))
                    # Throttling (BlockHammer) stalls the issuing chain,
                    # not the bank: other requests keep flowing while
                    # the aggressor waits.
                    finish = data_start + tCL + tBL + chain_delay

                    # Preventive actions are real DRAM activations: they
                    # occupy the bank *and* consume rank-level ACT
                    # bandwidth (tRRD/tFAW), which is how low-threshold
                    # defenses saturate the memory system.
                    free_at = data_start + tBL
                    for occupancy in preventive:
                        act = rank_last_act[rank] + tRRD_S
                        if not act > free_at:
                            act = free_at
                        if len(window) == 4:
                            ready = window[0] + tFAW
                            if ready > act:
                                act = ready
                        window.append(act)
                        rank_last_act[rank] = act
                        free_at = act + occupancy
                    busy_until[bank_id] = free_at
                    if preventive:
                        # The preventive activations end with the bank
                        # precharged; the just-opened demand row is lost.
                        bank.open_row = None
                        bank.hits_in_row = 0
                        if log is not None:
                            # Preventive bursts are modeled as opaque
                            # bank-busy time (each occupancy already
                            # includes a full row cycle), so only the
                            # closing precharge is observable: the bank
                            # is usable again tRP after it.
                            log.append(TimedCommand(
                                free_at - tRP, _pre(bank_id, rank=rank)
                            ))

                completed[core] += 1
                total_completed += 1
                total_latency[core] += finish - arrival_ns
                if finish > finish_time[core]:
                    finish_time[core] = finish
                if issued[core] < requests_per_core:
                    (next_bank, next_row, next_column, next_write,
                     gap) = next_steps[core](chain)
                    issued[core] += 1
                    arrival = finish + gap
                    heappush(heap, (arrival, next_seq(), _ARRIVAL, (
                        next_row % rows_per_bank, core, chain, arrival,
                        next_column % columns_per_row, next_write,
                        next_bank % n_banks,
                    )))
                if finish > now:
                    now = finish

        # ------------------------------------------------------------------
        # The event loop.
        # ------------------------------------------------------------------
        last_time = 0.0
        total_requests = config.requests_per_core * config.cores
        total_completed = 0

        while heap:
            time, _, kind, payload = heappop(heap)
            if time > last_time:
                last_time = time
            if kind == _ARRIVAL:
                bank_id = payload[6]
                banks[bank_id].queue.append(payload)
                has_queue[bank_id] = True
                try_schedule(bank_id, time)
            elif kind == _BANK_FREE:
                # Drain every bank_free at this timestamp in one go.
                # Banks are independent at equal times (nothing a bank's
                # scheduling does can retroactively wake another bank at
                # the *same* instant), so this batches the heap churn
                # without reordering any service decision.
                wake_at[payload] = _INF
                try_schedule(payload, time)
                while heap and heap[0][0] == time and heap[0][2] == _BANK_FREE:
                    next_bank = heappop(heap)[3]
                    wake_at[next_bank] = _INF
                    try_schedule(next_bank, time)
            elif kind == _REFRESH:
                # Each REF locks its slice's banks, charged per bank as
                # the bank becomes free (busy banks finish their work
                # first).  Banks are swept in ascending order, which is
                # the order their wake-ups are pushed.
                refreshes += 1
                for bank_id in refresh_targets[payload]:
                    ref_start = max(busy_until[bank_id], time)
                    if log is not None:
                        # The bank's effective refresh start: the
                        # instant its lockout begins.
                        log.append(TimedCommand(
                            ref_start,
                            Command(
                                CommandKind.REF,
                                rank=bank_id // banks_per_rank,
                                bank=bank_id,
                            ),
                        ))
                    free = ref_start + refresh_latency
                    busy_until[bank_id] = free
                    banks[bank_id].open_row = None
                    if has_queue[bank_id] and free < wake_at[bank_id]:
                        wake_at[bank_id] = free
                        heappush(heap, (free, next_seq(), _BANK_FREE, bank_id))
                if total_completed < total_requests:
                    heappush(heap, (
                        time + refresh_interval,
                        next_seq(),
                        _REFRESH,
                        (payload + 1) % refresh_slices,
                    ))
            elif kind == _EPOCH:
                defense.on_refresh_window(time)
                if total_completed < total_requests:
                    heappush(heap, (time + epoch_ns, next_seq(), _EPOCH, None))
            # Every request has been issued, arrived and served, so no
            # queue holds work.
            if total_completed >= total_requests:
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
        # The run ends at its last event or its last completion,
        # whichever is later: a request's completion is computed when
        # it is scheduled and never becomes an event of its own.
        return SimulationResult(
            cores=cores,
            total_ns=max(last_time, *finish_time),
            row_hits=row_hits,
            row_misses=row_misses,
            activations=activations,
            refreshes_issued=refreshes,
        )
