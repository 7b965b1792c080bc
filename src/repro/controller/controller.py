"""The multiple-latency memory controller (event-driven).

Scheduling policy is USIMM's baseline FR-FCFS with exclusive write drain:

- row hits (column commands) beat row misses; among equals, oldest first;
- writes buffer until the high watermark, then drain exclusively to the
  low watermark (also drained opportunistically when no read is pending);
- refreshes are postponed up to eight tREFI, issued opportunistically on
  idle ranks, and forced when the budget runs out (a forced rank admits no
  new ACTIVATE/column commands until its refresh issues).

The MCR "multiple latency" extension (paper Sec. 4.2) is the ``row_class``
comparator: each ACTIVATE picks the row's timing set (normal vs MCR), and
each refresh slot picks its tRFC from the Fast-Refresh plan.

The controller is event-driven: :meth:`next_action_cycle` reports the
earliest cycle at which any command could legally issue, and
:meth:`execute` issues (at most) the single best command at a cycle. All
timing legality is enforced by the device layer, which raises on any
violation — the simulator therefore runs with a built-in timing checker.

The scheduler is *incremental*: the queues maintain per-bank buckets of
still-QUEUED requests (see :class:`repro.controller.queues.CommandQueue`),
so a decision visits only banks-with-work, and retirement pops a
completion min-heap instead of sweeping both queues. Decisions are cached
with a validity horizon — the cycle range over which no controller-visible
input can change — so repeated polls between events cost a tuple compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable

from repro.controller.queues import CommandQueue, WriteDrainPolicy
from repro.controller.refresh_scheduler import RefreshScheduler
from repro.controller.request import MemoryRequest, RequestState
from repro.dram.commands import Command, CommandType
from repro.dram.config import DRAMGeometry
from repro.dram.device import ChannelState
from repro.dram.mcr import RowClass
from repro.dram.refresh import RefreshPlan, RefreshSlotKind
from repro.dram.timing import TimingDomain

#: Action kinds in FR-FCFS tie-break order (lower = higher priority).
_COLUMN, _ACTIVATE, _PRECHARGE, _REFRESH = 0, 1, 2, 3

#: Validity horizon for a decision with no natural expiry.
_NO_EXPIRY = 1 << 62


class SchedulingPolicy(Enum):
    """Request-selection policy.

    FR_FCFS is the paper's (and USIMM's) baseline: row hits first, then
    oldest. FCFS services strictly in arrival order. CLOSED_PAGE is
    FR-FCFS plus eager precharge of banks with no queued work — trading
    row hits for hidden precharges, the classic random-traffic policy.
    The ablation uses all three to confirm the paper's claim that
    MCR-DRAM "does not require a specific memory scheduling method".
    """

    FR_FCFS = auto()
    FCFS = auto()
    CLOSED_PAGE = auto()


@dataclass(slots=True)
class ControllerEvents:
    """What happened during one :meth:`MemoryController.execute` call."""

    issued: bool = False
    read_completions: list[tuple[MemoryRequest, int]] = field(default_factory=list)
    writes_drained: int = 0


class MemoryController:
    """One channel's memory controller."""

    def __init__(
        self,
        geometry: DRAMGeometry,
        domain: TimingDomain,
        refresh_plan: RefreshPlan,
        row_class_fn: Callable[[int], RowClass],
        read_queue_capacity: int = 32,
        write_queue_capacity: int = 32,
        write_high_watermark: int = 24,
        write_low_watermark: int = 8,
        refresh_enabled: bool = True,
        policy: SchedulingPolicy = SchedulingPolicy.FR_FCFS,
        activation_class_fn: Callable[[int, int, int, int, RowClass], RowClass]
        | None = None,
        precharge_hook: Callable[[int, int, int, int | None], None] | None = None,
    ) -> None:
        self.geometry = geometry
        self.domain = domain
        self.channel = ChannelState(geometry, domain)
        self.read_queue = CommandQueue(read_queue_capacity)
        self.write_queue = CommandQueue(write_queue_capacity)
        self.drain = WriteDrainPolicy(write_high_watermark, write_low_watermark)
        self.refresh = RefreshScheduler(
            refresh_plan, geometry.ranks_per_channel, domain.base.t_refi
        )
        self.refresh_enabled = refresh_enabled
        self.policy = policy
        self.row_class_fn = row_class_fn
        # Mechanism-plugin hooks (repro.mechanisms): reclassify a row as
        # its ACTIVATE issues / observe the row a PRECHARGE closes. None
        # (the default and the reference-MCR case) costs one branch per
        # issued command. Issue-time reclassification is safe for the
        # decision memo: ACTIVATE issue timing is class-independent
        # (tRP/tRRD/tFAW/prior tRC), and issuing bumps ``_state_gen``.
        self.activation_class_fn = activation_class_fn
        self.precharge_hook = precharge_hook
        #: Observability sink (a :class:`repro.obs.hub.ChannelObserver`).
        #: None by default, so disabled observability costs one branch per
        #: issued command and per accepted request.
        self._observer = None
        # Decision cache: ``(computed_cycle, state_gen, decision,
        # valid_until)``. ``_state_gen`` bumps on every mutation that can
        # change a decision: enqueue, command issue, and request
        # retirement. ``valid_until`` extends the cache *across cycles*:
        # with the generation unchanged, a decision computed at cycle n
        # stays correct for every poll cycle in [n, valid_until] because
        # no controller-visible input can change in that range (see
        # _decide_at for the horizon rules).
        self._state_gen = 0
        self._decision_memo: tuple[int, int, tuple | None, int] | None = None
        # Statistics.
        self.read_latency_total = 0
        self.read_latency_count = 0
        self.read_latencies: list[int] = []  # per-read, for percentiles
        self.reads_enqueued = 0
        self.writes_enqueued = 0
        self.row_misses = 0  # = activates; hits are derived in stats()

    @property
    def observer(self):
        return self._observer

    @observer.setter
    def observer(self, observer) -> None:
        self._observer = observer
        # Drain-mode transitions flow through the same sink; detaching the
        # observer also silences the write-drain hook.
        self.drain.on_change = None if observer is None else observer.on_drain

    # ------------------------------------------------------------------
    # Enqueue side (called by the cores via the simulator)
    # ------------------------------------------------------------------

    def can_accept(self, is_write: bool, cycle: int) -> bool:
        self._collect(cycle)
        queue = self.write_queue if is_write else self.read_queue
        return queue.has_space

    def enqueue(self, request: MemoryRequest, cycle: int) -> None:
        if not self.can_accept(request.is_write, cycle):
            raise RuntimeError("enqueue to a full queue")
        request.arrival_cycle = cycle
        request.row_class = self.row_class_fn(request.row)
        open_row = self.channel.open_row(request.rank, request.bank)
        if request.is_write:
            self.write_queue.push(request)
            self.writes_enqueued += 1
        else:
            self.read_queue.push(request)
            self.reads_enqueued += 1
        self._state_gen += 1
        if self.observer is not None:
            self.observer.on_enqueue(
                request, len(self.read_queue), len(self.write_queue), open_row
            )

    def outstanding(self) -> int:
        """Requests still resident in either queue."""
        return len(self.read_queue) + len(self.write_queue)

    # ------------------------------------------------------------------
    # Event-driven scheduling
    # ------------------------------------------------------------------

    def next_action_cycle(self, now: int) -> int | None:
        """Earliest cycle >= now at which the controller must be polled.

        Besides the next issuable command, this includes every cycle at
        which controller-visible *state* changes on its own: an in-flight
        write retiring (queue occupancy drops, possibly flipping the
        write-drain hysteresis) and a refresh slot becoming due (possibly
        turning forced). Missing those wakeups would make scheduling
        depend on when the controller happens to be visited — the
        event-driven loop must be cycle-identical to polling every cycle.

        Returns None when there is nothing to do and refresh is disabled.
        """
        candidates: list[int] = []
        decision = self._decide_at(now)
        if decision is not None:
            candidates.append(decision[0])
        if self.drain.draining:
            # Only while draining can a write retirement change the
            # schedule (the hysteresis exits at the low watermark), so
            # wake at the earliest in-flight write completion to sample
            # the exact exit cycle. Outside drain mode a shrinking write
            # queue cannot flip any decision.
            completion = self.write_queue.next_completion()
            if completion is not None:
                candidates.append(completion)
        if self.refresh_enabled:
            # Refresh due counts (and the forced flag) change only when
            # the accrual clock crosses a tREFI boundary; due-but-
            # postponed slots are already visible to _decide above.
            t_refi = self.refresh.t_refi
            candidates.append((now // t_refi + 1) * t_refi)
        if not candidates:
            return None
        return max(now, min(candidates))

    def execute(self, cycle: int) -> ControllerEvents:
        """Issue the best legal command at ``cycle``, if any is ready."""
        events = ControllerEvents()
        decision = self._decide_at(cycle)
        if decision is None or decision[0] > cycle:
            return events
        _, kind, _, payload = decision
        self._state_gen += 1
        observer = self.observer
        if kind == _COLUMN:
            request: MemoryRequest = payload
            end = self.channel.apply_column(
                cycle, request.rank, request.bank, request.is_write
            )
            request.issue_cycle = cycle
            queue = self.write_queue if request.is_write else self.read_queue
            queue.mark_issued(request, end)
            if request.is_write:
                events.writes_drained += 1
            else:
                events.read_completions.append((request, end))
                latency = end - request.arrival_cycle
                self.read_latency_total += latency
                self.read_latency_count += 1
                self.read_latencies.append(latency)
            if observer is not None:
                observer.on_command(
                    Command(
                        cycle,
                        CommandType.WRITE if request.is_write else CommandType.READ,
                        0,
                        rank=request.rank,
                        bank=request.bank,
                        row=request.row,
                        column=request.column,
                    ),
                    request.row_class,
                )
                # The column command pins the request's whole lifecycle
                # (arrival/act/issue/complete are now all known).
                observer.on_request_served(request)
        elif kind == _ACTIVATE:
            request = payload
            if self.activation_class_fn is not None:
                # Reclassify from the *static* address class, not from
                # request.row_class: a request whose row was closed by an
                # intervening precharge is activated a second time, and
                # the first activation already overwrote row_class with a
                # dynamic class the table may no longer grant.
                request.row_class = self.activation_class_fn(
                    cycle,
                    request.rank,
                    request.bank,
                    request.row,
                    self.row_class_fn(request.row),
                )
            self.channel.apply_activate(
                cycle, request.rank, request.bank, request.row, request.row_class
            )
            request.act_cycle = cycle
            self.row_misses += 1
            if observer is not None:
                observer.on_command(
                    Command(
                        cycle,
                        CommandType.ACTIVATE,
                        0,
                        rank=request.rank,
                        bank=request.bank,
                        row=request.row,
                    ),
                    request.row_class,
                )
        elif kind == _PRECHARGE:
            rank, bank = payload
            closed_row = (
                self.channel.open_row(rank, bank)
                if self.precharge_hook is not None
                else None
            )
            self.channel.apply_precharge(cycle, rank, bank)
            if self.precharge_hook is not None:
                self.precharge_hook(cycle, rank, bank, closed_row)
            if observer is not None:
                observer.on_command(
                    Command(cycle, CommandType.PRECHARGE, 0, rank=rank, bank=bank),
                    None,
                )
        else:  # _REFRESH
            rank, slot_kind = payload
            trfc = self.domain.trfc_cycles(self.refresh.trfc_class(slot_kind))
            self.channel.apply_refresh(cycle, rank, trfc)
            self.refresh.mark_issued(rank, slot_kind)
            if observer is not None:
                # The row field carries the slot's tRFC: the oracle
                # checks it against its own table and charges it.
                observer.on_command(
                    Command(cycle, CommandType.REFRESH, 0, rank=rank, row=trfc),
                    None,
                )
        events.issued = True
        return events

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _decide_at(self, now: int) -> tuple[int, int, int, object] | None:
        """Collect retirements, then decide — cached with a horizon.

        A cached decision computed at cycle ``n`` with generation ``g``
        is reused for any poll at ``now`` in ``[n, valid_until]`` while
        the generation still equals ``g``. The horizon is the earliest
        cycle at which a decision input can change without bumping the
        generation:

        - the decision's own issue cycle (issuing bumps the generation);
        - the next tREFI boundary (refresh due counts and the forced
          flag advance with the accrual clock, not with commands);
        - the earliest in-flight *write* completion while write drain is
          active (retirement drops the write-queue depth, which can exit
          the drain hysteresis; read retirements free queue slots but
          never change a scheduling decision).

        Every command issue, enqueue, and retirement bumps the
        generation, so within the horizon the decision inputs are
        provably unchanged and the FR-FCFS scan can be skipped.
        """
        memo = self._decision_memo
        if (
            memo is not None
            and memo[1] == self._state_gen
            and memo[0] <= now <= memo[3]
        ):
            return memo[2]
        self._collect(now)
        decision = self._decide(now)
        valid_until = decision[0] if decision is not None else _NO_EXPIRY
        if self.refresh_enabled:
            t_refi = self.refresh.t_refi
            boundary = (now // t_refi + 1) * t_refi
            if boundary <= valid_until:
                valid_until = boundary - 1
        if self.drain.draining:
            completion = self.write_queue.next_completion()
            if completion is not None and completion <= valid_until:
                valid_until = completion - 1
        self._decision_memo = (now, self._state_gen, decision, valid_until)
        return decision

    def _collect(self, cycle: int) -> None:
        """Retire in-flight requests whose data completed by ``cycle``."""
        if self.read_queue.collect(cycle):
            self._state_gen += 1
        if self.write_queue.collect(cycle):
            self._state_gen += 1

    def _forced_ranks(self, now: int) -> set[int]:
        if not self.refresh_enabled:
            return set()
        return {
            rank
            for rank in range(self.geometry.ranks_per_channel)
            if self.refresh.is_forced(rank, now)
        }

    def _decide(
        self, now: int
    ) -> tuple[int, int, int, object] | None:
        """Find the best next command.

        Returns (cycle, kind, arrival, payload) minimizing (cycle, kind,
        arrival) — i.e. earliest first, then FR-FCFS priority, then age.
        Visits only banks with queued work (the queues maintain the
        per-bank buckets incrementally), in oldest-request-first bank
        order so tie-breaks match a full queue scan.
        """
        channel = self.channel
        forced = self._forced_ranks(now)
        best: tuple[int, int, int, object] | None = None

        def consider(cycle: int | None, kind: int, arrival: int, payload: object) -> None:
            nonlocal best
            if cycle is None:
                return
            if cycle < now:
                cycle = now
            if cycle < arrival:
                cycle = arrival  # a request cannot be served before it arrives
            candidate = (cycle, kind, arrival, payload)
            if best is None or candidate[:3] < best[:3]:
                best = candidate

        # --- request traffic -------------------------------------------------
        read_queue = self.read_queue
        write_queue = self.write_queue
        has_reads = read_queue.has_queued
        draining = self.drain.update(len(write_queue), now) or (
            not has_reads and write_queue.has_queued
        )
        active = write_queue if draining else read_queue
        if self.policy is SchedulingPolicy.FCFS:
            # Strict arrival order: only the oldest request's commands are
            # candidates; no hit-over-miss reordering.
            oldest = active.oldest_queued()
            bank_work = (
                []
                if oldest is None
                else [(oldest.bank_key, (oldest,))]
            )
        else:
            bank_work = active.banks_with_work()

        for key, bucket in bank_work:
            rank, bank = key
            if rank in forced:
                continue
            open_row = channel.open_row(rank, bank)
            if open_row is not None:
                for req in bucket:
                    if req.row == open_row:
                        consider(
                            channel.earliest_column(
                                rank, bank, req.row, req.is_write
                            ),
                            _COLUMN,
                            req.arrival_cycle,
                            req,
                        )
                        break  # never close a row that still has hits queued
                else:
                    oldest = bucket[0]
                    consider(
                        channel.earliest_precharge(rank, bank),
                        _PRECHARGE,
                        oldest.arrival_cycle,
                        (rank, bank),
                    )
            else:
                oldest = bucket[0]
                consider(
                    channel.earliest_activate(rank, bank),
                    _ACTIVATE,
                    oldest.arrival_cycle,
                    oldest,
                )

        if self.policy is SchedulingPolicy.CLOSED_PAGE:
            # Eagerly close banks nothing in either queue still wants:
            # the precharge happens off the critical path, so the next
            # miss to the bank skips straight to its ACTIVATE.
            wanted = read_queue.queued_banks() | write_queue.queued_banks()
            for rank_idx, rank in enumerate(channel.ranks):
                for bank_idx, bank in enumerate(rank.banks):
                    key = (rank_idx, bank_idx)
                    if bank.is_open and key not in wanted:
                        consider(
                            channel.earliest_precharge(rank_idx, bank_idx),
                            _PRECHARGE,
                            now,
                            key,
                        )

        # --- refresh ---------------------------------------------------------
        if self.refresh_enabled:
            busy_ranks = read_queue.queued_ranks() | write_queue.queued_ranks()
            for rank in range(self.geometry.ranks_per_channel):
                kind = self.refresh.pending_kind(rank, now)
                if kind is None:
                    continue
                if rank not in forced and rank in busy_ranks:
                    continue  # only opportunistic on idle ranks
                earliest = channel.earliest_refresh(rank)
                if earliest is None:
                    # Some bank still open: close banks to make way.
                    for bank_idx, bank in enumerate(channel.ranks[rank].banks):
                        if bank.is_open:
                            consider(
                                channel.earliest_precharge(rank, bank_idx),
                                _PRECHARGE,
                                0 if rank in forced else now,
                                (rank, bank_idx),
                            )
                else:
                    consider(
                        earliest,
                        _REFRESH,
                        0 if rank in forced else now,
                        (rank, kind),
                    )
        return best

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def average_read_latency(self) -> float:
        """Mean queue-to-data read latency, memory cycles."""
        if self.read_latency_count == 0:
            return 0.0
        return self.read_latency_total / self.read_latency_count

    def stats(self) -> dict[str, float | int | dict[str, int]]:
        counts = self.channel.activate_counts()
        columns = self.channel.read_count + self.channel.write_count
        activates = sum(counts.values())
        legacy = (RowClass.NORMAL, RowClass.MCR, RowClass.MCR_ALT)
        # The three MCR-device classes keep their unconditional keys (the
        # golden fixtures and power model consume them); classes other
        # plugins introduce (e.g. CHARGED) appear only when populated.
        extra = {
            f"activates_{cls.name.lower()}": counts[cls]
            for cls in RowClass
            if cls not in legacy and counts[cls]
        }
        return {
            "reads": self.reads_enqueued,
            "writes": self.writes_enqueued,
            "avg_read_latency_cycles": self.average_read_latency(),
            "activates_normal": counts[RowClass.NORMAL],
            "activates_mcr": counts[RowClass.MCR],
            "activates_mcr_alt": counts[RowClass.MCR_ALT],
            **extra,
            # Every column command either followed its own ACT (miss) or
            # reused an open row (hit).
            "row_hits": max(0, columns - activates),
            "row_hit_rate": (columns - activates) / columns if columns else 0.0,
            "refresh": self.refresh.issued_counts(),
            "data_bus_busy_cycles": self.channel.data_bus_busy_cycles,
        }


__all__ = ["MemoryController", "ControllerEvents", "RefreshSlotKind"]
