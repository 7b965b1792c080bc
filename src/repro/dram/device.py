"""Rank- and channel-level timing state.

The :class:`ChannelState` owns everything the controller must respect that
spans banks: the shared command bus (one command per cycle), the shared
data bus with rank-switch bubbles, rank-level activate windows (tRRD /
tFAW), column turnaround (tCCD / tWTR / read-write), and refresh occupancy
(tRFC).

All methods follow the same protocol as :class:`repro.dram.bank.BankState`:
``earliest_*`` queries return the first legal cycle (or None when the
command is structurally impossible right now), and ``apply_*`` mutates
state, raising if the caller violated a constraint — the event-driven
simulator relies on these errors as an always-on timing checker.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dram.bank import NEVER, BankState
from repro.dram.config import DRAMGeometry
from repro.dram.mcr import RowClass
from repro.dram.timing import BaseTimings, TimingDomain


@dataclass(slots=True)
class RankState:
    """Timing state shared by the banks of one rank.

    The ``*_floor`` fields cache the composed earliest-issue cycles so
    the scheduler's (very frequent) ``earliest_*`` queries are plain
    attribute reads; they are recomputed only by the ``apply_*`` calls
    that mutate their inputs — i.e. only commands that touch this rank
    invalidate them.
    """

    base: BaseTimings
    banks: list[BankState]
    next_act: int = 0  # tRRD
    faw_history: deque[int] = field(default_factory=deque)  # last 4 ACTs
    next_read: int = 0  # rank-level column constraints
    next_write: int = 0
    refresh_until: int = 0  # rank busy with REFRESH until this cycle
    refresh_count: int = 0
    refresh_busy_cycles: int = 0
    #: Cached floors: max of the constraints each command class must obey.
    act_floor: int = 0
    col_read_floor: int = 0
    col_write_floor: int = 0
    # Background-power accounting: the rank is in active standby while any
    # bank has a row open, otherwise in precharge standby; long precharged
    # idle intervals can be spent in power-down (see repro.power).
    open_banks: int = 0
    active_since: int = 0
    active_standby_cycles: int = 0
    idle_since: int = 0
    idle_intervals: list[int] = field(default_factory=list)

    def _recompute_act_floor(self) -> None:
        earliest = max(self.next_act, self.refresh_until)
        if len(self.faw_history) == 4:
            faw = self.faw_history[0] + self.base.t_faw
            if faw > earliest:
                earliest = faw
        self.act_floor = earliest

    def earliest_activate_rank(self) -> int:
        """Rank-level floor for any ACT (tRRD, tFAW, refresh occupancy)."""
        return self.act_floor

    def apply_activate(self, cycle: int) -> None:
        if cycle < self.act_floor:
            raise RuntimeError(f"rank ACT at {cycle} violates tRRD/tFAW/tRFC")
        self.next_act = cycle + self.base.t_rrd
        self.faw_history.append(cycle)
        if len(self.faw_history) > 4:
            self.faw_history.popleft()
        self._recompute_act_floor()
        if self.open_banks == 0:
            self.active_since = cycle
            self.idle_intervals.append(cycle - self.idle_since)
        self.open_banks += 1

    def note_precharge(self, cycle: int) -> None:
        """Background-power bookkeeping when a bank closes."""
        self.open_banks -= 1
        if self.open_banks == 0:
            self.active_standby_cycles += cycle - self.active_since
            self.idle_since = cycle
        if self.open_banks < 0:
            raise RuntimeError("precharge with no open banks")

    def finalize_accounting(self, end_cycle: int) -> None:
        """Close the books at the end of a simulation."""
        if self.open_banks > 0:
            self.active_standby_cycles += end_cycle - self.active_since
            self.active_since = end_cycle
        else:
            self.idle_intervals.append(end_cycle - self.idle_since)
            self.idle_since = end_cycle

    def earliest_column_rank(self, is_write: bool) -> int:
        return self.col_write_floor if is_write else self.col_read_floor

    def apply_column(self, cycle: int, is_write: bool) -> None:
        if cycle < self.earliest_column_rank(is_write):
            raise RuntimeError(f"rank column at {cycle} violates tCCD/tWTR")
        base = self.base
        if is_write:
            self.next_write = max(self.next_write, cycle + base.t_ccd)
            # WR -> RD same rank: write data must land, then tWTR.
            self.next_read = max(
                self.next_read, cycle + base.t_cwd + base.t_burst + base.t_wtr
            )
        else:
            self.next_read = max(self.next_read, cycle + base.t_ccd)
            # RD -> WR same rank: bus turnaround, enforced at the channel;
            # rank-level tCCD still applies to the write pipeline.
            self.next_write = max(self.next_write, cycle + base.t_ccd)
        self.col_read_floor = max(self.next_read, self.refresh_until)
        self.col_write_floor = max(self.next_write, self.refresh_until)

    def all_banks_closed(self) -> bool:
        return all(not b.is_open for b in self.banks)

    def earliest_refresh(self) -> int | None:
        """Earliest REF cycle, or None while any bank still has a row open."""
        if not self.all_banks_closed():
            return None
        earliest = max(self.refresh_until, self.next_act)
        for bank in self.banks:
            earliest = max(earliest, bank.act_ready)
        return earliest

    def apply_refresh(self, cycle: int, trfc_cycles: int) -> None:
        earliest = self.earliest_refresh()
        if earliest is None or cycle < earliest:
            raise RuntimeError(f"REFRESH at {cycle} violates bank state or tRFC")
        self.refresh_until = cycle + trfc_cycles
        self.refresh_count += 1
        self.refresh_busy_cycles += trfc_cycles
        self._recompute_act_floor()
        self.col_read_floor = max(self.next_read, self.refresh_until)
        self.col_write_floor = max(self.next_write, self.refresh_until)
        # A refresh interrupts the precharged-idle interval; idle resumes
        # once the refresh completes.
        self.idle_intervals.append(cycle - self.idle_since)
        self.idle_since = self.refresh_until
        for bank in self.banks:
            bank.apply_refresh_block(self.refresh_until)


class ChannelState:
    """One memory channel: ranks, shared command bus, shared data bus."""

    def __init__(self, geometry: DRAMGeometry, domain: TimingDomain) -> None:
        self.geometry = geometry
        self.domain = domain
        self.base = domain.base
        self.ranks = [
            RankState(
                base=self.base,
                banks=[BankState(self.base) for _ in range(geometry.banks_per_rank)],
            )
            for _ in range(geometry.ranks_per_channel)
        ]
        self.next_command_cycle = 0  # command bus: one command per cycle
        self.bus_free = 0  # end of last data transfer
        self.bus_owner_rank = -1
        self.bus_owner_write = False
        # Statistics for the power model.
        self.data_bus_busy_cycles = 0
        self.read_count = 0
        self.write_count = 0

    # ------------------------------------------------------------------
    # Earliest-issue queries
    # ------------------------------------------------------------------

    def bank(self, rank: int, bank: int) -> BankState:
        return self.ranks[rank].banks[bank]

    def _data_slot_floor(self, rank: int, is_write: bool) -> int:
        """Earliest data-bus start honouring transfer + switch bubbles."""
        if self.bus_owner_rank == -1:
            return 0
        switch = self.bus_owner_rank != rank or self.bus_owner_write != is_write
        return self.bus_free + (self.base.t_rtrs if switch else 0)

    def earliest_activate(self, rank: int, bank: int) -> int | None:
        bank_floor = self.ranks[rank].banks[bank].earliest_activate()
        if bank_floor is None:
            return None
        return max(
            bank_floor,
            self.ranks[rank].earliest_activate_rank(),
            self.next_command_cycle,
        )

    def earliest_column(
        self, rank: int, bank: int, row: int, is_write: bool
    ) -> int | None:
        bank_floor = self.ranks[rank].banks[bank].earliest_column(row)
        if bank_floor is None:
            return None
        issue = max(
            bank_floor,
            self.ranks[rank].earliest_column_rank(is_write),
            self.next_command_cycle,
        )
        # Push the issue cycle until its data window clears the bus.
        latency = self.base.t_cwd if is_write else self.base.t_cas
        slot_floor = self._data_slot_floor(rank, is_write)
        if issue + latency < slot_floor:
            issue = slot_floor - latency
        return issue

    def earliest_precharge(self, rank: int, bank: int) -> int | None:
        bank_floor = self.ranks[rank].banks[bank].earliest_precharge()
        if bank_floor is None:
            return None
        return max(bank_floor, self.next_command_cycle)

    def earliest_refresh(self, rank: int) -> int | None:
        rank_floor = self.ranks[rank].earliest_refresh()
        if rank_floor is None:
            return None
        return max(rank_floor, self.next_command_cycle)

    # ------------------------------------------------------------------
    # Command application
    # ------------------------------------------------------------------

    def _consume_command_bus(self, cycle: int) -> None:
        if cycle < self.next_command_cycle:
            raise RuntimeError(
                f"command bus conflict at {cycle} (free at {self.next_command_cycle})"
            )
        self.next_command_cycle = cycle + 1

    def apply_activate(
        self, cycle: int, rank: int, bank: int, row: int, row_class: RowClass
    ) -> None:
        self._consume_command_bus(cycle)
        self.ranks[rank].apply_activate(cycle)
        timings = self.domain.row_timings(row_class)
        self.ranks[rank].banks[bank].apply_activate(cycle, row, timings, row_class)

    def apply_column(
        self, cycle: int, rank: int, bank: int, is_write: bool
    ) -> int:
        """Apply RD/WR; returns the cycle the last data beat completes."""
        self._consume_command_bus(cycle)
        self.ranks[rank].apply_column(cycle, is_write)
        self.ranks[rank].banks[bank].apply_column(cycle, is_write)
        latency = self.base.t_cwd if is_write else self.base.t_cas
        start = cycle + latency
        if start < self._data_slot_floor(rank, is_write):
            raise RuntimeError(f"data bus conflict for column command at {cycle}")
        end = start + self.base.t_burst
        self.bus_free = end
        self.bus_owner_rank = rank
        self.bus_owner_write = is_write
        self.data_bus_busy_cycles += self.base.t_burst
        if is_write:
            self.write_count += 1
        else:
            self.read_count += 1
        return end

    def apply_precharge(self, cycle: int, rank: int, bank: int) -> None:
        self._consume_command_bus(cycle)
        self.ranks[rank].banks[bank].apply_precharge(cycle)
        self.ranks[rank].note_precharge(cycle)

    def apply_refresh(self, cycle: int, rank: int, trfc_cycles: int) -> None:
        self._consume_command_bus(cycle)
        self.ranks[rank].apply_refresh(cycle, trfc_cycles)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def open_row(self, rank: int, bank: int) -> int | None:
        return self.ranks[rank].banks[bank].open_row

    def activate_counts(self) -> dict[RowClass, int]:
        totals = {cls: 0 for cls in RowClass}
        for rank in self.ranks:
            for bank in rank.banks:
                for cls, n in bank.act_count.items():
                    totals[cls] += n
        return totals


__all__ = ["RankState", "ChannelState", "NEVER"]
