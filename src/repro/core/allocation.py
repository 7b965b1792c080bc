"""OS page-allocation models: collision avoidance and profile placement.

Three remappers implement the paper's Sec. 4.4:

- :class:`CollisionFreeAllocator` — every accessed row is placed on a
  distinct MCR *base* row (clone LSBs zero), modelling an OS that only
  hands out the first row of each MCR (so no two pages ever share an MCR
  — the "prevention of data collision" rule). Used for mode-[100%reg]
  runs where all pages live in MCRs.
- :class:`ProfileAllocator` — the pseudo profile-based allocation: the
  hottest fraction of each workload's rows land on MCR base rows, all
  other rows land on normal rows *outside* the MCR region, and every
  placement stays within the row's original bank (the paper keeps
  channel/rank/bank/column unchanged to preserve bank-level parallelism
  and row-buffer locality).
- :class:`CombinedProfileAllocator` — the combined 2x+4x configuration:
  hot rows on primary MCR base rows, warm rows on secondary ones, cold
  rows on normal rows.

All are deterministic bijections per (rank, bank) and expose a
``(rank, bank, row) -> row`` callable for the simulator.

The region layout lives only in :class:`~repro.dram.mcr.MCRGenerator`:
its :meth:`~repro.dram.mcr.MCRGenerator.base_rows`,
:meth:`~repro.dram.mcr.MCRGenerator.alt_base_rows` and
:meth:`~repro.dram.mcr.MCRGenerator.normal_rows` are ascending sequences
computed from the region starts, and each allocator zips a bank's ranked
rows against them. Building a map costs O(footprint + sub-arrays), not a
classification of every row of the bank.
"""

from __future__ import annotations

from repro.cpu.trace import Trace
from repro.dram.config import DRAMGeometry
from repro.dram.mcr import MCRGenerator, MCRModeConfig


def _accessed_rows_per_bank(
    traces: list[Trace], geometry: DRAMGeometry
) -> dict[tuple[int, int], list[int]]:
    """Rows each (rank, bank) touches, hottest first, from trace profiles.

    Trace profiles key pages as the physical page id (see the generator):
    LSB-first ``channel | bank | rank | row`` — decode accordingly.
    """
    g = geometry
    counts: dict[tuple[int, int], dict[int, int]] = {}
    for trace in traces:
        for page, n in trace.row_access_counts.items():
            value = page
            value >>= g.channel_bits
            bank = value & (g.banks_per_rank - 1)
            value >>= g.bank_bits
            rank = value & (g.ranks_per_channel - 1)
            value >>= g.rank_bits
            row = value
            per_bank = counts.setdefault((rank, bank), {})
            per_bank[row] = per_bank.get(row, 0) + n
    return {
        key: [row for row, _ in sorted(rows.items(), key=lambda kv: (-kv[1], kv[0]))]
        for key, rows in counts.items()
    }


class _BaseRemapper:
    """Shared plumbing: per-bank row->row dictionaries."""

    def __init__(self) -> None:
        self._maps: dict[tuple[int, int], dict[int, int]] = {}

    def __call__(self, rank: int, bank: int, row: int) -> int:
        return self._maps.get((rank, bank), {}).get(row, row)

    def mapped_count(self) -> int:
        return sum(len(m) for m in self._maps.values())


class CollisionFreeAllocator(_BaseRemapper):
    """Place every accessed row on a distinct MCR base row.

    Rows are assigned in profile (hotness) order to base rows walking the
    MCR region from the sense amplifiers upward, one sub-array after
    another. Raises if the footprint exceeds the mode's page capacity —
    the paper assumes capacity is sufficient for these runs.
    """

    def __init__(
        self,
        traces: list[Trace],
        geometry: DRAMGeometry,
        mode: MCRModeConfig,
    ) -> None:
        super().__init__()
        if not mode.enabled:
            return
        base_rows = MCRGenerator(geometry, mode).base_rows()
        for key, rows in _accessed_rows_per_bank(traces, geometry).items():
            if len(rows) > len(base_rows):
                raise ValueError(
                    f"footprint ({len(rows)} rows) exceeds MCR page capacity "
                    f"({len(base_rows)} base rows) for bank {key}"
                )
            self._maps[key] = dict(zip(rows, base_rows))


class ProfileAllocator(_BaseRemapper):
    """Pseudo profile-based page allocation (paper Sec. 4.4).

    Args:
        traces: Traces whose profiles drive hotness ranking.
        geometry: DRAM organization.
        mode: MCR mode (supplies K and the region).
        allocation_ratio: Fraction of each bank's accessed rows (hottest
            first) placed into MCRs — the x-axis of the paper's Fig. 12.
    """

    def __init__(
        self,
        traces: list[Trace],
        geometry: DRAMGeometry,
        mode: MCRModeConfig,
        allocation_ratio: float,
    ) -> None:
        super().__init__()
        if not 0.0 <= allocation_ratio <= 1.0:
            raise ValueError("allocation_ratio must be within [0, 1]")
        self.hot_rows_placed = 0
        if not mode.enabled or allocation_ratio == 0.0:
            return
        generator = MCRGenerator(geometry, mode)
        base_rows = generator.base_rows()
        normal_rows = generator.normal_rows()
        for key, rows in _accessed_rows_per_bank(traces, geometry).items():
            hot_count = min(round(len(rows) * allocation_ratio), len(base_rows))
            mapping: dict[int, int] = {}
            mapping.update(zip(rows[:hot_count], base_rows))
            self.hot_rows_placed += hot_count
            cold = rows[hot_count:]
            if len(cold) > len(normal_rows):
                raise ValueError(
                    f"cold footprint ({len(cold)}) exceeds normal rows "
                    f"({len(normal_rows)}) for bank {key}"
                )
            mapping.update(zip(cold, normal_rows))
            self._maps[key] = mapping


class CombinedProfileAllocator(_BaseRemapper):
    """Hot pages to the primary (e.g. 4x) MCRs, warm to the secondary
    (e.g. 2x), cold to normal rows — the paper's combined configuration.

    Args:
        traces: Traces whose profiles drive hotness ranking.
        geometry: DRAM organization.
        mode: A combined MCR mode (``MCRModeConfig.combined``).
        hot_ratio: Fraction of each bank's accessed rows (hottest first)
            placed into primary MCRs.
        warm_ratio: Fraction placed into secondary MCRs, right behind the
            hot set in the ranking.
    """

    def __init__(
        self,
        traces: list[Trace],
        geometry: DRAMGeometry,
        mode: MCRModeConfig,
        hot_ratio: float,
        warm_ratio: float,
    ) -> None:
        super().__init__()
        if not mode.has_alt_region:
            raise ValueError("CombinedProfileAllocator needs a combined mode")
        if hot_ratio < 0 or warm_ratio < 0 or hot_ratio + warm_ratio > 1.0:
            raise ValueError("require hot_ratio, warm_ratio >= 0 summing to <= 1")
        generator = MCRGenerator(geometry, mode)
        primary_rows = generator.base_rows()
        alt_rows = generator.alt_base_rows()
        normal_rows = generator.normal_rows()
        for key, rows in _accessed_rows_per_bank(traces, geometry).items():
            hot_count = min(round(len(rows) * hot_ratio), len(primary_rows))
            warm_count = min(round(len(rows) * warm_ratio), len(alt_rows))
            mapping: dict[int, int] = {}
            mapping.update(zip(rows[:hot_count], primary_rows))
            mapping.update(zip(rows[hot_count : hot_count + warm_count], alt_rows))
            cold = rows[hot_count + warm_count :]
            if len(cold) > len(normal_rows):
                raise ValueError(
                    f"cold footprint ({len(cold)}) exceeds normal rows for {key}"
                )
            mapping.update(zip(cold, normal_rows))
            self._maps[key] = mapping
