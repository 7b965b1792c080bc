"""A TL-DRAM-style tiered-latency comparator device.

The paper positions MCR-DRAM against Tiered-Latency DRAM (Lee et al.,
HPCA 2013), which inserts isolation transistors into each sub-array's
bitlines: the *near segment* (rows next to the sense amplifiers) sees a
shorter effective bitline and much lower tRCD/tRAS, while the *far
segment* pays a small access penalty through the isolation transistor —
at ~3% area overhead but no capacity loss. MCR-DRAM instead keeps the
bank untouched (no area cost) and pays in capacity (K rows per page).

This module models a TL-DRAM-like device on the same region/controller
machinery used for MCR: the near segment is the region nearest the sense
amplifiers (RowClass.MCR carries the near timings), everything else is
far (RowClass.NORMAL carries the far timings). The default timing deltas
are representative of the tiered-latency idea — a roughly halved
near-segment tRCD/tRAS and a one-cycle far-segment penalty — and are
fully user-configurable; we do not claim to reproduce TL-DRAM's exact
published SPICE values.

The comparison experiment this enables: at equal "fast region" size, how
do the two proposals trade performance, capacity, and (qualitatively)
area?
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.config import DRAMGeometry
from repro.dram.mcr import MCRModeConfig, MechanismSet, RowClass
from repro.dram.timing import BaseTimings, RowTimings


@dataclass(frozen=True)
class TLDRAMConfig:
    """A tiered-latency device description.

    Attributes:
        near_fraction: Fraction of each sub-array that is near-segment.
        near: Near-segment activate timings (cycles).
        far: Far-segment activate timings (cycles) — includes the
            isolation-transistor penalty over plain DDR3.
        area_overhead: Fractional bank-area cost (reporting only).
    """

    near_fraction: float = 0.25
    near: RowTimings = field(
        default_factory=lambda: RowTimings(t_rcd=6, t_ras=16, t_rc=27)
    )
    far: RowTimings = field(
        default_factory=lambda: RowTimings(t_rcd=12, t_ras=29, t_rc=40)
    )
    area_overhead: float = 0.03

    def __post_init__(self) -> None:
        if not 0.0 < self.near_fraction < 1.0:
            raise ValueError("near_fraction must be in (0, 1)")
        if self.near.t_rcd >= self.far.t_rcd:
            raise ValueError("the near segment must be faster than the far one")

    def region_mode(self) -> MCRModeConfig:
        """Region bookkeeping for the generator/refresh machinery.

        TL-DRAM has no clone rows, so K is nominally 2 purely to mark the
        near region; clone semantics are disabled by overriding the
        timing classes and keeping allocation on the region level.
        Refresh mechanisms are off: TL-DRAM refreshes normally.
        """
        return MCRModeConfig(
            k=2,
            m=2,
            region_fraction=self.near_fraction,
            mechanisms=MechanismSet(fast_refresh=False, refresh_skipping=False),
        )

    def timing_overrides(self) -> dict[RowClass, RowTimings]:
        return {
            RowClass.NORMAL: self.far,
            RowClass.MCR: self.near,
            RowClass.MCR_ALT: self.far,
        }

    def usable_capacity_fraction(self) -> float:
        """TL-DRAM keeps full capacity (its cost is area, not pages)."""
        return 1.0

    @staticmethod
    def ddr3_baseline(base: BaseTimings | None = None) -> RowTimings:
        """Plain DDR3 activate timings for reference."""
        return RowTimings(t_rcd=11, t_ras=28, t_rc=39)


def near_region_rows(geometry: DRAMGeometry, config: TLDRAMConfig) -> int:
    """Rows per bank inside the near segment."""
    per_subarray = round(geometry.rows_per_subarray * config.near_fraction)
    return per_subarray * geometry.subarrays_per_bank


class TLDRAMAllocator:
    """Hot pages into the near segment, cold pages into the far one.

    Unlike the MCR allocators there is no clone stride: every near-segment
    row holds a distinct page (TL-DRAM costs area, not capacity).
    """

    def __init__(
        self,
        traces,
        geometry: DRAMGeometry,
        config: TLDRAMConfig,
        allocation_ratio: float,
    ) -> None:
        from repro.core.allocation import _accessed_rows_per_bank
        from repro.dram.mcr import MCRGenerator

        if not 0.0 <= allocation_ratio <= 1.0:
            raise ValueError("allocation_ratio must be within [0, 1]")
        self._maps: dict[tuple[int, int], dict[int, int]] = {}
        generator = MCRGenerator(geometry, config.region_mode())
        near_rows = generator.region_rows()
        far_rows = generator.normal_rows()
        for key, rows in _accessed_rows_per_bank(list(traces), geometry).items():
            hot_count = min(round(len(rows) * allocation_ratio), len(near_rows))
            mapping: dict[int, int] = {}
            mapping.update(zip(rows[:hot_count], near_rows))
            cold = rows[hot_count:]
            if len(cold) > len(far_rows):
                raise ValueError("cold footprint exceeds the far segment")
            mapping.update(zip(cold, far_rows))
            self._maps[key] = mapping

    def __call__(self, rank: int, bank: int, row: int) -> int:
        return self._maps.get((rank, bank), {}).get(row, row)
