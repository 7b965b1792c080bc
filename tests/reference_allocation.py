"""Per-row-scan page-allocation builders (test-only reference).

These are the allocators as first written: they find the MCR base rows
and the normal rows of a bank by classifying every row of it with
:meth:`MCRGenerator.is_mcr_row`. They are slow (O(rows per bank)) but
obviously right, so tests assert that the O(footprint) allocators in
:mod:`repro.core.allocation` build exactly the same maps and raise the
same capacity errors.

Each builder returns the ``{(rank, bank): {row: row}}`` map.
"""

from __future__ import annotations

from repro.core.allocation import _accessed_rows_per_bank
from repro.dram.config import DRAMGeometry
from repro.dram.mcr import MCRGenerator, MCRModeConfig

Maps = dict[tuple[int, int], dict[int, int]]


def _region_base_rows(geometry: DRAMGeometry, mode: MCRModeConfig) -> list[int]:
    sub = geometry.rows_per_subarray
    region_start = round(sub * (1.0 - mode.region_fraction))
    rows: list[int] = []
    for subarray in range(geometry.subarrays_per_bank):
        origin = subarray * sub
        for local in range(region_start, sub, mode.k):
            rows.append(origin + local)
    return rows


def _alt_region_base_rows(geometry: DRAMGeometry, mode: MCRModeConfig) -> list[int]:
    if not mode.has_alt_region:
        return []
    sub = geometry.rows_per_subarray
    primary_start = round(sub * (1.0 - mode.region_fraction))
    alt_start = round(sub * (1.0 - mode.region_fraction - mode.alt_region_fraction))
    rows: list[int] = []
    for subarray in range(geometry.subarrays_per_bank):
        origin = subarray * sub
        for local in range(alt_start, primary_start, mode.alt_k):
            rows.append(origin + local)
    return rows


def _scan(geometry: DRAMGeometry, mode: MCRModeConfig, mcr: bool) -> list[int]:
    generator = MCRGenerator(geometry, mode)
    return [
        row
        for row in range(geometry.rows_per_bank)
        if generator.is_mcr_row(row) is mcr
    ]


def collision_free_maps(traces, geometry: DRAMGeometry, mode: MCRModeConfig) -> Maps:
    maps: Maps = {}
    if not mode.enabled:
        return maps
    generator = MCRGenerator(geometry, mode)
    base_rows = [
        row for row in _region_base_rows(geometry, mode) if generator.is_mcr_row(row)
    ]
    for key, rows in _accessed_rows_per_bank(traces, geometry).items():
        if len(rows) > len(base_rows):
            raise ValueError(
                f"footprint ({len(rows)} rows) exceeds MCR page capacity "
                f"({len(base_rows)} base rows) for bank {key}"
            )
        maps[key] = dict(zip(rows, base_rows))
    return maps


def profile_maps(
    traces, geometry: DRAMGeometry, mode: MCRModeConfig, allocation_ratio: float
) -> Maps:
    maps: Maps = {}
    if not mode.enabled or allocation_ratio == 0.0:
        return maps
    generator = MCRGenerator(geometry, mode)
    base_rows = [
        row for row in _region_base_rows(geometry, mode) if generator.is_mcr_row(row)
    ]
    normal_rows = _scan(geometry, mode, mcr=False)
    for key, rows in _accessed_rows_per_bank(traces, geometry).items():
        hot_count = min(round(len(rows) * allocation_ratio), len(base_rows))
        mapping = dict(zip(rows[:hot_count], base_rows))
        cold = rows[hot_count:]
        if len(cold) > len(normal_rows):
            raise ValueError(
                f"cold footprint ({len(cold)}) exceeds normal rows "
                f"({len(normal_rows)}) for bank {key}"
            )
        mapping.update(zip(cold, normal_rows))
        maps[key] = mapping
    return maps


def combined_maps(
    traces,
    geometry: DRAMGeometry,
    mode: MCRModeConfig,
    hot_ratio: float,
    warm_ratio: float,
) -> Maps:
    maps: Maps = {}
    primary_rows = _region_base_rows(geometry, mode)
    alt_rows = _alt_region_base_rows(geometry, mode)
    normal_rows = _scan(geometry, mode, mcr=False)
    for key, rows in _accessed_rows_per_bank(traces, geometry).items():
        hot_count = min(round(len(rows) * hot_ratio), len(primary_rows))
        warm_count = min(round(len(rows) * warm_ratio), len(alt_rows))
        mapping = dict(zip(rows[:hot_count], primary_rows))
        mapping.update(zip(rows[hot_count : hot_count + warm_count], alt_rows))
        cold = rows[hot_count + warm_count :]
        if len(cold) > len(normal_rows):
            raise ValueError(
                f"cold footprint ({len(cold)}) exceeds normal rows for {key}"
            )
        mapping.update(zip(cold, normal_rows))
        maps[key] = mapping
    return maps


def tldram_maps(traces, geometry: DRAMGeometry, config, allocation_ratio: float) -> Maps:
    maps: Maps = {}
    mode = config.region_mode()
    near_rows = _scan(geometry, mode, mcr=True)
    far_rows = _scan(geometry, mode, mcr=False)
    for key, rows in _accessed_rows_per_bank(traces, geometry).items():
        hot_count = min(round(len(rows) * allocation_ratio), len(near_rows))
        mapping = dict(zip(rows[:hot_count], near_rows))
        cold = rows[hot_count:]
        if len(cold) > len(far_rows):
            raise ValueError("cold footprint exceeds the far segment")
        mapping.update(zip(cold, far_rows))
        maps[key] = mapping
    return maps
