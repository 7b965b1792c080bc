"""Tests for the OS page-allocation remappers."""

import re
from dataclasses import replace

import pytest

from repro.core.allocation import (
    CollisionFreeAllocator,
    CombinedProfileAllocator,
    ProfileAllocator,
)
from repro.core.tldram import TLDRAMAllocator, TLDRAMConfig
from repro.dram.config import DRAMGeometry, single_core_geometry
from repro.dram.mcr import MCRGenerator, MCRModeConfig
from repro.workloads import make_trace
from tests import reference_allocation as reference


@pytest.fixture(scope="module")
def geometry():
    return single_core_geometry()


@pytest.fixture(scope="module")
def trace():
    return make_trace("comm2", n_requests=3000, seed=11)


def mode_100(k=4):
    return MCRModeConfig(k=k, m=k, region_fraction=1.0)


def mode_50(k=4):
    return MCRModeConfig(k=k, m=k, region_fraction=0.5)


class TestCollisionFreeAllocator:
    def test_every_mapped_row_is_base_row(self, geometry, trace):
        mode = mode_100()
        allocator = CollisionFreeAllocator([trace], geometry, mode)
        gen = MCRGenerator(geometry, mode)
        for (rank, bank), mapping in allocator._maps.items():
            for src, dst in mapping.items():
                assert gen.is_mcr_row(dst)
                assert gen.clone_index(dst) == 0

    def test_no_two_rows_share_an_mcr(self, geometry, trace):
        mode = mode_100()
        allocator = CollisionFreeAllocator([trace], geometry, mode)
        gen = MCRGenerator(geometry, mode)
        for mapping in allocator._maps.values():
            mcrs = [gen.base_row(dst) for dst in mapping.values()]
            assert len(mcrs) == len(set(mcrs))

    def test_identity_when_disabled(self, geometry, trace):
        allocator = CollisionFreeAllocator([trace], geometry, MCRModeConfig.off())
        assert allocator(0, 0, 1234) == 1234
        assert allocator.mapped_count() == 0

    def test_unmapped_rows_pass_through(self, geometry, trace):
        allocator = CollisionFreeAllocator([trace], geometry, mode_100())
        # A row the trace never touches maps to itself.
        untouched = 31999
        if untouched not in allocator._maps.get((0, 0), {}):
            assert allocator(0, 0, untouched) == untouched

    def test_capacity_exceeded_raises(self, geometry):
        tiny = single_core_geometry()
        big_trace = make_trace("tigr", n_requests=2000, seed=1)
        small_mode = MCRModeConfig(k=4, m=4, region_fraction=0.25)
        # 25% region with K=4: capacity = rows/16 per bank = 2048 — ok.
        CollisionFreeAllocator([big_trace], tiny, small_mode)


class TestProfileAllocator:
    def test_hot_rows_in_region_cold_outside(self, geometry, trace):
        mode = mode_50()
        allocator = ProfileAllocator([trace], geometry, mode, allocation_ratio=0.2)
        gen = MCRGenerator(geometry, mode)
        in_region = 0
        outside = 0
        for mapping in allocator._maps.values():
            for dst in mapping.values():
                if gen.is_mcr_row(dst):
                    in_region += 1
                else:
                    outside += 1
        assert in_region > 0
        assert outside > 0

    def test_ratio_zero_is_identity(self, geometry, trace):
        allocator = ProfileAllocator([trace], geometry, mode_50(), 0.0)
        assert allocator.mapped_count() == 0
        assert allocator.hot_rows_placed == 0

    def test_mode_off_is_identity(self, geometry, trace):
        allocator = ProfileAllocator([trace], geometry, MCRModeConfig.off(), 0.3)
        assert allocator.mapped_count() == 0
        assert allocator.hot_rows_placed == 0

    def test_hot_count_tracks_ratio(self, geometry, trace):
        mode = mode_50()
        a10 = ProfileAllocator([trace], geometry, mode, 0.1)
        a30 = ProfileAllocator([trace], geometry, mode, 0.3)
        assert a30.hot_rows_placed > a10.hot_rows_placed

    def test_hottest_rows_chosen(self, geometry, trace):
        """The hot mass fraction in MCRs must exceed the allocation ratio
        for a skewed workload — the paper's 88.34% @ 10% for comm2."""
        mode = mode_50()
        allocator = ProfileAllocator([trace], geometry, mode, 0.1)
        gen = MCRGenerator(geometry, mode)
        g = geometry
        hits_in_mcr = 0
        total = 0
        for page, count in trace.row_access_counts.items():
            value = page
            value >>= g.channel_bits
            bank = value & (g.banks_per_rank - 1)
            value >>= g.bank_bits
            rank = value & (g.ranks_per_channel - 1)
            row = value >> g.rank_bits
            mapped = allocator(rank, bank, row)
            total += count
            if gen.is_mcr_row(mapped):
                hits_in_mcr += count
        assert hits_in_mcr / total > 0.45  # far above the 10% row ratio

    def test_mapping_is_injective(self, geometry, trace):
        allocator = ProfileAllocator([trace], geometry, mode_50(), 0.25)
        for mapping in allocator._maps.values():
            assert len(set(mapping.values())) == len(mapping)

    def test_validates_ratio(self, geometry, trace):
        with pytest.raises(ValueError):
            ProfileAllocator([trace], geometry, mode_50(), 1.5)


# ----------------------------------------------------------------------
# Equivalence with the per-row-scan reference builders
# ----------------------------------------------------------------------

# With 32-row sub-arrays a bank's footprint spans many sub-arrays, so the
# sequences are compared across sub-array boundaries, not only in the
# first sub-array.
GEOMETRIES = {
    "512-row sub-arrays": single_core_geometry(),
    "256-row sub-arrays": replace(single_core_geometry(), rows_per_subarray=256),
    "32-row sub-arrays": replace(single_core_geometry(), rows_per_subarray=32),
}

PURE_MODES = [
    MCRModeConfig(k=k, m=k, region_fraction=region)
    for k in (2, 4)
    for region in (0.25, 0.5, 0.75, 1.0)
]

COMBINED_MODES = [
    MCRModeConfig.combined(),
    MCRModeConfig.combined(k=4, alt_k=2, region_fraction=0.5, alt_region_fraction=0.5),
    MCRModeConfig.combined(k=2, alt_k=4, region_fraction=0.5, alt_region_fraction=0.25),
    MCRModeConfig.combined(k=4, alt_k=4, region_fraction=0.25, alt_region_fraction=0.25),
]

RATIOS = (0.1, 0.3, 0.5, 1.0)
COMBINED_RATIOS = ((0.1, 0.3), (0.2, 0.2), (0.3, 0.7), (0.5, 0.0), (0.0, 0.5))


@pytest.fixture(scope="module")
def traces():
    return [make_trace("comm2", 3000, 11), make_trace("leslie", 2000, 5)]


def outcome(build):
    """A builder's map, or the message of the ValueError it raised."""
    try:
        result = build()
    except ValueError as exc:
        return ("raised", str(exc))
    return ("maps", result if isinstance(result, dict) else result._maps)


def mode_id(mode):
    return mode.label()


@pytest.mark.parametrize("geometry_name", sorted(GEOMETRIES))
@pytest.mark.parametrize("mode", PURE_MODES + COMBINED_MODES, ids=mode_id)
class TestMatchesPerRowScan:
    def test_profile_allocator(self, geometry_name, mode, traces):
        geometry = GEOMETRIES[geometry_name]
        for ratio in RATIOS:
            got = outcome(lambda: ProfileAllocator(traces, geometry, mode, ratio))
            want = outcome(lambda: reference.profile_maps(traces, geometry, mode, ratio))
            assert got == want, ratio

    def test_collision_free_allocator(self, geometry_name, mode, traces):
        geometry = GEOMETRIES[geometry_name]
        got = outcome(lambda: CollisionFreeAllocator(traces, geometry, mode))
        want = outcome(lambda: reference.collision_free_maps(traces, geometry, mode))
        assert got == want


@pytest.mark.parametrize("geometry_name", sorted(GEOMETRIES))
@pytest.mark.parametrize("mode", COMBINED_MODES, ids=mode_id)
def test_combined_allocator_matches_per_row_scan(geometry_name, mode, traces):
    geometry = GEOMETRIES[geometry_name]
    for hot, warm in COMBINED_RATIOS:
        got = outcome(lambda: CombinedProfileAllocator(traces, geometry, mode, hot, warm))
        want = outcome(
            lambda: reference.combined_maps(traces, geometry, mode, hot, warm)
        )
        assert got == want, (hot, warm)


@pytest.mark.parametrize("geometry_name", sorted(GEOMETRIES))
@pytest.mark.parametrize("near_fraction", (0.25, 0.5))
def test_tldram_allocator_matches_per_row_scan(geometry_name, near_fraction, traces):
    geometry = GEOMETRIES[geometry_name]
    config = TLDRAMConfig(near_fraction=near_fraction)
    for ratio in RATIOS:
        got = outcome(lambda: TLDRAMAllocator(traces, geometry, config, ratio))
        want = outcome(lambda: reference.tldram_maps(traces, geometry, config, ratio))
        assert got == want, ratio


def test_maps_are_nonempty_where_expected(geometry, traces):
    """The equivalence sweep compares real placements, not two empty
    maps or two identical errors."""
    assert ProfileAllocator(traces, geometry, mode_50(), 0.3).mapped_count() > 0
    assert CollisionFreeAllocator(traces, geometry, mode_100()).mapped_count() > 0
    combined = CombinedProfileAllocator(
        traces, geometry, MCRModeConfig.combined(), 0.1, 0.3
    )
    assert combined.mapped_count() > 0


class TestCapacityErrors:
    def test_footprint_exceeds_mcr_page_capacity(self):
        # Four 512-row sub-arrays whose 1/64 region holds 2 base rows each.
        geometry = DRAMGeometry(rows_per_bank=2048)
        mode = MCRModeConfig(k=4, m=4, region_fraction=1 / 64)
        traces = [make_trace("tigr", 3000, 1, geometry=geometry)]
        with pytest.raises(ValueError) as raised:
            reference.collision_free_maps(traces, geometry, mode)
        message = str(raised.value)
        assert re.fullmatch(
            r"footprint \(\d+ rows\) exceeds MCR page capacity "
            r"\(8 base rows\) for bank \(\d+, \d+\)",
            message,
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CollisionFreeAllocator(traces, geometry, mode)

    def test_cold_footprint_exceeds_normal_rows(self, geometry, traces):
        mode = mode_100()
        with pytest.raises(ValueError) as raised:
            reference.profile_maps(traces, geometry, mode, 0.5)
        message = str(raised.value)
        assert re.fullmatch(
            r"cold footprint \(\d+\) exceeds normal rows \(0\) for bank \(\d+, \d+\)",
            message,
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProfileAllocator(traces, geometry, mode, 0.5)

    def test_combined_cold_footprint_exceeds_normal_rows(self, geometry, traces):
        mode = MCRModeConfig.combined(region_fraction=0.5, alt_region_fraction=0.5)
        with pytest.raises(ValueError) as raised:
            reference.combined_maps(traces, geometry, mode, 0.1, 0.1)
        message = str(raised.value)
        assert re.fullmatch(
            r"cold footprint \(\d+\) exceeds normal rows for \(\d+, \d+\)", message
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CombinedProfileAllocator(traces, geometry, mode, 0.1, 0.1)


class TestNoPerRowClassification:
    """Building an allocator zips ranked rows against the generator's
    region layout; it classifies no row, so an O(rows-per-bank) scan
    cannot come back unnoticed."""

    @pytest.fixture
    def classified(self, monkeypatch):
        calls = []
        row_class = MCRGenerator.row_class

        def counting(self, row):
            calls.append(row)
            return row_class(self, row)

        monkeypatch.setattr(MCRGenerator, "row_class", counting)
        return calls

    def test_guard_counts_classifications(self, classified, geometry, traces):
        reference.profile_maps(traces, geometry, mode_50(), 0.2)
        assert len(classified) >= geometry.rows_per_bank

    def test_profile_allocator(self, classified, geometry, traces):
        ProfileAllocator(traces, geometry, mode_50(), 0.2)
        assert classified == []

    def test_collision_free_allocator(self, classified, geometry, traces):
        CollisionFreeAllocator(traces, geometry, mode_50())
        assert classified == []

    def test_combined_allocator(self, classified, geometry, traces):
        mode = MCRModeConfig.combined(region_fraction=0.5, alt_region_fraction=0.25)
        CombinedProfileAllocator(traces, geometry, mode, 0.1, 0.3)
        assert classified == []
