"""Tests for MCR mode config and the MCR generator."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dram.config import single_core_geometry
from repro.dram.mcr import MCRGenerator, MCRModeConfig, MechanismSet, RowClass


@pytest.fixture(scope="module")
def geometry():
    return single_core_geometry()


def make_gen(geometry, k=4, m=4, region=1.0, **mech):
    mode = MCRModeConfig(
        k=k, m=m, region_fraction=region, mechanisms=MechanismSet(**mech)
    )
    return MCRGenerator(geometry, mode)


class TestModeConfig:
    def test_off_mode(self):
        mode = MCRModeConfig.off()
        assert not mode.enabled
        assert mode.label() == "[off]"

    def test_label(self):
        mode = MCRModeConfig(k=4, m=2, region_fraction=0.75)
        assert mode.label() == "[2/4x/75%reg]"

    def test_rejects_m_above_k(self):
        with pytest.raises(ValueError):
            MCRModeConfig(k=2, m=3, region_fraction=0.5)

    def test_rejects_non_dividing_m(self):
        with pytest.raises(ValueError):
            MCRModeConfig(k=4, m=3, region_fraction=0.5)

    def test_rejects_unsupported_k(self):
        with pytest.raises(ValueError):
            MCRModeConfig(k=8, m=8, region_fraction=0.5)

    def test_rejects_region_on_1x(self):
        with pytest.raises(ValueError):
            MCRModeConfig(k=1, m=1, region_fraction=0.5)

    def test_effective_m_without_skipping(self):
        mode = MCRModeConfig(
            k=4,
            m=2,
            region_fraction=1.0,
            mechanisms=MechanismSet(refresh_skipping=False),
        )
        # No skipping -> every clone pass issued -> cells see K refreshes.
        assert mode.effective_m == 4

    def test_effective_m_with_skipping(self):
        mode = MCRModeConfig(k=4, m=2, region_fraction=1.0)
        assert mode.effective_m == 2


class TestRegionDetection:
    def test_50_percent_region_is_msb_compare(self, geometry):
        # Paper: with mode [50%reg], MCR rows are exactly those with A8=1.
        gen = make_gen(geometry, region=0.5)
        for row in range(0, 2048):
            expected = bool((row >> 8) & 1)
            assert gen.is_mcr_row(row) == expected

    def test_25_percent_region_is_two_bit_compare(self, geometry):
        gen = make_gen(geometry, region=0.25)
        for row in range(0, 2048):
            expected = ((row >> 7) & 0b11) == 0b11
            assert gen.is_mcr_row(row) == expected

    def test_100_percent_region(self, geometry):
        gen = make_gen(geometry, region=1.0)
        assert all(gen.is_mcr_row(r) for r in range(0, 4096, 17))

    def test_disabled_mode_has_no_mcr_rows(self, geometry):
        gen = MCRGenerator(geometry, MCRModeConfig.off())
        assert not any(gen.is_mcr_row(r) for r in range(0, 4096, 17))

    def test_row_class(self, geometry):
        gen = make_gen(geometry, region=0.5)
        assert gen.row_class(0) is RowClass.NORMAL
        assert gen.row_class(0x1FF) is RowClass.MCR


class TestAddressChanger:
    def test_mcr_address_forces_lsbs(self, geometry):
        gen = make_gen(geometry, k=4)
        assert gen.mcr_address(0b100000000) == 0b100000011

    def test_normal_row_passthrough(self, geometry):
        gen = make_gen(geometry, k=4, region=0.5)
        row = 5  # local index 5 < 256 -> normal
        assert gen.mcr_address(row) == row

    def test_clone_rows_consecutive(self, geometry):
        gen = make_gen(geometry, k=4)
        assert gen.clone_rows(0b1101) == [0b1100, 0b1101, 0b1110, 0b1111]

    def test_base_row_and_clone_index(self, geometry):
        gen = make_gen(geometry, k=4)
        assert gen.base_row(7) == 4
        assert gen.clone_index(7) == 3

    def test_row_bounds_checked(self, geometry):
        gen = make_gen(geometry)
        with pytest.raises(ValueError):
            gen.is_mcr_row(geometry.rows_per_bank)
        with pytest.raises(ValueError):
            gen.is_mcr_row(-1)


class TestWordlineDecoder:
    """The true/complement decoding trick of paper Fig. 7."""

    def test_normal_row_selects_itself(self, geometry):
        gen = make_gen(geometry, region=0.5)
        assert gen.asserted_wordlines(42) == [42]

    def test_mcr_row_selects_exactly_clones(self, geometry):
        gen = make_gen(geometry, k=2, m=2, region=0.5)
        row = 0x1FE  # in region
        assert gen.asserted_wordlines(row) == gen.clone_rows(row)

    @given(st.integers(0, 32767))
    def test_decoder_equals_clone_rows(self, row):
        geometry = single_core_geometry()
        gen = make_gen(geometry, k=4, m=4, region=0.5)
        assert gen.asserted_wordlines(row) == gen.clone_rows(row)

    @given(
        st.sampled_from([2, 4]),
        st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        st.integers(0, 32767),
    )
    def test_decoder_property_across_modes(self, k, region, row):
        geometry = single_core_geometry()
        gen = make_gen(geometry, k=k, m=k, region=region)
        wordlines = gen.asserted_wordlines(row)
        assert wordlines == gen.clone_rows(row)
        if gen.is_mcr_row(row):
            assert len(wordlines) == k
            # All clones share the sub-array and the MCR address.
            assert len({w >> 9 for w in wordlines}) == 1
            assert len({gen.mcr_address(w) for w in wordlines}) == 1
        else:
            assert wordlines == [row]


class TestClonesStayInRegion:
    @given(st.integers(0, 32767))
    def test_clones_of_mcr_rows_are_mcr_rows(self, row):
        geometry = single_core_geometry()
        for region in (0.25, 0.5, 1.0):
            gen = make_gen(geometry, k=4, m=4, region=region)
            if gen.is_mcr_row(row):
                assert all(gen.is_mcr_row(c) for c in gen.clone_rows(row))


class TestRegionLayoutViews:
    """The row sequences derived from the region starts agree with the
    per-row classifier on every row of a bank."""

    @pytest.mark.parametrize(
        "mode",
        [
            MCRModeConfig.off(),
            MCRModeConfig(k=2, m=2, region_fraction=0.25),
            MCRModeConfig(k=4, m=4, region_fraction=0.75),
            MCRModeConfig(k=4, m=2, region_fraction=1.0),
            MCRModeConfig.combined(),
            MCRModeConfig.combined(
                k=2, alt_k=4, region_fraction=0.5, alt_region_fraction=0.5
            ),
        ],
        ids=lambda mode: mode.label(),
    )
    @pytest.mark.parametrize("rows_per_subarray", (256, 512))
    def test_views_match_row_class(self, mode, rows_per_subarray):
        geometry = replace(
            single_core_geometry(), rows_per_bank=4096, rows_per_subarray=rows_per_subarray
        )
        gen = MCRGenerator(geometry, mode)
        by_class = {cls: [] for cls in RowClass}
        for row in range(geometry.rows_per_bank):
            by_class[gen.row_class(row)].append(row)

        def base(rows):
            return [row for row in rows if gen.clone_index(row) == 0]

        assert list(gen.normal_rows()) == by_class[RowClass.NORMAL]
        assert list(gen.region_rows()) == by_class[RowClass.MCR]
        assert list(gen.base_rows()) == base(by_class[RowClass.MCR])
        assert list(gen.alt_base_rows()) == base(by_class[RowClass.MCR_ALT])
        for view in (gen.normal_rows(), gen.base_rows(), gen.alt_base_rows()):
            assert len(view) == len(list(view))

    def test_sequence_indexing(self, geometry):
        rows = make_gen(geometry, k=4, region=0.5).base_rows()
        listed = list(rows)
        assert len(rows) == len(listed) == geometry.rows_per_bank // 8
        assert rows[0] == listed[0] == 256
        assert rows[-1] == listed[-1] == geometry.rows_per_bank - 4
        assert [rows[i] for i in range(0, len(rows), 97)] == listed[::97]
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                rows[index]
