"""Tests for single-run mechanism attribution (Fig. 17 reconstruction).

The headline acceptance test: the attribution estimate from ONE observed
MCR run must reconcile, within 2 percentage points, with the improvement
measured the expensive way — actually re-running the workload with every
mechanism disabled (the paper's Fig. 17 ablation protocol: same mode
geometry, collision-free allocation, mechanisms toggled via
:class:`~repro.dram.mcr.MechanismSet`).
"""

import hashlib
import json

import pytest

from repro.core.api import SystemSpec, run_system
from repro.core.mcr_mode import MCRMode
from repro.dram.mcr import MechanismSet
from repro.mechanisms import MechanismSpec
from repro.obs import (
    MECHANISMS,
    ObservabilityConfig,
    attribute_mechanisms,
    format_attribution,
    observe_run,
)
from repro.obs.attribution import attribute_plugin
from repro.workloads import make_trace

_ALL_OFF = MechanismSet(
    early_access=False,
    early_precharge=False,
    fast_refresh=False,
    refresh_skipping=False,
)


def _observed_mcr_run(traces, mechanisms=MechanismSet(refresh_skipping=False)):
    """One observed run under the Fig. 17 protocol (collision-free)."""
    spec = SystemSpec().with_allocation("collision-free")
    mode = MCRMode.parse("4/4x/100%reg", mechanisms=mechanisms)
    return observe_run(
        traces,
        mode,
        spec=spec,
        config=ObservabilityConfig(trace=True, metrics=True),
    )


class TestReconciliation:
    def test_estimate_within_2pct_of_real_ablation(self):
        """Fig. 17 smoke reconciliation: attribution from one run vs the
        measured delta of actually re-running with mechanisms off."""
        traces = [make_trace("comm2", n_requests=300, seed=0)]
        result_on, hub = _observed_mcr_run(traces)
        att = attribute_mechanisms(hub)

        spec = SystemSpec().with_allocation("collision-free")
        off_mode = MCRMode.parse("4/4x/100%reg", mechanisms=_ALL_OFF)
        result_off = run_system(traces, off_mode, spec=spec)
        measured_pct = (
            100.0
            * (result_off.execution_cycles - result_on.execution_cycles)
            / result_off.execution_cycles
        )

        estimate = att["improvement_pct"]["estimate"]
        assert abs(estimate - measured_pct) <= 2.0, (
            f"attribution estimate {estimate:.2f}% vs measured "
            f"{measured_pct:.2f}% (bounds "
            f"{att['improvement_pct']['lower']:.2f}.."
            f"{att['improvement_pct']['upper']:.2f})"
        )
        # The truth must also lie inside (or within noise of) the
        # reported lower/upper bracket.
        assert att["improvement_pct"]["lower"] - 2.0 <= measured_pct
        assert measured_pct <= att["improvement_pct"]["upper"] + 2.0

    def test_self_check_clean(self):
        """Replaying the trace under its own configuration reproduces it
        exactly — the oracle already accepted every bound as it issued."""
        traces = [make_trace("libq", n_requests=200, seed=1)]
        _, hub = _observed_mcr_run(traces)
        att = attribute_mechanisms(hub)
        assert att["self_check"]["clean"]
        assert att["self_check"]["makespan_delta"] == 0


class TestSnapshotShape:
    def test_buckets_and_evidence(self):
        traces = [make_trace("comm2", n_requests=200, seed=2)]
        _, hub = _observed_mcr_run(traces)
        att = attribute_mechanisms(hub)
        assert set(att["buckets"]) == set(MECHANISMS)
        assert att["mcr_enabled"]
        assert att["total_saved_cycles"] == pytest.approx(
            sum(att["buckets"].values())
        )
        for name in MECHANISMS:
            bound = att["bucket_bounds"][name]
            assert bound["lower"] <= bound["upper"]
            assert name in att["evidence"]
        # EA and EP carry the paper's conclusion: they dominate the gain.
        ea_ep = att["buckets"]["early_access"] + att["buckets"]["early_precharge"]
        assert ea_ep > 0
        text = format_attribution(att)
        assert "early_access" in text
        assert "self-check: clean" in text

    def test_refresh_skipping_reported_as_bound(self):
        """RS slots are absent from the trace, so the bucket is an
        occupancy bound with its basis stated, never a point estimate."""
        traces = [make_trace("comm2", n_requests=200, seed=3)]
        _, hub = _observed_mcr_run(traces, mechanisms=MechanismSet())
        att = attribute_mechanisms(hub)
        rs = att["evidence"]["refresh_skipping"]
        assert "basis" in rs
        assert att["bucket_bounds"]["refresh_skipping"]["lower"] == 0
        skipped = rs["skipped_slots"]
        assert (
            att["bucket_bounds"]["refresh_skipping"]["upper"]
            == skipped * rs["trfc_cycles_per_slot"]
        )

    def test_explicit_refresh_counts_override_registry(self):
        traces = [make_trace("comm2", n_requests=150, seed=4)]
        _, hub = _observed_mcr_run(traces)
        att = attribute_mechanisms(hub, refresh_counts={"skipped": 5})
        assert att["evidence"]["refresh_skipping"]["skipped_slots"] == 5


class TestErrors:
    def test_requires_trace(self):
        traces = [make_trace("comm2", n_requests=50, seed=5)]
        _, hub = observe_run(
            traces,
            MCRMode.parse("4/4x/100%reg"),
            config=ObservabilityConfig(metrics=True),
        )
        with pytest.raises(ValueError, match="trace"):
            attribute_mechanisms(hub)


def _digest(snapshot: dict) -> str:
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class TestSnapshotsPinned:
    """Attribution snapshots are pinned by digest: they were recorded
    from the replay built on the simulator's own timing domain, and the
    replay on the protocol oracle's shadow state and spacing rules must
    reproduce every makespan, bucket and per-column delay exactly."""

    @pytest.mark.parametrize(
        "workload,n,seed,mechanisms,refresh_counts,expected",
        [
            ("comm2", 300, 0, MechanismSet(refresh_skipping=False), None,
             "00977b515da29653"),
            ("libq", 200, 1, MechanismSet(refresh_skipping=False), None,
             "8e36d33b7e8c8f06"),
            ("comm2", 200, 2, MechanismSet(refresh_skipping=False), None,
             "b148b82d84b16475"),
            ("comm2", 200, 3, MechanismSet(), None, "5aa309442e6d7b6b"),
            ("comm2", 150, 4, MechanismSet(refresh_skipping=False),
             {"skipped": 5}, "3fcbe142014f9778"),
        ],
        ids=["comm2-0", "libq-1", "comm2-2", "comm2-3-rs", "comm2-4-counts"],
    )
    def test_mechanism_attribution_digest(
        self, workload, n, seed, mechanisms, refresh_counts, expected
    ):
        traces = [make_trace(workload, n_requests=n, seed=seed)]
        _, hub = _observed_mcr_run(traces, mechanisms=mechanisms)
        att = attribute_mechanisms(hub, refresh_counts=refresh_counts)
        assert _digest(att) == expected

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (MechanismSpec.make("clr", fraction_pct=100), "566d1d356da93c8e"),
            (
                MechanismSpec.make("chargecache", capacity=16, window_ns=200_000.0),
                "506e9b4439b8e0b1",
            ),
        ],
        ids=["clr", "chargecache"],
    )
    def test_plugin_attribution_digest(self, spec, expected):
        _, hub = observe_run(
            [make_trace("comm2", 200, seed=7)],
            MCRMode.off(),
            spec=SystemSpec(mechanism=spec),
            config=ObservabilityConfig(trace=True),
        )
        assert _digest(attribute_plugin(hub)) == expected
