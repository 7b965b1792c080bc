"""Edge-case tests for the observability hub and channel observers."""

import random
import subprocess
import sys

import pytest

from repro.core.api import SystemSpec
from repro.core.mcr_mode import MCRMode
from repro.dram.config import single_core_geometry
from repro.dram.timing import TimingDomain
from repro.obs import ObservabilityConfig, ObservabilityHub, observe_run
from repro.verify.generator import (
    VerifyCase,
    build_spec,
    build_traces,
    fuzz_geometry,
    sample_case,
)
from repro.workloads import make_trace


def _hub(config: ObservabilityConfig) -> ObservabilityHub:
    geometry = single_core_geometry()
    mode = MCRMode.off().config
    return ObservabilityHub(config, geometry, TimingDomain(geometry, mode), mode)


class _FakeRequest:
    """Just enough of a MemoryRequest for on_enqueue."""

    def __init__(self, bank=0, row=0):
        self.bank = bank
        self.row = row
        self.req_id = 1


class TestDisabledComponents:
    def test_on_enqueue_noop_without_registry_or_profiler(self):
        """A hub with only invariants on must ignore queue events — no
        registry writes, no profiler state, no crash."""
        hub = _hub(ObservabilityConfig(invariants=True))
        assert hub.registry is None
        assert hub.profiler is None
        observer = hub.channel_observer(0)
        observer.on_enqueue(_FakeRequest(), 3, 1, open_row=None)
        observer.on_drain(100, True)
        # Safe even with a None payload: the profiler guard short-circuits.
        hub.on_request_served(0, None)
        assert hub.metrics_snapshot() is None
        assert hub.profile_snapshot() is None

    def test_trace_only_hub_skips_metrics_paths(self):
        hub = _hub(ObservabilityConfig(trace=True))
        assert hub.registry is None
        assert hub.checker is not None  # gates need the protocol oracle
        hub.channel_observer(0).on_enqueue(_FakeRequest(), 1, 0, open_row=5)
        assert hub.metrics_snapshot() is None


class TestMultiChannelIsolation:
    def test_enqueue_labels_keep_channels_apart(self):
        hub = _hub(ObservabilityConfig(metrics=True))
        hub.channel_observer(0).on_enqueue(_FakeRequest(bank=2), 1, 0, None)
        hub.channel_observer(1).on_enqueue(_FakeRequest(bank=2), 1, 0, None)
        hub.channel_observer(1).on_enqueue(_FakeRequest(bank=2), 2, 0, None)
        snap = hub.metrics_snapshot()
        arrivals = {
            s["labels"]["channel"]: s["value"]
            for s in snap["sim.queue_arrivals"]["series"]
        }
        assert arrivals == {"0": 1, "1": 2}

    def test_observed_multichannel_run_isolates_channels(self):
        from repro.verify.generator import random_trace

        geometry = fuzz_geometry(channels=2)
        traces = [random_trace(random.Random(21), geometry, 120)]
        _, hub = observe_run(
            traces,
            MCRMode.off(),
            spec=SystemSpec(geometry=geometry),
            config=ObservabilityConfig(metrics=True, profile=True),
        )
        snap = hub.metrics_snapshot()
        channels = {
            s["labels"]["channel"] for s in snap["sim.commands"]["series"]
        }
        assert channels == {"0", "1"}
        # Profiler groups carry the channel too, and never mix.
        profile = hub.profile_snapshot()
        assert {g["channel"] for g in profile["groups"]} == {0, 1}


class TestFinalize:
    def test_finalize_twice_folds_counters_once(self):
        traces = [make_trace("comm2", n_requests=60, seed=22)]
        _, hub = observe_run(
            traces, MCRMode.off(), config=ObservabilityConfig(metrics=True)
        )
        first = hub.metrics_snapshot()
        # The engine already finalized; a second finalize must be a no-op,
        # not double the refresh/row-hit counters.
        hub.finalize(controllers=[])
        assert hub.metrics_snapshot() == first

    def test_finalize_without_registry_is_noop(self):
        hub = _hub(ObservabilityConfig(invariants=True))
        hub.finalize(controllers=[])
        hub.finalize(controllers=[])
        assert hub.metrics_snapshot() is None


def _sampled_cases():
    """Sampled cases covering each mechanism, plus the disabled points
    of both plugins (which the oracle must treat as plain DRAM)."""
    rng = random.Random(14)
    by_mechanism: dict[str, list[VerifyCase]] = {}
    while any(len(by_mechanism.get(m, [])) < 4 for m in ("mcr", "clr", "chargecache")):
        case = sample_case(rng)
        by_mechanism.setdefault(case.mechanism, []).append(case)
    cases = [case for group in by_mechanism.values() for case in group[:4]]
    plain = cases[0]
    cases.append(VerifyCase(seed=plain.seed, mechanism="clr", clr_fraction_pct=0.0))
    cases.append(
        VerifyCase(
            seed=plain.seed, mechanism="chargecache", cc_capacity=0, cc_window_ns=5e4
        )
    )
    return cases


class TestOracleAdapter:
    """The hub configures its oracle from the simulator's device mode and
    plugin; the differential fuzzer configures one from the case
    description. Both routes must describe the same device."""

    @pytest.mark.parametrize(
        "case",
        _sampled_cases(),
        ids=lambda case: f"{case.mechanism}-{case.seed}",
    )
    def test_hub_config_matches_case(self, case):
        from repro.sim.engine import SystemSimulator

        spec = build_spec(case)
        simulator = SystemSimulator(
            build_traces(case),
            case.mode().config,
            geometry=spec.geometry,
            refresh_enabled=spec.refresh_enabled,
            observability=ObservabilityConfig(invariants=True),
            mechanism=spec.mechanism,
        )
        assert simulator.obs.checker.config == case.oracle_config()
        assert simulator.obs.checker.refresh_enabled == case.refresh_enabled

    def test_engine_import_does_not_load_verify(self):
        """The hub imports repro.verify lazily: a plain simulation must
        not pay for loading the oracle package."""
        code = (
            "import sys, repro.sim.engine; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.verify')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_finalize_runs_refresh_audit_without_registry(self):
        """finalize closes the oracle's end-of-run audit even when no
        metrics registry was collected."""
        hub = _hub(ObservabilityConfig(invariants=True))
        calls = []
        hub.checker.finalize = lambda: calls.append(1)
        hub.finalize(controllers=[])
        hub.finalize(controllers=[])
        assert calls == [1]

