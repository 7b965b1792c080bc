"""Unit and end-to-end tests for online invariant checking.

``ObservabilityConfig(invariants=True)`` runs the protocol oracle on every
command the simulator issues; the oracle also labels each traced command
with the rule that gated it.
"""

import random

from repro.core.api import SystemSpec
from repro.core.mcr_mode import MCRMode
from repro.dram.commands import Command, CommandType
from repro.dram.config import DRAMGeometry
from repro.dram.mcr import RowClass
from repro.dram.timing import TimingDomain
from repro.obs import ObservabilityConfig, observe_run
from repro.obs.hub import oracle_config
from repro.verify.generator import fuzz_geometry, miss_heavy_trace
from repro.verify.oracle import (
    GATE_QUEUE,
    GATE_READY,
    ProtocolOracle,
    replay_commands,
)


def _geometry():
    return DRAMGeometry(
        channels=1,
        ranks_per_channel=2,
        banks_per_rank=4,
        rows_per_bank=2048,
        columns_per_row=32,
        rows_per_subarray=512,
        density="1Gb",
    )


def _checker():
    """The oracle the hub builds for a conventional run on this device."""
    geometry = _geometry()
    mode = MCRMode.off().config
    config = oracle_config(geometry, mode)
    oracle = ProtocolOracle(config, channels=1, refresh_enabled=False)
    return oracle, TimingDomain(geometry, mode)


def _act(cycle, row=5, rank=0, bank=0):
    return Command(cycle, CommandType.ACTIVATE, 0, rank=rank, bank=bank, row=row)


def _read(cycle, row=5, rank=0, bank=0, column=0):
    return Command(
        cycle, CommandType.READ, 0, rank=rank, bank=bank, row=row, column=column
    )


class TestConstraintGates:
    def test_first_command_is_ready(self):
        checker, _ = _checker()
        assert checker.check(0, _act(0)) == GATE_READY
        assert checker.clean

    def test_trcd_gates_prompt_column(self):
        checker, domain = _checker()
        t_rcd = domain.row_timings(RowClass.NORMAL).t_rcd
        checker.check(0, _act(100))
        gate = checker.check(0, _read(100 + t_rcd))
        assert gate == "tRCD"
        assert checker.clean
        assert checker.commands == 2

    def test_late_column_gate_is_queue(self):
        checker, domain = _checker()
        t_rcd = domain.row_timings(RowClass.NORMAL).t_rcd
        checker.check(0, _act(100))
        assert checker.check(0, _read(100 + t_rcd + 50)) == GATE_QUEUE
        assert checker.clean

    def test_early_column_is_violation(self):
        checker, domain = _checker()
        t_rcd = domain.row_timings(RowClass.NORMAL).t_rcd
        checker.check(0, _act(100))
        checker.check(0, _read(100 + t_rcd - 1))
        assert not checker.clean
        violation = checker.violations[0]
        assert violation.rule == "tRCD"
        assert violation.required_cycle == 100 + t_rcd
        assert "tRCD" in str(violation)

    def test_column_to_closed_bank_is_structural(self):
        checker, _ = _checker()
        checker.check(0, _read(500))
        assert [v.rule for v in checker.violations] == ["column-to-closed-bank"]

    def test_activate_open_bank_is_structural(self):
        checker, _ = _checker()
        checker.check(0, _act(0, row=1))
        checker.check(0, _act(1000, row=2))
        assert "ACT-to-open-bank" in [v.rule for v in checker.violations]

    def test_command_bus_conflict(self):
        checker, _ = _checker()
        checker.check(0, _act(100, bank=0))
        checker.check(0, _act(100, bank=1, row=9))
        assert "command-bus" in [v.rule for v in checker.violations]

    def test_check_log_replays(self):
        checker, domain = _checker()
        t_rcd = domain.row_timings(RowClass.NORMAL).t_rcd
        log = [(0, _act(0)), (0, _read(t_rcd))]
        assert replay_commands(log, checker.config, refresh_enabled=False) == []


class TestObservedRuns:
    def test_clean_run_has_no_violations(self):
        """Full observability runs the oracle on every issued command and
        labels the trace with its gates."""
        rng = random.Random(11)
        geometry = fuzz_geometry(channels=1)
        result, hub = observe_run(
            [miss_heavy_trace(rng, geometry, 80)],
            "2/2x/100%reg",
            spec=SystemSpec(geometry=geometry),
            config=ObservabilityConfig.full(),
        )
        assert result.reads == 80
        assert hub.clean, [str(v) for v in hub.violations[:3]]
        assert hub.checker.commands > 160  # ACT + RD per miss, at least
        assert len(hub.tracer) == hub.checker.commands
        gates = {event.gate for event in hub.tracer.events}
        assert gates - {GATE_READY, GATE_QUEUE}, "no timing-gated commands?"

    def test_corrupted_trcd_detected(self):
        """The hub's oracle checks the paper's values, not the device's:
        a shaved device tRCD surfaces as violations with no reference
        table handed to the hub."""
        from repro.verify.bugs import apply_bug, bug_case
        from repro.verify.generator import build_spec, build_traces

        case = bug_case("shaved-trcd")
        _, hub = observe_run(
            build_traces(case),
            case.mode(),
            spec=build_spec(case),
            config=ObservabilityConfig(invariants=True),
            max_cycles=case.max_cycles,
            **apply_bug(case, "shaved-trcd"),
        )
        assert "tRCD" in [v.rule for v in hub.violations]

    def test_fuzz_iterations(self, tmp_path):
        """One differential fuzz iteration and one fully observed run
        (transparent, profile-conserving, oracle-clean) both behave."""
        from repro.verify.cli import run_fuzz_iteration
        from repro.verify.metamorphic import check_identity

        rng = random.Random(3)
        assert run_fuzz_iteration(rng, tmp_path, 0) == []
        assert check_identity("obs-transparent", rng) is None
        assert list(tmp_path.iterdir()) == []

    def test_fuzz_main_smoke(self, capsys, tmp_path):
        from repro.verify.cli import main as fuzz_main

        # --seconds 0 still runs one fuzz iteration.
        argv = [
            "--seconds", "0", "--seed", "1", "--identities", "0",
            "--skip-self-check", "--no-batch", "--artifact-dir", str(tmp_path),
        ]
        assert fuzz_main(argv) == 0
        assert "fuzz: 1 iterations, 0 failures" in capsys.readouterr().out


class TestMetricsFromRuns:
    def test_registry_covers_headline_metrics(self):
        rng = random.Random(5)
        geometry = fuzz_geometry(channels=1)
        _, hub = observe_run(
            [miss_heavy_trace(rng, geometry, 60)],
            "4/4x/100%reg",
            spec=SystemSpec(geometry=geometry),
            config=ObservabilityConfig.full(),
        )
        snap = hub.metrics_snapshot()
        for name in (
            "sim.commands",
            "sim.queue_arrivals",
            "sim.queue_depth",
            "sim.row_hits",
            "sim.row_misses",
            "sim.refresh_slots",
            "sim.avg_read_latency_cycles",
        ):
            assert name in snap, f"missing {name}"
        # Miss-heavy MCR stream: early-access events must fire.
        assert "sim.early_access_events" in snap

    def test_result_carries_metrics(self):
        geometry = fuzz_geometry(channels=1)
        rng = random.Random(2)
        result, _ = observe_run(
            [miss_heavy_trace(rng, geometry, 40)],
            "off",
            spec=SystemSpec(geometry=geometry),
            config=ObservabilityConfig(metrics=True),
        )
        assert result.metrics is not None
        assert "sim.commands" in result.metrics

    def test_metrics_do_not_change_results(self):
        from repro.core.api import run_system
        from repro.workloads import make_trace

        trace = make_trace("comm2", n_requests=200, seed=4)
        plain = run_system([trace], MCRMode.off())
        observed, hub = observe_run(
            [trace], MCRMode.off(), config=ObservabilityConfig.full()
        )
        assert observed.execution_cycles == plain.execution_cycles
        assert observed.avg_read_latency_cycles == plain.avg_read_latency_cycles
        assert observed.controller_stats == plain.controller_stats
        assert hub.clean
