"""Tests for the shared stimulus generator and the differential fuzz loop.

The acceptance bar for the verifier: hundreds of seeded configurations
through the real engine with the oracle attached, zero violations. The
default-suite test keeps the count small; the slow-marked test runs the
full 500-configuration sweep.
"""

import random

import pytest

from repro.verify.generator import (
    KM_CHOICES,
    VerifyCase,
    build_spec,
    build_traces,
    explicit_entries,
    fuzz_geometry,
    sample_case,
)
from repro.verify.oracle import run_case_with_oracle


class TestSampler:
    def test_deterministic(self):
        a = [sample_case(random.Random(3)) for _ in range(20)]
        b = [sample_case(random.Random(3)) for _ in range(20)]
        assert a == b

    def test_samples_are_valid_configurations(self):
        """Every sampled case must build a real mode/spec/trace set."""
        rng = random.Random(11)
        kinds = set()
        for _ in range(200):
            case = sample_case(rng)
            assert (case.k, case.m) in KM_CHOICES
            case.mode()  # MCRModeConfig validation runs here
            spec = build_spec(case)
            assert spec.geometry.channels == case.channels
            kinds.add(case.trace_kind)
            traces = build_traces(case)
            assert len(traces) == case.n_traces
            assert all(len(t.entries) == case.n_requests for t in traces)
        # The sampler actually explores the trace-shape space.
        assert kinds == {"random", "miss_heavy", "write_miss", "refresh_heavy", "reuse"}

    def test_addresses_stay_on_device(self):
        rng = random.Random(5)
        for _ in range(20):
            case = sample_case(rng)
            capacity = case.geometry().capacity_bytes
            for trace in build_traces(case):
                assert all(0 <= e.address < capacity for e in trace.entries)

    def test_fuzz_geometry_is_small(self):
        geometry = fuzz_geometry()
        assert geometry.channels == 2
        assert geometry.rows_per_bank == 2048


class TestCaseSerialization:
    def test_round_trip_without_entries(self):
        case = sample_case(random.Random(9))
        assert VerifyCase.from_dict(case.to_dict()) == case

    def test_round_trip_with_entries(self):
        case = sample_case(random.Random(9))
        pinned = case.with_entries(explicit_entries(case))
        restored = VerifyCase.from_dict(pinned.to_dict())
        assert restored == pinned
        assert restored.entries == pinned.entries

    def test_explicit_entries_win_over_seed(self):
        case = VerifyCase(seed=1, n_requests=50)
        pinned = case.with_entries((((0, False, 0), (3, True, 64)),))
        traces = build_traces(pinned)
        assert len(traces) == 1
        assert [(e.gap, e.is_write, e.address) for e in traces[0].entries] == [
            (0, False, 0),
            (3, True, 64),
        ]

    def test_entries_round_trip_preserves_bools(self):
        case = VerifyCase().with_entries((((0, True, 64),),))
        data = case.to_dict()
        assert data["entries"] == [[[0, True, 64]]]
        assert VerifyCase.from_dict(data).entries == (((0, True, 64),),)


class TestDifferentialFuzz:
    def test_seeded_configs_run_clean(self):
        rng = random.Random(2015)
        for _ in range(30):
            case = sample_case(rng)
            _, violations, commands = run_case_with_oracle(case)
            assert violations == [], f"{case}: {[str(v) for v in violations[:3]]}"
            assert commands > 0

    @pytest.mark.slow
    def test_500_seeded_configs_run_clean(self):
        """The acceptance sweep: 500 seeded configs, zero violations."""
        rng = random.Random(0)
        for i in range(500):
            case = sample_case(rng)
            _, violations, _ = run_case_with_oracle(case)
            assert violations == [], (
                f"config {i} ({case}): {[str(v) for v in violations[:3]]}"
            )


class TestCli:
    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.verify",
                "--seconds",
                "0",
                "--seed",
                "1",
                "--identities",
                "0",
                "--skip-self-check",
                "--max-iterations",
                "2",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fuzz:" in proc.stdout

    def test_self_check_catches_all_bugs(self):
        from repro.verify.cli import run_self_check

        assert run_self_check() == []

    def test_experiments_cli_delegates(self):
        from repro.experiments.cli import main

        assert (
            main(
                [
                    "verify",
                    "--seconds",
                    "0",
                    "--seed",
                    "2",
                    "--identities",
                    "0",
                    "--skip-self-check",
                    "--max-iterations",
                    "1",
                ]
            )
            == 0
        )


class TestBatchedRounds:
    """The kernel-side fuzz complement (:mod:`repro.verify.batched`)."""

    def test_round_runs_clean_and_counts_lanes(self):
        from repro.verify.batched import DEFAULT_PAIRS_PER_ROUND, run_batched_round

        lanes, failures = run_batched_round(random.Random(7))
        assert failures == []
        assert lanes == 2 * DEFAULT_PAIRS_PER_ROUND

    def test_round_replays_from_the_seed_alone(self):
        from repro.verify.batched import _draw_pair, PAIR_KINDS

        first = random.Random(41)
        second = random.Random(41)
        for index in range(8):
            kind = PAIR_KINDS[index % len(PAIR_KINDS)]
            assert _draw_pair(kind, first) == _draw_pair(kind, second)

    def test_round_cycles_every_pair_kind(self):
        from repro.verify.batched import _draw_pair, PAIR_KINDS

        rng = random.Random(3)
        for kind in PAIR_KINDS:
            pair = _draw_pair(kind, rng)
            assert pair.kind == kind
            assert pair.label

    def test_round_reports_a_corrupted_lane(self, monkeypatch):
        """Self-check: if the kernel ever diverged, the round would say
        so — corrupt one lane's output and the pairwise check fires."""
        import dataclasses

        import repro.batch as batch_module

        real_run_batch = batch_module.run_batch

        def corrupting(instances):
            outputs = list(real_run_batch(instances))
            outputs[0] = dataclasses.replace(
                outputs[0], execution_cycles=outputs[0].execution_cycles + 1
            )
            return outputs

        monkeypatch.setattr(batch_module, "run_batch", corrupting)
        from repro.verify.batched import run_batched_round

        lanes, failures = run_batched_round(random.Random(7), spot_check=False)
        assert lanes == 16
        assert any("execution_cycles" in failure for failure in failures)

    def test_spot_check_anchors_to_the_scalar_engine(self, monkeypatch):
        """A kernel that is internally consistent but wrong still fails:
        corrupt *both* lanes of every pair identically and only the
        scalar spot-check can notice."""
        import dataclasses

        import repro.batch as batch_module

        real_run_batch = batch_module.run_batch

        def uniformly_wrong(instances):
            return [
                dataclasses.replace(out, execution_cycles=out.execution_cycles + 1)
                for out in real_run_batch(instances)
            ]

        monkeypatch.setattr(batch_module, "run_batch", uniformly_wrong)
        from repro.verify.batched import run_batched_round

        _, failures = run_batched_round(random.Random(7), spot_check=True)
        assert any("scalar engine" in failure for failure in failures)

    def test_cli_min_cases_floor(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.verify",
                "--seconds",
                "0",
                "--seed",
                "1",
                "--identities",
                "0",
                "--skip-self-check",
                "--max-iterations",
                "1",
                "--min-cases",
                "100000",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "below the --min-cases floor" in proc.stderr
