"""Tests for the metamorphic full-run identities.

Each identity is an exact RunResult equality over a random draw. The
default-suite tests run a handful of rounds per identity; the
slow-marked sweep runs the acceptance bar of 50 seeded configurations
per identity.
"""

import random

import pytest

from repro.verify.generator import VerifyCase
from repro.verify.metamorphic import IDENTITIES, check_identity, run_case


class TestIdentityCatalog:
    def test_the_identity_catalog_is_complete(self):
        assert set(IDENTITIES) == {
            "mcr-region-empty",
            "skip-noop",
            "obs-transparent",
            "column-permutation",
            "batch-duplicates",
            "batch-permutation",
            "clr-uncoupled",
            "chargecache-empty",
        }

    def test_unknown_identity_raises(self):
        with pytest.raises(KeyError):
            check_identity("nonsense", random.Random(0))


@pytest.mark.parametrize("name", sorted(IDENTITIES))
class TestIdentitiesHold:
    def test_holds_on_seeded_draws(self, name):
        rng = random.Random(hash(name) % 100_000)
        for _ in range(3):
            mismatch = check_identity(name, rng)
            assert mismatch is None, mismatch

    @pytest.mark.slow
    def test_holds_on_50_seeded_draws(self, name):
        rng = random.Random(len(name))
        for round_number in range(50):
            mismatch = check_identity(name, rng)
            assert mismatch is None, f"round {round_number}: {mismatch}"


class TestMachinery:
    def test_run_case_is_deterministic(self):
        case = VerifyCase(seed=4, k=2, m=2, region_pct=50.0, n_requests=60)
        a = run_case(case)
        b = run_case(case)
        assert a == b

    def test_identity_would_catch_a_real_difference(self):
        """Sanity: the comparison isn't vacuous — changing the mode
        changes the result the differ would report."""
        from repro.verify.metamorphic import _diff

        base = VerifyCase(
            seed=4, k=2, m=2, region_pct=100.0, trace_kind="miss_heavy", n_requests=80
        )
        fast = run_case(base)
        from dataclasses import replace

        slow = run_case(replace(base, k=1, m=1, region_pct=0.0))
        assert _diff("modes differ", fast, slow) is not None
        assert _diff("same", fast, fast) is None

    def test_obs_transparent_reports_broken_conservation(self, monkeypatch):
        """The identity asserts profiler conservation: a profile whose
        components do not sum to its latency is reported."""
        from repro.obs.profiler import RequestProfile

        monkeypatch.setattr(RequestProfile, "conserved", property(lambda self: False))
        mismatch = check_identity("obs-transparent", random.Random(3))
        assert mismatch is not None and "profile conservation" in mismatch

    def test_obs_transparent_reports_hub_violations(self, monkeypatch):
        """The identity also fails when the hub's online oracle flags
        the observed run."""
        from repro.obs.hub import ObservabilityHub

        monkeypatch.setattr(
            ObservabilityHub, "violations", property(lambda self: ["fake"])
        )
        mismatch = check_identity("obs-transparent", random.Random(3))
        assert mismatch is not None and "hub oracle flagged" in mismatch
