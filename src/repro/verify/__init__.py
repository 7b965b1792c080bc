"""Differential verification: an independent protocol oracle, a
config-space fuzzer, and a failure shrinker.

Every mechanism this reproduction models ultimately rests on one
:class:`repro.dram.timing.TimingDomain` that the controller and the
device consume — a shared-fate bug there would pass every other test.
This package closes that gap the way USIMM-class simulators are
cross-validated (DRAMPower, Ramulator): against a from-scratch rule
table derived directly from the paper's Table 3 and the JEDEC DDR3
values quoted in DESIGN.md. Its :class:`ProtocolOracle` is the
repository's only timing checker: the observability hub runs it online
(``ObservabilityConfig(invariants=True)``, and for every traced run's
gate labels), and mechanism attribution replays through its rules.

Independence contract: nothing in ``repro.verify`` imports
``repro.dram.timing`` (asserted by ``tests/test_verify_rules.py``). The
oracle re-derives row classes, programmed timings, tRFC scaling and
refresh pacing from its own constants, and only ever agrees with the
engine because both implement the same published protocol.

Entry points:

- :class:`ProtocolOracle` / :func:`replay_commands` — table-driven
  replay checker for a traced command stream;
- :mod:`repro.verify.generator` — the seeded config/trace sampler;
- :mod:`repro.verify.metamorphic` — full-run equality identities;
- :func:`shrink_case` — delta-debugging minimizer for failing
  (config, trace) pairs;
- ``python -m repro.verify --seconds N --seed S`` — the CI fuzz driver.
"""

from repro.verify.bugs import BUG_NAMES, apply_bug, bug_case
from repro.verify.corpus import (
    CORPUS_SCHEMA_VERSION,
    DEFAULT_CORPUS_DIR,
    corpus_paths,
    load_artifact,
    replay_artifact,
    write_artifact,
)
from repro.verify.generator import (
    VerifyCase,
    build_spec,
    build_traces,
    explicit_entries,
    fuzz_geometry,
    miss_heavy_trace,
    random_trace,
    refresh_heavy_trace,
    sample_case,
    write_miss_trace,
)
from repro.verify.metamorphic import IDENTITIES, check_identity, run_case
from repro.verify.oracle import (
    OracleViolation,
    ProtocolOracle,
    replay_commands,
    run_case_with_oracle,
)
from repro.verify.rules import (
    SPACING_RULES,
    STRUCTURAL_RULES,
    OracleConfig,
    OracleTimings,
    RowKind,
    oracle_timings,
    row_kind_of,
)
from repro.verify.shrinker import ShrinkResult, shrink_case

__all__ = [
    "BUG_NAMES",
    "CORPUS_SCHEMA_VERSION",
    "DEFAULT_CORPUS_DIR",
    "IDENTITIES",
    "OracleConfig",
    "OracleTimings",
    "OracleViolation",
    "ProtocolOracle",
    "RowKind",
    "SPACING_RULES",
    "STRUCTURAL_RULES",
    "ShrinkResult",
    "VerifyCase",
    "apply_bug",
    "bug_case",
    "build_spec",
    "build_traces",
    "check_identity",
    "corpus_paths",
    "explicit_entries",
    "fuzz_geometry",
    "load_artifact",
    "miss_heavy_trace",
    "oracle_timings",
    "random_trace",
    "refresh_heavy_trace",
    "replay_artifact",
    "replay_commands",
    "row_kind_of",
    "run_case",
    "run_case_with_oracle",
    "sample_case",
    "shrink_case",
    "write_artifact",
    "write_miss_trace",
]
