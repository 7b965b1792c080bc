"""Seeded config-space and trace sampling — the one source of randomized
stimuli for ``python -m repro.verify``, the repository's fuzz driver.

Its self-check, metamorphic identities and differential fuzz phases all
draw geometries, modes and traces from here; the trace builders also
serve tests and benchmarks that need small random streams.

The unit of sampling is a :class:`VerifyCase`: a plain-data description
of one (geometry, MCR mode, mechanisms, mapping, policy, trace) tuple.
It is deliberately JSON-round-trippable — the shrinker minimizes cases
and the corpus stores them verbatim — and it can carry *explicit* trace
entries (``entries``) so a minimized case replays bit-for-bit without
its generator.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING

from repro.verify.rules import OracleConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.trace import Trace
    from repro.dram.config import DRAMGeometry

# NOTE: simulator-side classes (Trace, DRAMGeometry, SystemSpec, ...) are
# imported lazily inside functions. Importing repro.verify must load no
# simulator module — repro.dram's package init alone pulls in the timing
# implementation the oracle exists to cross-check.

#: (K, M) pairs the paper publishes timings for (Table 3 columns).
KM_CHOICES: tuple[tuple[int, int], ...] = (
    (1, 1),
    (2, 1),
    (2, 2),
    (4, 1),
    (4, 2),
    (4, 4),
)

#: Region sizes that keep the paper's 1-2 bit MSB detector exact.
REGION_PCT_CHOICES = (25.0, 50.0, 100.0)

#: Latency mechanisms the fuzzer samples ("mcr" means the classic MCR
#: path with no plugin spec attached, keeping those cases batchable and
#: their fingerprints unchanged).
MECHANISM_CHOICES = ("mcr", "clr", "chargecache")

#: CLR coupled-region sizes (same MSB-exact sizes as the MCR regions).
CLR_FRACTION_CHOICES = (25.0, 50.0, 100.0)

#: ChargeCache table sizes and decay windows the fuzzer draws from.
#: Windows are exact multiples of tCK so the plugin's cycle conversion
#: and the oracle's agree without epsilon games.
CC_CAPACITY_CHOICES = (4, 16, 64)
CC_WINDOW_NS_CHOICES = (50_000.0, 200_000.0, 1_000_000.0)

_MAPPINGS = ("PAGE_INTERLEAVING", "PERMUTATION", "BIT_REVERSAL")
_POLICIES = ("FR_FCFS", "FCFS", "CLOSED_PAGE")
_TRACE_KINDS = (
    "random",
    "random",
    "random",
    "miss_heavy",
    "miss_heavy",
    "write_miss",
    "refresh_heavy",
    "reuse",
)


def fuzz_geometry(channels: int = 2) -> DRAMGeometry:
    """A tiny multi-channel device so short runs touch every structure."""
    from repro.dram.config import DRAMGeometry

    return DRAMGeometry(
        channels=channels,
        ranks_per_channel=2,
        banks_per_rank=4,
        rows_per_bank=2048,
        columns_per_row=32,
        rows_per_subarray=512,
        density="1Gb",
    )


def random_trace(
    rng: random.Random, geometry: DRAMGeometry, n_requests: int, name: str = "fuzz"
) -> Trace:
    """A random mixed read/write trace over the whole address space."""
    from repro.cpu.trace import Trace, TraceEntry

    max_block = geometry.capacity_bytes // 64 - 1
    entries = [
        TraceEntry(
            gap=rng.randint(0, 30),
            is_write=rng.random() < 0.3,
            address=rng.randint(0, max_block) * 64,
        )
        for _ in range(n_requests)
    ]
    return Trace(name=name, entries=entries)


def miss_heavy_trace(
    rng: random.Random, geometry: DRAMGeometry, n_requests: int
) -> Trace:
    """A read stream striding across rows so nearly every access is a
    row miss (each one exercises ACT -> column, i.e. tRCD)."""
    from repro.cpu.trace import Trace, TraceEntry

    row_bytes = geometry.columns_per_row * 64
    rows = geometry.rows_per_bank
    start = rng.randrange(rows)
    entries = [
        TraceEntry(
            gap=rng.randint(0, 8),
            is_write=False,
            address=((start + i * 33) % rows) * row_bytes,
        )
        for i in range(n_requests)
    ]
    return Trace(name="fuzz-miss", entries=entries)


def write_miss_trace(
    rng: random.Random, geometry: DRAMGeometry, n_requests: int
) -> Trace:
    """A write stream striding across rows: every access is a row miss
    whose precharge waits on write recovery (tWR pushes PRE past tRAS,
    which is when the PRE -> ACT spacing, tRP, becomes the binding
    constraint)."""
    from repro.cpu.trace import Trace, TraceEntry

    row_bytes = geometry.columns_per_row * 64
    rows = geometry.rows_per_bank
    start = rng.randrange(rows)
    entries = [
        TraceEntry(
            gap=rng.randint(0, 8),
            is_write=True,
            address=((start + i * 33) % rows) * row_bytes,
        )
        for i in range(n_requests)
    ]
    return Trace(name="fuzz-write-miss", entries=entries)


def refresh_heavy_trace(
    rng: random.Random, geometry: DRAMGeometry, n_requests: int
) -> Trace:
    """A sparse trace whose gaps span many tREFI periods, so the run is
    dominated by REFRESH commands (exercises tRFC and refresh pacing)."""
    from repro.cpu.trace import Trace, TraceEntry

    max_block = geometry.capacity_bytes // 64 - 1
    entries = [
        TraceEntry(
            gap=rng.randint(2_000, 40_000),
            is_write=rng.random() < 0.3,
            address=rng.randint(0, max_block) * 64,
        )
        for _ in range(n_requests)
    ]
    return Trace(name="fuzz-refresh", entries=entries)


def reuse_trace(
    rng: random.Random, geometry: DRAMGeometry, n_requests: int
) -> Trace:
    """Round-robin over a small pool of pages. Pool pages sharing a bank
    conflict on every revisit, so the same rows are repeatedly precharged
    and promptly re-activated — the pattern that exercises activation-time
    row reclassification (ChargeCache hits on unexpired table entries)."""
    from repro.cpu.trace import Trace, TraceEntry

    row_bytes = geometry.columns_per_row * 64
    max_page = geometry.capacity_bytes // row_bytes - 1
    pool = [rng.randint(0, max_page) * row_bytes for _ in range(8)]
    entries = [
        TraceEntry(
            gap=rng.randint(0, 8),
            is_write=rng.random() < 0.2,
            address=pool[i % len(pool)],
        )
        for i in range(n_requests)
    ]
    return Trace(name="fuzz-reuse", entries=entries)


_TRACE_BUILDERS = {
    "random": random_trace,
    "miss_heavy": miss_heavy_trace,
    "write_miss": write_miss_trace,
    "refresh_heavy": refresh_heavy_trace,
    "reuse": reuse_trace,
}


@dataclass(frozen=True)
class VerifyCase:
    """One fuzzable system configuration plus its stimulus.

    Plain ints/floats/bools/strings only (JSON-serializable; the enums
    are stored by name). ``entries`` is normally ``None`` — traces are
    regenerated from ``seed`` — and holds explicit per-core
    ``(gap, is_write, address)`` tuples once the shrinker has pinned the
    stimulus down.
    """

    seed: int = 0
    channels: int = 1
    ranks_per_channel: int = 2
    banks_per_rank: int = 4
    rows_per_bank: int = 2048
    columns_per_row: int = 32
    rows_per_subarray: int = 512
    density: str = "1Gb"
    k: int = 1
    m: int = 1
    region_pct: float = 0.0
    alt_k: int = 1
    alt_m: int = 1
    alt_region_pct: float = 0.0
    early_access: bool = True
    early_precharge: bool = True
    fast_refresh: bool = True
    refresh_skipping: bool = True
    mapping: str = "PERMUTATION"
    policy: str = "FR_FCFS"
    refresh_enabled: bool = True
    trace_kind: str = "random"
    n_traces: int = 1
    n_requests: int = 100
    max_cycles: int = 3_000_000
    #: Latency mechanism under test. "mcr" (default) runs the classic
    #: path with no plugin spec (bit-identical fingerprints, batchable);
    #: "clr"/"chargecache" attach the corresponding plugin, with the
    #: MCR-mode fields above forced to their K=1 baseline. Defaults keep
    #: pre-mechanism corpus artifacts loading unchanged.
    mechanism: str = "mcr"
    clr_fraction_pct: float = 0.0
    cc_capacity: int = 0
    cc_window_ns: float = 0.0
    entries: tuple[tuple[tuple[int, bool, int], ...], ...] | None = None

    # -- derived views --------------------------------------------------

    def geometry(self) -> DRAMGeometry:
        from repro.dram.config import DRAMGeometry

        return DRAMGeometry(
            channels=self.channels,
            ranks_per_channel=self.ranks_per_channel,
            banks_per_rank=self.banks_per_rank,
            rows_per_bank=self.rows_per_bank,
            columns_per_row=self.columns_per_row,
            rows_per_subarray=self.rows_per_subarray,
            density=self.density,
        )

    def mode(self):
        """The simulator-side mode object (lazy import: ``core`` pulls in
        the engine, which must not load when only sampling)."""
        from repro.core.mcr_mode import MCRMode
        from repro.dram.mcr import MCRModeConfig, MechanismSet

        if self.mechanism != "mcr":
            # Plugin cases request the off mode; the device mode comes
            # from the plugin (plugins refuse to compose with MCR).
            return MCRMode(MCRModeConfig.off())
        return MCRMode(
            MCRModeConfig(
                k=self.k,
                m=self.m,
                region_fraction=self.region_pct / 100.0,
                mechanisms=MechanismSet(
                    early_access=self.early_access,
                    early_precharge=self.early_precharge,
                    fast_refresh=self.fast_refresh,
                    refresh_skipping=self.refresh_skipping,
                ),
                alt_k=self.alt_k,
                alt_m=self.alt_m,
                alt_region_fraction=self.alt_region_pct / 100.0,
            )
        )

    def mechanism_spec(self):
        """The plugin spec for the case, or None for the classic MCR
        path (lazy import keeps ``repro.verify`` simulator-free)."""
        if self.mechanism == "mcr":
            return None
        from repro.mechanisms import MechanismSpec

        if self.mechanism == "clr":
            return MechanismSpec.make("clr", fraction_pct=int(self.clr_fraction_pct))
        if self.mechanism == "chargecache":
            return MechanismSpec.make(
                "chargecache",
                capacity=self.cc_capacity,
                window_ns=self.cc_window_ns,
            )
        raise ValueError(f"unknown mechanism {self.mechanism!r}")

    def oracle_config(self) -> OracleConfig:
        """The oracle's independent view of the same configuration.

        For plugin cases this is the *device* configuration the plugin
        installs, restated independently: CLR is a k=2/m=1 coupled
        region refreshed at the normal rate with half its passes
        skipped; ChargeCache is conventional DRAM plus the shadow
        charge table parameters.
        """
        if self.mechanism == "clr" and self.clr_fraction_pct > 0:
            return OracleConfig(
                rows_per_bank=self.rows_per_bank,
                rows_per_subarray=self.rows_per_subarray,
                banks_per_rank=self.banks_per_rank,
                ranks_per_channel=self.ranks_per_channel,
                density=self.density,
                k=2,
                m=1,
                region_fraction=self.clr_fraction_pct / 100.0,
                fast_refresh=False,
                refresh_skipping=True,
                mechanism="clr",
            )
        if self.mechanism == "chargecache" and self.cc_capacity > 0:
            return OracleConfig(
                rows_per_bank=self.rows_per_bank,
                rows_per_subarray=self.rows_per_subarray,
                banks_per_rank=self.banks_per_rank,
                ranks_per_channel=self.ranks_per_channel,
                density=self.density,
                mechanism="chargecache",
                cc_capacity=self.cc_capacity,
                cc_window_ns=self.cc_window_ns,
            )
        if self.mechanism != "mcr":
            # A plugin at its disabled point (fraction 0 / capacity 0)
            # is conventional DRAM; the oracle checks it as such.
            return OracleConfig(
                rows_per_bank=self.rows_per_bank,
                rows_per_subarray=self.rows_per_subarray,
                banks_per_rank=self.banks_per_rank,
                ranks_per_channel=self.ranks_per_channel,
                density=self.density,
            )
        return OracleConfig(
            rows_per_bank=self.rows_per_bank,
            rows_per_subarray=self.rows_per_subarray,
            banks_per_rank=self.banks_per_rank,
            ranks_per_channel=self.ranks_per_channel,
            density=self.density,
            k=self.k,
            m=self.m,
            region_fraction=self.region_pct / 100.0,
            alt_k=self.alt_k,
            alt_m=self.alt_m,
            alt_region_fraction=self.alt_region_pct / 100.0,
            early_access=self.early_access,
            early_precharge=self.early_precharge,
            fast_refresh=self.fast_refresh,
            refresh_skipping=self.refresh_skipping,
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        if self.entries is not None:
            data["entries"] = [
                [[gap, bool(is_write), address] for gap, is_write, address in trace]
                for trace in self.entries
            ]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyCase":
        data = dict(data)
        if data.get("entries") is not None:
            data["entries"] = tuple(
                tuple((gap, bool(is_write), address) for gap, is_write, address in trace)
                for trace in data["entries"]
            )
        return cls(**data)

    def with_entries(
        self, entries: tuple[tuple[tuple[int, bool, int], ...], ...]
    ) -> "VerifyCase":
        return replace(self, entries=entries, n_traces=len(entries))


def build_traces(case: VerifyCase) -> list[Trace]:
    """Materialize the case's traces (explicit entries win over ``seed``)."""
    from repro.cpu.trace import Trace, TraceEntry

    if case.entries is not None:
        return [
            Trace(
                name=f"verify{i}",
                entries=[
                    TraceEntry(gap=gap, is_write=bool(is_write), address=address)
                    for gap, is_write, address in trace
                ],
            )
            for i, trace in enumerate(case.entries)
        ]
    geometry = case.geometry()
    builder = _TRACE_BUILDERS[case.trace_kind]
    traces = []
    for i in range(case.n_traces):
        rng = random.Random(case.seed * 1000 + i)
        trace = builder(rng, geometry, case.n_requests)
        trace.name = f"verify{i}"
        traces.append(trace)
    return traces


def explicit_entries(case: VerifyCase) -> tuple[tuple[tuple[int, bool, int], ...], ...]:
    """The case's traces as plain entry tuples (the shrinker's substrate)."""
    return tuple(
        tuple((e.gap, e.is_write, e.address) for e in trace.entries)
        for trace in build_traces(case)
    )


def build_spec(case: VerifyCase):
    """The :class:`~repro.core.api.SystemSpec` for a case (lazy import —
    ``core.api`` pulls in the whole engine)."""
    from repro.controller.address_mapping import MappingScheme
    from repro.controller.controller import SchedulingPolicy
    from repro.core.api import SystemSpec

    return SystemSpec(
        geometry=case.geometry(),
        mapping=MappingScheme[case.mapping],
        refresh_enabled=case.refresh_enabled,
        policy=SchedulingPolicy[case.policy],
        mechanism=case.mechanism_spec(),
    )


def sample_case(rng: random.Random, seed: int | None = None) -> VerifyCase:
    """Draw one configuration tuple from the fuzzable space.

    ``seed`` fixes the case's own trace seed (defaults to a draw from
    ``rng``); everything else — K/M, region size, mechanism subset,
    mapping, scheduling policy, refresh enablement, geometry, trace
    shape — comes from ``rng``.
    """
    if seed is None:
        seed = rng.getrandbits(32)
    # Mechanism draw: the classic MCR path keeps the majority (it is
    # the reference device and the only batchable one); the related-work
    # plugins each get a steady minority share.
    mech_roll = rng.random()
    if mech_roll < 0.7:
        mechanism = "mcr"
    elif mech_roll < 0.85:
        mechanism = "clr"
    else:
        mechanism = "chargecache"
    clr_fraction_pct = 0.0
    cc_capacity = 0
    cc_window_ns = 0.0
    if mechanism == "mcr":
        k, m = rng.choice(KM_CHOICES)
        region_pct = 0.0 if k == 1 else rng.choice(REGION_PCT_CHOICES)
    else:
        # Plugins refuse to compose with an MCR mode: neutralize the
        # mode fields so case.mode() is the off mode.
        k = m = 1
        region_pct = 0.0
        if mechanism == "clr":
            clr_fraction_pct = rng.choice(CLR_FRACTION_CHOICES)
        else:
            cc_capacity = rng.choice(CC_CAPACITY_CHOICES)
            cc_window_ns = rng.choice(CC_WINDOW_NS_CHOICES)
    alt_k = alt_m = 1
    alt_region_pct = 0.0
    if k == 4 and 0.0 < region_pct <= 50.0 and rng.random() < 0.3:
        alt_k = 2
        alt_m = rng.choice((1, 2))
        alt_region_pct = rng.choice((25.0, 50.0))
        if region_pct + alt_region_pct > 100.0:
            alt_region_pct = 25.0
    trace_kind = rng.choice(_TRACE_KINDS)
    if mechanism == "chargecache" and rng.random() < 0.5:
        # Bias toward the re-activation pattern that actually populates
        # and hits the charge table.
        trace_kind = "reuse"
    return VerifyCase(
        seed=seed,
        channels=rng.choice((1, 2)),
        ranks_per_channel=rng.choice((1, 2)),
        banks_per_rank=rng.choice((4, 8)),
        rows_per_bank=rng.choice((1024, 2048)),
        columns_per_row=32,
        rows_per_subarray=512,
        density=rng.choice(("1Gb", "2Gb")),
        k=k,
        m=m,
        region_pct=region_pct,
        alt_k=alt_k,
        alt_m=alt_m,
        alt_region_pct=alt_region_pct,
        early_access=rng.random() < 0.8,
        early_precharge=rng.random() < 0.8,
        fast_refresh=rng.random() < 0.8,
        refresh_skipping=rng.random() < 0.8,
        mapping=rng.choice(_MAPPINGS),
        policy=rng.choice(_POLICIES),
        refresh_enabled=rng.random() < 0.9,
        trace_kind=trace_kind,
        n_traces=rng.choice((1, 2)),
        n_requests=(
            rng.randint(8, 24) if trace_kind == "refresh_heavy" else rng.randint(60, 200)
        ),
        mechanism=mechanism,
        clr_fraction_pct=clr_fraction_pct,
        cc_capacity=cc_capacity,
        cc_window_ns=cc_window_ns,
    )


__all__ = [
    "CC_CAPACITY_CHOICES",
    "CC_WINDOW_NS_CHOICES",
    "CLR_FRACTION_CHOICES",
    "KM_CHOICES",
    "MECHANISM_CHOICES",
    "REGION_PCT_CHOICES",
    "VerifyCase",
    "build_spec",
    "build_traces",
    "explicit_entries",
    "fuzz_geometry",
    "miss_heavy_trace",
    "random_trace",
    "refresh_heavy_trace",
    "reuse_trace",
    "sample_case",
    "write_miss_trace",
]
