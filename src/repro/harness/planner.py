"""Job planning: enumerate every simulation a set of experiments needs.

Each figure driver's sweep structure is mirrored here as a generator of
:class:`SimJob`\\ s built from trace *provenances* (no traces are built
at planning time, so planning a full sweep is milliseconds). The planner
dedupes by fingerprint **across the whole requested graph**, not per
figure — the conventional-baseline run of ``fig11`` is the same job as
``fig12``'s and ``headline``'s, so it is planned, executed and cached
once.

Planning is an optimization, never a correctness dependency: drivers
re-request every run through ``cached_run``, so a job the planner missed
simply executes serially at driver time, and a job planned needlessly is
wasted work, not wrong output. The registry test in
``tests/test_harness_planner.py`` keeps the two in lockstep anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.controller.address_mapping import MappingScheme
from repro.controller.controller import SchedulingPolicy
from repro.core.api import SystemSpec
from repro.core.mcr_mode import MCRMode
from repro.cpu.trace import TraceProvenance
from repro.dram.config import multi_core_geometry
from repro.dram.refresh import WiringMethod
from repro.experiments.scale import ScaleConfig
from repro.harness.jobs import SimJob
from repro.workloads.generator import geometry_key
from repro.workloads.multiprogram import multicore_workload_provenances
from repro.workloads.suites import SINGLE_CORE_WORKLOADS  # noqa: F401 (re-export)
from repro.workloads import standard_multicore_mixes

TraceSet = tuple[TraceProvenance, ...]


def single_trace_sets(scale: ScaleConfig) -> list[tuple[str, TraceSet]]:
    """One single-core trace per workload, as the drivers build them."""
    key = geometry_key(None)
    return [
        (
            name,
            (
                TraceProvenance(
                    profile=name,
                    display_name=name,
                    n_requests=scale.n_requests_single,
                    seed=scale.seed,
                    row_offset=0,
                    geometry_key=key,
                ),
            ),
        )
        for name in scale.single_workloads
    ]


def multicore_trace_sets(scale: ScaleConfig) -> list[tuple[str, TraceSet]]:
    """The scale's quad-core mixes, as the drivers build them."""
    geometry = multi_core_geometry()
    mixes = standard_multicore_mixes(seed=scale.seed)[: scale.n_multicore_mixes]
    return [
        (
            name,
            multicore_workload_provenances(
                name, names, scale.n_requests_multi_per_core, scale.seed, geometry
            ),
        )
        for name, names in mixes
    ]


def _baseline(traces: TraceSet, spec: SystemSpec, who: str) -> SimJob:
    return SimJob.from_provenances(
        traces, MCRMode.off(), spec, label=f"{who} [off]"
    )


# ----------------------------------------------------------------------
# per-experiment planners (mirror the drivers' sweep loops)


def _plan_ratio(scale: ScaleConfig, multi: bool) -> Iterator[SimJob]:
    from repro.experiments.fig11_fig14_ratio import KS, RATIOS, _ratio_mode

    spec = SystemSpec(geometry=multi_core_geometry()) if multi else SystemSpec()
    sets = multicore_trace_sets(scale) if multi else single_trace_sets(scale)
    for name, traces in sets:
        yield _baseline(traces, spec, name)
        for k in KS:
            for ratio in RATIOS:
                yield SimJob.from_provenances(traces, _ratio_mode(k, ratio), spec)


def _plan_profile(scale: ScaleConfig, multi: bool) -> Iterator[SimJob]:
    from repro.experiments.fig12_fig15_profile import (
        ALLOCATION_RATIOS,
        KS,
        _profile_mode,
    )

    base = SystemSpec(geometry=multi_core_geometry()) if multi else SystemSpec()
    sets = multicore_trace_sets(scale) if multi else single_trace_sets(scale)
    for name, traces in sets:
        yield _baseline(traces, base, name)
        for k in KS:
            for ratio in ALLOCATION_RATIOS:
                yield SimJob.from_provenances(
                    traces, _profile_mode(k), base.with_allocation(ratio)
                )


def _plan_modes(scale: ScaleConfig, multi: bool) -> Iterator[SimJob]:
    from repro.experiments.fig13_fig16_modes import ALLOCATION, MS, REGIONS

    base = SystemSpec(geometry=multi_core_geometry()) if multi else SystemSpec()
    sets = multicore_trace_sets(scale) if multi else single_trace_sets(scale)
    for name, traces in sets:
        yield _baseline(traces, base, name)
        for m in MS:
            for region in REGIONS:
                yield SimJob.from_provenances(
                    traces,
                    MCRMode.parse(f"{m}/4x/{region}%reg"),
                    base.with_allocation(ALLOCATION),
                )


def _plan_mechanisms(scale: ScaleConfig) -> Iterator[SimJob]:
    from repro.experiments.fig17_mechanisms import CASES

    for multi in (False, True):
        base = SystemSpec(geometry=multi_core_geometry()) if multi else SystemSpec()
        spec = base.with_allocation("collision-free")
        sets = multicore_trace_sets(scale) if multi else single_trace_sets(scale)
        for name, traces in sets:
            yield _baseline(traces, base, name)
            for _, mode_text, mechanisms in CASES:
                yield SimJob.from_provenances(
                    traces, MCRMode.parse(mode_text, mechanisms=mechanisms), spec
                )


def _plan_edp(scale: ScaleConfig) -> Iterator[SimJob]:
    from repro.experiments.fig18_edp import MODES

    for multi in (False, True):
        base = SystemSpec(geometry=multi_core_geometry()) if multi else SystemSpec()
        spec = base.with_allocation("collision-free")
        sets = multicore_trace_sets(scale) if multi else single_trace_sets(scale)
        for name, traces in sets:
            yield _baseline(traces, base, name)
            for mode_text in MODES:
                yield SimJob.from_provenances(traces, MCRMode.parse(mode_text), spec)


def _plan_headline(scale: ScaleConfig) -> Iterator[SimJob]:
    mode = MCRMode.parse("4/4x/100%reg")
    for multi in (False, True):
        base = SystemSpec(geometry=multi_core_geometry()) if multi else SystemSpec()
        spec = base.with_allocation("collision-free")
        sets = multicore_trace_sets(scale) if multi else single_trace_sets(scale)
        for name, traces in sets:
            yield _baseline(traces, base, name)
            yield SimJob.from_provenances(traces, mode, spec)


def _plan_combined(scale: ScaleConfig) -> Iterator[SimJob]:
    base = SystemSpec()
    combined_mode = MCRMode.combined("4/4x", "2/2x", 25.0, 50.0)
    cf = base.with_allocation("collision-free")
    for name, traces in single_trace_sets(scale):
        yield _baseline(traces, base, name)
        yield SimJob.from_provenances(traces, MCRMode.parse("2/2x/100%reg"), cf)
        yield SimJob.from_provenances(
            traces, combined_mode, base.with_allocation(("combined", 0.15, 0.45))
        )
        yield SimJob.from_provenances(traces, MCRMode.parse("4/4x/100%reg"), cf)


def _plan_wiring(scale: ScaleConfig) -> Iterator[SimJob]:
    mode = MCRMode.parse("4/4x/100%reg")
    base = SystemSpec()
    for name, traces in single_trace_sets(scale):
        yield _baseline(traces, base, name)
        for wiring in (WiringMethod.K_TO_N_MINUS_1_K, WiringMethod.K_TO_K):
            yield SimJob.from_provenances(
                traces, mode, SystemSpec(allocation="collision-free", wiring=wiring)
            )


def _plan_scheduler(scale: ScaleConfig) -> Iterator[SimJob]:
    mode = MCRMode.parse("4/4x/100%reg")
    for name, traces in single_trace_sets(scale):
        for policy in SchedulingPolicy:
            yield _baseline(traces, SystemSpec(policy=policy), name)
            yield SimJob.from_provenances(
                traces, mode, SystemSpec(policy=policy, allocation="collision-free")
            )


def _plan_mapping(scale: ScaleConfig) -> Iterator[SimJob]:
    mode = MCRMode.parse("4/4x/100%reg")
    for name, traces in single_trace_sets(scale):
        for scheme in MappingScheme:
            yield _baseline(traces, SystemSpec(mapping=scheme), name)
            yield SimJob.from_provenances(
                traces, mode, SystemSpec(mapping=scheme, allocation="collision-free")
            )


def _plan_capacity(scale: ScaleConfig) -> Iterator[SimJob]:
    from repro.experiments.capacity_sweep import MODES

    sets = dict(single_trace_sets(scale))
    traces = sets.get("comm2") or next(iter(sets.values()))
    for mode_text in MODES:
        if mode_text == "off":
            yield _baseline(traces, SystemSpec(), "capacity")
        else:
            yield SimJob.from_provenances(
                traces,
                MCRMode.parse(mode_text),
                SystemSpec(allocation="collision-free"),
            )


def _plan_tldram(scale: ScaleConfig) -> Iterator[SimJob]:
    # Only the cached_run-reachable half; the TL-DRAM comparator drives
    # the simulator directly and runs at driver time.
    from repro.experiments.tldram_comparison import ALLOCATION_RATIO, REGION_FRACTION

    mode = MCRMode.parse(f"4/4x/{REGION_FRACTION * 100:g}%reg")
    for name, traces in single_trace_sets(scale):
        yield _baseline(traces, SystemSpec(), name)
        yield SimJob.from_provenances(
            traces, mode, SystemSpec(allocation=ALLOCATION_RATIO)
        )


def _plan_mechanism_zoo(scale: ScaleConfig) -> Iterator[SimJob]:
    from repro.experiments.mechanism_comparison import MECHANISMS

    for name, traces in single_trace_sets(scale):
        yield _baseline(traces, SystemSpec(), name)
        for _, mode, spec in MECHANISMS:
            yield SimJob.from_provenances(traces, mode, spec)


def _plan_nothing(scale: ScaleConfig) -> Iterator[SimJob]:
    return iter(())


#: experiment id -> job enumerator. Keys must match the CLI registry.
PLANNERS: dict[str, Callable[[ScaleConfig], Iterable[SimJob]]] = {
    "fig08": _plan_nothing,
    "fig10": _plan_nothing,
    "table3": _plan_nothing,
    "fig11": lambda scale: _plan_ratio(scale, multi=False),
    "fig12": lambda scale: _plan_profile(scale, multi=False),
    "fig13": lambda scale: _plan_modes(scale, multi=False),
    "fig14": lambda scale: _plan_ratio(scale, multi=True),
    "fig15": lambda scale: _plan_profile(scale, multi=True),
    "fig16": lambda scale: _plan_modes(scale, multi=True),
    "fig17": _plan_mechanisms,
    "fig18": _plan_edp,
    "headline": _plan_headline,
    "combined": _plan_combined,
    "wiring": _plan_wiring,
    "scheduler": _plan_scheduler,
    "capacity": _plan_capacity,
    "tldram": _plan_tldram,
    "mapping": _plan_mapping,
    "mechanisms": _plan_mechanism_zoo,
}


def plan(experiments: Sequence[str], scale: ScaleConfig) -> list[SimJob]:
    """Enumerate and dedupe every job the experiments will request.

    Order is deterministic: first-seen order across the experiment list,
    which also makes the executor's collection order reproducible.
    """
    jobs: list[SimJob] = []
    seen: set[str] = set()
    for name in experiments:
        planner = PLANNERS.get(name)
        if planner is None:
            continue
        for job in planner(scale):
            if job.fingerprint not in seen:
                seen.add(job.fingerprint)
                jobs.append(job)
    return jobs


# ----------------------------------------------------------------------
# kernel-chunk work units


@dataclass(frozen=True)
class WorkUnit:
    """One executor dispatch.

    ``kind == "chunk"`` is a kernel invocation: up to ``MAX_LANES``
    batch-compatible jobs sharing a :func:`repro.batch.compat.group_key`
    so the lanes amortize one set of construction tables. ``kind ==
    "scalar"`` is a single job the kernel refused, carrying the compat
    ``reason`` for telemetry and debugging.
    """

    kind: str
    jobs: tuple[SimJob, ...]
    reason: str | None = None


def plan_units(
    jobs: Sequence[SimJob], max_lanes: int | None = None
) -> list[WorkUnit]:
    """Partition deduplicated (and cache-peeled) jobs into work units.

    Batch-compatible jobs are grouped by ``group_key`` — one kernel
    invocation then shares address-decode memos and timing domains
    across its lanes — and each group is split into chunks of at most
    ``max_lanes`` (default ``MAX_LANES``). Jobs the compat predicate
    refuses become one scalar unit each. Unit order is deterministic:
    chunk groups in first-seen order, then scalar units in first-seen
    order, so the executor's telemetry and collection order are
    reproducible run to run.

    Callers peel cache hits *before* planning units (the executor
    resolves memo and store first), so a partially-cached sweep packs
    only its cold lanes into chunks.
    """
    from repro.batch import MAX_LANES, job_incompatibility
    from repro.batch.compat import group_key

    lanes = max_lanes if max_lanes is not None else MAX_LANES
    if lanes < 1:
        raise ValueError(f"max_lanes must be >= 1, got {lanes}")
    groups: dict[tuple, list[SimJob]] = {}
    scalars: list[WorkUnit] = []
    for job in jobs:
        reason = job_incompatibility(job)
        if reason is not None:
            scalars.append(WorkUnit("scalar", (job,), reason))
            continue
        groups.setdefault(group_key(job.spec), []).append(job)
    units: list[WorkUnit] = []
    for members in groups.values():  # dicts preserve first-seen order
        for start in range(0, len(members), lanes):
            units.append(WorkUnit("chunk", tuple(members[start : start + lanes])))
    units.extend(scalars)
    return units
