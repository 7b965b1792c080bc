"""Lockstep batched execution of many simulation instances.

The kernel steps every unfinished lane one event instant per round:

    round:  for each lane in mask: lane.step()      (one event apiece)

Cross-lane dispatch state is struct-of-arrays numpy: per-lane clocks,
the finished mask that selects lanes each round, and aggregate queue
occupancy / refresh accrual mirrors refreshed every sync interval.
Per-command microstate (bank/rank floors, queue buckets, decision
memos) lives in the flat per-lane tables of :mod:`repro.batch.lane` —
scalar-indexed access dominates there, where Python lists beat numpy
element access by an order of magnitude.

Lanes share timing domains, MCR row classifiers and an address-decode
memo per (geometry, mapping), so 64 lanes pay that construction once
per *distinct config*, not once per lane. The refresh spread schedule
comes from the memo in :mod:`repro.dram.refresh`, which the scalar
engine shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.batch.compat import incompatibility
from repro.batch.lane import Lane
from repro.batch.tables import as_mode_config, shared_domain
from repro.controller.address_mapping import AddressMapper
from repro.core.api import SystemSpec
from repro.core.mcr_mode import MCRMode
from repro.cpu.trace import Trace
from repro.dram.mcr import MCRGenerator, MCRModeConfig
from repro.dram.refresh import spread_schedule, window_counts
from repro.sim.results import RunResult

#: Lanes per kernel invocation; the harness chunks larger groups.
MAX_LANES = 64

#: Rounds between refreshes of the aggregate SoA mirrors.
_SYNC_INTERVAL = 16


class BatchCompatError(ValueError):
    """An instance handed to the kernel needs the scalar engine."""


@dataclass(frozen=True)
class BatchInstance:
    """One (config, seed) simulation instance: the batched counterpart
    of a ``run_system`` call."""

    traces: tuple[Trace, ...]
    mode: MCRModeConfig
    spec: SystemSpec = field(default_factory=SystemSpec)
    max_cycles: int | None = None
    #: Mirror the observability hub's metrics into ``RunResult.metrics``
    #: (the batched counterpart of ``ObservabilityConfig(metrics=True)``).
    metrics: bool = False


def from_verify_case(case) -> BatchInstance:
    """Adapt a seeded :class:`repro.verify.generator.VerifyCase`."""
    from repro.verify.generator import build_spec, build_traces

    return BatchInstance(
        traces=tuple(build_traces(case)),
        mode=case.mode().config,
        spec=build_spec(case),
        max_cycles=case.max_cycles,
    )


class BatchKernel:
    """Build lanes over shared tables, then run them in lockstep."""

    def __init__(self, instances) -> None:
        lanes: list[Lane] = []
        mappers: dict = {}
        decode_memos: dict = {}
        generators: dict = {}
        for index, instance in enumerate(instances):
            mode = as_mode_config(instance.mode)
            if not isinstance(mode, MCRModeConfig):
                raise BatchCompatError(
                    f"instance {index}: mode must be MCRMode/MCRModeConfig, "
                    f"got {type(instance.mode).__name__}"
                )
            spec = instance.spec
            reason = incompatibility(spec)
            if reason is not None:
                raise BatchCompatError(f"instance {index}: {reason}")
            geometry = spec.geometry
            map_key = (geometry, spec.mapping)
            mapper = mappers.get(map_key)
            if mapper is None:
                mapper = mappers[map_key] = AddressMapper(geometry, spec.mapping)
                decode_memos[map_key] = {}
            memo = decode_memos[map_key]
            banks = geometry.banks_per_rank
            decode = mapper.decode
            decoded = []
            for trace in instance.traces:
                lane_trace = []
                for entry in trace.entries:
                    address = entry.address
                    tup = memo.get(address)
                    if tup is None:
                        coords = decode(address)
                        tup = (
                            coords.channel,
                            coords.rank,
                            coords.bank,
                            coords.rank * banks + coords.bank,
                            coords.row,
                        )
                        memo[address] = tup
                    lane_trace.append(tup)
                decoded.append(lane_trace)
            gen_key = (geometry, mode)
            generator = generators.get(gen_key)
            if generator is None:
                generator = generators[gen_key] = MCRGenerator(geometry, mode)
            spread = (
                spread_schedule(window_counts(mode))
                if spec.refresh_enabled
                else b""
            )
            domain = shared_domain(geometry, mode, spec.wiring)
            lanes.append(
                Lane(
                    index,
                    instance.traces,
                    mode,
                    spec,
                    instance.max_cycles,
                    domain,
                    spread,
                    decoded,
                    generator.row_class,
                    instance.metrics,
                )
            )
        self.lanes = lanes
        size = len(lanes)
        #: Struct-of-arrays dispatch state, one slot per lane.
        self.clock = np.zeros(size, dtype=np.float64)
        self.finished = np.zeros(size, dtype=bool)
        self.read_occupancy = np.zeros(size, dtype=np.int64)
        self.write_occupancy = np.zeros(size, dtype=np.int64)
        self.refresh_served = np.zeros(size, dtype=np.int64)
        self.rounds = 0

    def _sync(self, lanes) -> None:
        clock = self.clock
        read_occ = self.read_occupancy
        write_occ = self.write_occupancy
        served = self.refresh_served
        for lane in lanes:
            i = lane.index
            clock[i] = lane.now
            read_occ[i] = sum(c.rq.occ for c in lane.ctrls)
            write_occ[i] = sum(c.wq.occ for c in lane.ctrls)
            served[i] = sum(sum(c.ref_served) for c in lane.ctrls)

    def run(self) -> list[RunResult]:
        lanes = self.lanes
        finished = self.finished
        while True:
            mask = np.flatnonzero(~finished)
            if mask.size == 0:
                break
            for i in mask:
                lane = lanes[i]
                lane.step()
                if lane.done:
                    finished[i] = True
            self.rounds += 1
            if self.rounds % _SYNC_INTERVAL == 0:
                self._sync(lanes[i] for i in mask)
        self._sync(lanes)
        return [lane.result for lane in lanes]


def run_batch(instances) -> list[RunResult]:
    """Run instances on the batched kernel; results in instance order.

    Every per-instance :class:`RunResult` is bit-identical to
    ``repro.core.api.run_system(instance.traces, instance.mode,
    spec=instance.spec, max_cycles=instance.max_cycles)`` — the contract
    the cross-engine equivalence suite enforces.
    """
    instances = list(instances)
    if not instances:
        return []
    return BatchKernel(instances).run()
