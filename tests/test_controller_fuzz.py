"""Fuzz the memory controller directly with random request streams.

No cores involved: requests are injected at random arrival cycles and the
controller is driven to completion. Afterwards we assert every request
was serviced and the issued command stream passed the protocol oracle,
attached online through an observability hub — under every scheduling
policy and several MCR modes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.controller import MemoryController, SchedulingPolicy
from repro.controller.request import MemoryRequest, RequestState
from repro.dram.config import single_core_geometry
from repro.dram.mcr import MCRGenerator, MCRModeConfig
from repro.dram.refresh import RefreshPlan
from repro.dram.timing import TimingDomain
from repro.obs import ObservabilityConfig, ObservabilityHub


def build_controller(mode, policy, refresh=True):
    geometry = single_core_geometry()
    domain = TimingDomain(geometry, mode)
    controller = MemoryController(
        geometry,
        domain,
        RefreshPlan(geometry, mode),
        row_class_fn=MCRGenerator(geometry, mode).row_class,
        refresh_enabled=refresh,
        policy=policy,
    )
    hub = ObservabilityHub(
        ObservabilityConfig(invariants=True), geometry, domain, mode
    )
    controller.observer = hub.channel_observer(0)
    return controller, hub


@st.composite
def request_streams(draw):
    n = draw(st.integers(5, 60))
    stream = []
    cycle = 0
    for i in range(n):
        cycle += draw(st.integers(0, 30))
        stream.append(
            dict(
                arrival=cycle,
                is_write=draw(st.booleans()),
                rank=draw(st.integers(0, 1)),
                bank=draw(st.integers(0, 7)),
                row=draw(st.integers(0, 1023)),
                column=draw(st.integers(0, 127)),
            )
        )
    return stream


def drive(controller, stream, horizon=500_000):
    """Inject the stream at its arrival cycles; run until drained."""
    pending = sorted(stream, key=lambda r: r["arrival"])
    served_reads = 0
    cycle = 0
    req_id = 0
    while pending or controller.outstanding():
        if cycle > horizon:
            raise AssertionError("controller did not drain the stream")
        # Inject everything due (respecting queue capacity).
        while pending and pending[0]["arrival"] <= cycle:
            spec = pending[0]
            if not controller.can_accept(spec["is_write"], cycle):
                break
            pending.pop(0)
            req_id += 1
            controller.enqueue(
                MemoryRequest(
                    req_id=req_id,
                    core_id=0,
                    is_write=spec["is_write"],
                    address=0,
                    channel=0,
                    rank=spec["rank"],
                    bank=spec["bank"],
                    row=spec["row"],
                    column=spec["column"],
                ),
                cycle,
            )
        nxt = controller.next_action_cycle(cycle)
        floor = pending[0]["arrival"] if pending else None
        candidates = [c for c in (nxt, floor) if c is not None]
        if not candidates:
            break
        target = min(candidates)
        cycle = max(cycle, target)
        events = controller.execute(cycle)
        served_reads += len(events.read_completions)
        if not events.issued:
            cycle += 1
        controller._collect(cycle)
    # Let any in-flight data land.
    controller._collect(cycle + 100)
    return served_reads


class TestControllerFuzz:
    @settings(max_examples=20, deadline=None)
    @given(
        request_streams(),
        st.sampled_from(list(SchedulingPolicy)),
        st.sampled_from(["off", "4/4x", "2/4x-50"]),
    )
    def test_all_serviced_and_audit_clean(self, stream, policy, mode_key):
        mode = {
            "off": MCRModeConfig.off(),
            "4/4x": MCRModeConfig(k=4, m=4, region_fraction=1.0),
            "2/4x-50": MCRModeConfig(k=4, m=2, region_fraction=0.5),
        }[mode_key]
        controller, hub = build_controller(mode, policy)
        reads_in = sum(1 for r in stream if not r["is_write"])
        served = drive(controller, stream)
        assert served == reads_in
        assert controller.outstanding() == 0
        assert hub.checker.commands > 0
        assert hub.clean, [str(v) for v in hub.violations[:5]]

    @settings(max_examples=10, deadline=None)
    @given(request_streams())
    def test_fcfs_completion_order_matches_arrival(self, stream):
        """Under FCFS, reads complete in arrival order."""
        controller, _ = build_controller(
            MCRModeConfig.off(), SchedulingPolicy.FCFS, refresh=False
        )
        order = []
        pending = sorted(stream, key=lambda r: r["arrival"])
        cycle = 0
        req_id = 0
        while pending or controller.outstanding():
            while pending and pending[0]["arrival"] <= cycle:
                spec = pending[0]
                if not controller.can_accept(spec["is_write"], cycle):
                    break
                pending.pop(0)
                req_id += 1
                controller.enqueue(
                    MemoryRequest(
                        req_id=req_id, core_id=0, is_write=spec["is_write"],
                        address=0, channel=0, rank=spec["rank"],
                        bank=spec["bank"], row=spec["row"],
                        column=spec["column"],
                    ),
                    cycle,
                )
            nxt = controller.next_action_cycle(cycle)
            floor = pending[0]["arrival"] if pending else None
            candidates = [c for c in (nxt, floor) if c is not None]
            if not candidates:
                break
            cycle = max(cycle, min(candidates))
            events = controller.execute(cycle)
            for request, _ in events.read_completions:
                order.append(request.req_id)
            if not events.issued:
                cycle += 1
            controller._collect(cycle)
            if cycle > 500_000:
                raise AssertionError("did not drain")
        # Reads and writes share one FCFS stream; among reads the ids
        # must be increasing.
        assert order == sorted(order)
