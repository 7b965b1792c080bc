"""Shared construction tables for the batched kernel.

A batch of lanes shares one :class:`~repro.dram.timing.TimingDomain`
per distinct ``(geometry, mode, wiring)`` instead of building one per
run. The refresh spread schedule is shared by both engines through
:func:`repro.dram.refresh.spread_schedule`'s memo, and the kernel keeps
an address-decode memo per distinct ``(geometry, mapping)`` within one
invocation.
"""

from __future__ import annotations

from repro.core.mcr_mode import MCRMode
from repro.dram.config import DRAMGeometry
from repro.dram.mcr import MCRModeConfig
from repro.dram.refresh import WiringMethod, spread_schedule
from repro.dram.timing import TimingDomain

_DOMAIN_CACHE: dict[tuple, TimingDomain] = {}


def clear_caches() -> None:
    """Drop the shared construction caches (cold-start benchmarks)."""
    spread_schedule.cache_clear()
    _DOMAIN_CACHE.clear()


def as_mode_config(mode: MCRMode | MCRModeConfig) -> MCRModeConfig:
    return mode.config if isinstance(mode, MCRMode) else mode


def shared_domain(
    geometry: DRAMGeometry, mode: MCRModeConfig, wiring: WiringMethod
) -> TimingDomain:
    """One TimingDomain per distinct (geometry, mode, wiring).

    TimingDomain construction is deterministic and the object is
    read-only after construction, so lanes can share instances (the
    scalar engine builds an identical one per run).
    """
    key = (geometry, mode, wiring)
    domain = _DOMAIN_CACHE.get(key)
    if domain is None:
        domain = TimingDomain(geometry, mode, wiring=wiring)
        _DOMAIN_CACHE[key] = domain
    return domain
