"""Which simulation instances the batched kernel may run.

The kernel supports heterogeneous lanes — any mix of K/M modes,
geometries, mappings, scheduling policies, core parameters, wiring and
refresh settings batches together — and metrics-only observability is
mirrored per lane (see :class:`repro.batch.lane._MetricsMirror`). Two
scalar-engine features stay scalar-only, and the harness silently falls
back for them:

- **deep observability** (profiling, tracing, invariants, command
  sinks): those hub hooks need the scalar controller's per-command
  object graph; batchable runs produce ``profile=None`` exactly like an
  unobserved scalar run, so RunResult equality is still field-complete;
- **page-allocation policies** (``spec.allocation``): the scalar engine
  derives a per-run row remapper from the traces; batching those would
  per-lane-ify the shared decode tables for no aggregate win.

Latency-mechanism plugins (``spec.mechanism``) declare their own batch
compatibility: the reference MCR plugin batches freely (the kernel's
lanes *are* the MCR device), while plugins that override timing tables
or install controller hooks (CLR-DRAM, ChargeCache) carry an explicit
scalar-fallback reason surfaced through this predicate.

``incompatibility`` returns a human-readable reason (or None when the
instance is batchable); the harness surfaces the predicate as its
grouping rule (see docs/SIMULATOR.md "Batched execution").
"""

from __future__ import annotations

from repro.core.api import SystemSpec


def _metrics_only(observability) -> bool:
    """Is this config satisfiable by the batch kernel's metric mirrors?"""
    return bool(getattr(observability, "metrics", False)) and not (
        getattr(observability, "trace", False)
        or getattr(observability, "invariants", False)
        or getattr(observability, "profile", False)
        or getattr(observability, "command_sink", None) is not None
    )


def incompatibility(spec: SystemSpec, observability=None) -> str | None:
    """Why this instance cannot run on the batched kernel (None = it can)."""
    if (
        observability is not None
        and getattr(observability, "enabled", True)
        and not _metrics_only(observability)
    ):
        return (
            "observability beyond metrics (tracing, invariants, profiling, "
            "command sinks) requires the scalar engine's hub hooks"
        )
    if spec.allocation is not None:
        return "page-allocation policies require the scalar engine's row remapper"
    if spec.mechanism is not None:
        from repro.mechanisms.registry import batch_incompatibility

        reason = batch_incompatibility(spec.mechanism)
        if reason is not None:
            return f"mechanism {spec.mechanism.name!r}: {reason}"
    return None


def is_batchable(spec: SystemSpec, observability=None) -> bool:
    return incompatibility(spec, observability) is None


def job_incompatibility(job) -> str | None:
    """Compat reason for a harness :class:`~repro.harness.jobs.SimJob`."""
    return incompatibility(job.spec)


def group_key(spec: SystemSpec) -> tuple:
    """Chunk-packing key for the planner and the service coalescer.

    Lanes sharing a key share the kernel's most expensive construction
    tables: the address-decode memo is keyed by ``(geometry, mapping)``
    inside :class:`~repro.batch.kernel.BatchKernel`, and the timing
    domains hash off the geometry. Grouping is a packing heuristic,
    never a correctness rule — the kernel accepts fully heterogeneous
    lanes; :func:`incompatibility` alone decides what may batch at all.
    """
    return (spec.geometry, spec.mapping)
