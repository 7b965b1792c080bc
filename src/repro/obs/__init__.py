"""Observability: tracing, metrics, online checking, profiling, attribution.

The subsystem is strictly descriptive — nothing here may influence
simulation results. Entry points:

- :func:`observe_run` — run a simulation with observability attached;
- :class:`ObservabilityConfig` — what to collect (pass to
  :class:`~repro.sim.engine.SystemSimulator` or
  :func:`~repro.core.api.run_system`);
- :class:`RequestProfiler` / :func:`attribute_mechanisms` — per-request
  latency decomposition and Fig.-17-style mechanism attribution;
- :func:`to_perfetto` / :func:`diff_runs` — trace export and run diff;
- :mod:`repro.obs.plane` — trace-context propagation (service → harness
  → engine) and :func:`render_openmetrics` Prometheus exposition;
- ``python -m repro.obs.history check`` — perf-history trend gate.

Online timing checks and gate labels come from the protocol oracle
(:mod:`repro.verify.oracle`), which the hub loads only when a run
traces or checks invariants.
"""

from repro.obs.attribution import (
    MECHANISMS,
    attribute_mechanisms,
    format_attribution,
)
from repro.obs.diff import diff_files, diff_runs, format_diff
from repro.obs.export import (
    run_artifact,
    to_perfetto,
    write_perfetto,
    write_run_artifact,
)
from repro.obs.hub import (
    ChannelObserver,
    ObservabilityConfig,
    ObservabilityHub,
    observe_run,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics,
)
from repro.obs.plane import (
    TraceContext,
    new_trace,
    parse_traceparent,
    stamp_result,
)
from repro.obs.prometheus import (
    OPENMETRICS_CONTENT_TYPE,
    ExemplarStore,
    parse_exposition,
    render_openmetrics,
)
from repro.obs.profiler import (
    COMPONENTS,
    RequestProfile,
    RequestProfiler,
    format_profile,
)
from repro.obs.tracer import (
    ROW_CLASS_LABELS,
    TRACE_SCHEMA_VERSION,
    CommandTracer,
    TraceEvent,
)

__all__ = [
    "COMPONENTS",
    "ChannelObserver",
    "CommandTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "ExemplarStore",
    "MECHANISMS",
    "MetricsRegistry",
    "OPENMETRICS_CONTENT_TYPE",
    "ObservabilityConfig",
    "ObservabilityHub",
    "ROW_CLASS_LABELS",
    "TraceContext",
    "RequestProfile",
    "RequestProfiler",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "attribute_mechanisms",
    "diff_files",
    "diff_runs",
    "format_attribution",
    "format_diff",
    "format_metrics",
    "format_profile",
    "new_trace",
    "observe_run",
    "parse_exposition",
    "parse_traceparent",
    "render_openmetrics",
    "run_artifact",
    "stamp_result",
    "to_perfetto",
    "write_perfetto",
    "write_run_artifact",
]
