"""Bench: batch-by-default planner+executor sweep vs the scalar path, gated.

``bench_batch.py`` times the kernel in isolation; this one times what
users actually run — a paper-figure sweep slice through the full
harness stack: ``planner.plan`` enumerates the jobs, ``plan_units``
partitions them into kernel chunks, and ``execute_jobs`` runs them,
exactly as ``mcr-dram run`` does. The slice is the fig11
read-latency-ratio sweep (baseline + K∈{2,4} × ratio∈{0.25,0.5,1.0})
over six single-core workloads at 120 requests: 42 deduplicated jobs,
every one batch-compatible (plain specs, no allocation policy), landing
in one kernel chunk.

Bit-identity is asserted job by job before any timing counts: the
batch-default sweep's RunResults must equal the scalar-default sweep's
exactly — same fingerprints, same values in every compared field.

Both paths start construction-cold per sample (the trace memo, the
spread-schedule memo and the shared timing domains are cleared), and
both take refresh spread schedules from the same memo, so the ratio is
the kernel's end-to-end sweep advantage. Samples alternate between the
two paths for ``_ROUNDS`` rounds; the ratio is median scalar CPU seconds
over median batched CPU seconds (the harness runs in-process at
``parallel=1``).

Gate: ``_GATE``, set below the lowest of ten measured runs on a 2-core
x86-64 host. Writes ``BENCH_sweep.json`` at the repo root via
:mod:`_emit`, under the history name ``sweep_batch_ab``.
"""

import json
import statistics
import time

from _emit import emit_bench
from conftest import run_once

from repro.batch import clear_caches
from repro.experiments.scale import ScaleConfig
from repro.harness import HarnessConfig, clear_trace_memo, execute_jobs
from repro.harness.planner import plan, plan_units
from tests.equivalence_harness import diff_results

_GATE = 1.6
_ROUNDS = 5
_SCALE = ScaleConfig(
    name="bench-sweep",
    n_requests_single=120,
    n_requests_multi_per_core=120,  # unused: the fig11 slice is single-core
    single_workloads=("comm2", "leslie", "libq", "stream", "mummer", "tigr"),
    n_multicore_mixes=1,
)


def test_sweep_batch_speedup(benchmark):
    jobs = plan(["fig11"], _SCALE)
    units = plan_units(jobs)
    chunk_lanes = sum(len(u.jobs) for u in units if u.kind == "chunk")
    assert chunk_lanes == len(jobs), "fig11 slice must be fully batchable"

    def run_sweep(batch: bool):
        clear_trace_memo()
        clear_caches()
        return execute_jobs(jobs, HarnessConfig(batch=batch), memo={})

    def timed(batch: bool) -> tuple[float, float]:
        """(CPU seconds, wall seconds) of one cold sweep."""
        cpu, wall = time.process_time(), time.perf_counter()
        run_sweep(batch)
        return time.process_time() - cpu, time.perf_counter() - wall

    # Bit-identity first: the batch-default sweep must reproduce the
    # scalar-default sweep exactly before its speed counts.
    scalar_results = run_sweep(batch=False)
    batched_results = run_sweep(batch=True)
    assert list(scalar_results) == list(batched_results)  # same job order
    mismatches = [
        report
        for fingerprint in scalar_results
        if (
            report := diff_results(
                batched_results[fingerprint],
                scalar_results[fingerprint],
                f"job {fingerprint[:12]}",
            )
        )
        is not None
    ]
    assert mismatches == [], "\n".join(mismatches)

    run_once(benchmark, run_sweep, batch=True)
    scalar, batched = [], []
    for _ in range(_ROUNDS):
        scalar.append(timed(batch=False))
        batched.append(timed(batch=True))
    scalar_s = statistics.median(cpu for cpu, _ in scalar)
    batch_s = statistics.median(cpu for cpu, _ in batched)
    speedup = scalar_s / batch_s

    report = emit_bench(
        "BENCH_sweep.json",
        name="sweep_batch_ab",
        wall_s=statistics.median(wall for _, wall in batched),
        detail={
            "experiment": "fig11",
            "jobs": len(jobs),
            "work_units": len(units),
            "chunk_lanes": chunk_lanes,
            "workloads": list(_SCALE.single_workloads),
            "n_requests": _SCALE.n_requests_single,
            "rounds": _ROUNDS,
            "gate_speedup": _GATE,
            "scalar_cpu_s": round(scalar_s, 4),
            "batch_cpu_s": round(batch_s, 4),
            "speedup": round(speedup, 3),
        },
    )
    print()
    print(json.dumps(report, indent=2))
    assert speedup >= _GATE, (
        f"sweep-level batch speedup {speedup:.2f}x below the {_GATE}x gate "
        f"on the fig11 slice — see BENCH_sweep.json"
    )
