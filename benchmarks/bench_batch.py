"""Bench: batched lockstep kernel vs scalar engine across trace lengths, gated.

``repro.batch`` exists for sweep throughput: many (config, seed) runs
stepped in one process over shared construction tables. Both engines
take the refresh spread schedule from the same memo in
:mod:`repro.dram.refresh`, so what this bench measures is the kernel's
own advantage: its flat per-lane stepper plus the timing domains and
address decodes its lanes share.

The sweep slice is 8 MCR mode configs on the verify fuzzer's 1-channel
geometry with random traces, at three trace lengths (``_SHAPES``):

    n_requests   seeds/mode   instances
    60           8            64
    600          2            16
    3000         1            8

Each shape runs through both engines in the same process, interleaved
A/B for ``_ROUNDS`` rounds, and its ratio is the median scalar CPU
seconds over the median kernel CPU seconds (single-threaded in-process
work, so CPU time is host time minus other tenants' share). Both
engines start construction-cold per sample (``clear_caches`` empties the
spread-schedule memo and the shared timing domains), so within a sample
each side builds each distinct slot mixture once.

Bit-identity is asserted lane by lane for every shape before any ratio
counts: every batched RunResult must equal its scalar run exactly.

Every shape's speedup is gated at ``_GATE``, set below the lowest of ten
measured runs at each shape on a 2-core x86-64 host. Writes
``BENCH_batch.json`` at the repo root via :mod:`_emit`, under the history
name ``batch_kernel_ab``.
"""

import json
import random
import statistics
import time

from _emit import emit_bench
from conftest import run_once

from repro.batch import BatchInstance, clear_caches, run_batch
from repro.core import MCRMode, SystemSpec, run_system
from repro.verify.generator import fuzz_geometry, random_trace
from tests.equivalence_harness import diff_results

#: n_requests -> trace seeds per mode.
_SHAPES = {60: 8, 600: 2, 3000: 1}
#: Minimum scalar/kernel CPU-time ratio at every shape.
_GATE = 1.8
_ROUNDS = 5
_MODES = (
    "off",
    "2/2x",
    "4/4x",
    "2/2x/50%reg",
    "4/4x/50%reg",
    "1/2x",
    "2/4x",
    "4/4x/25%reg",
)
_MAX_CYCLES = 3_000_000


def _sweep_slice(n_requests, seeds):
    """``len(_MODES) * seeds`` instances of ``n_requests``-long traces."""
    geometry = fuzz_geometry(channels=1)
    spec = SystemSpec(geometry=geometry)
    instances = []
    for label in _MODES:
        mode = MCRMode.parse(label)
        for seed in range(seeds):
            trace = random_trace(
                random.Random(seed), geometry, n_requests, name=f"s{seed}"
            )
            instances.append(
                BatchInstance(
                    traces=(trace,),
                    mode=mode.config,
                    spec=spec,
                    max_cycles=_MAX_CYCLES,
                )
            )
    return instances


def _run_scalar(instances):
    clear_caches()
    return [
        run_system(i.traces, MCRMode(i.mode), spec=i.spec, max_cycles=i.max_cycles)
        for i in instances
    ]


def _run_batched(instances):
    clear_caches()
    return run_batch(instances)


def _timed(fn, instances):
    """(CPU seconds, wall seconds) of one cold run of ``fn``."""
    cpu, wall = time.process_time(), time.perf_counter()
    fn(instances)
    return time.process_time() - cpu, time.perf_counter() - wall


def _measure_shape(n_requests, seeds):
    instances = _sweep_slice(n_requests, seeds)

    # Bit-identity first: every lane must equal its scalar run exactly
    # before the kernel's speed counts.
    mismatches = [
        report
        for lane, (got, want) in enumerate(
            zip(_run_batched(instances), _run_scalar(instances))
        )
        if (report := diff_results(got, want, f"n={n_requests} lane {lane}"))
        is not None
    ]
    assert mismatches == [], "\n".join(mismatches)

    scalar, batched = [], []
    for _ in range(_ROUNDS):
        scalar.append(_timed(_run_scalar, instances))
        batched.append(_timed(_run_batched, instances))
    scalar_s = statistics.median(cpu for cpu, _ in scalar)
    batch_s = statistics.median(cpu for cpu, _ in batched)
    return {
        "n_requests": n_requests,
        "instances": len(instances),
        "scalar_cpu_s": round(scalar_s, 4),
        "batch_cpu_s": round(batch_s, 4),
        "batch_wall_s": round(statistics.median(wall for _, wall in batched), 4),
        "speedup": round(scalar_s / batch_s, 3),
    }


def test_batch_kernel_speedup(benchmark):
    run_once(benchmark, _run_batched, _sweep_slice(60, _SHAPES[60]))
    shapes = [_measure_shape(n, seeds) for n, seeds in _SHAPES.items()]

    detail = {
        "modes": list(_MODES),
        "rounds": _ROUNDS,
        "gate_speedup": _GATE,
        "shapes": shapes,
        "min_speedup": min(shape["speedup"] for shape in shapes),
    }
    for shape in shapes:
        detail[f"speedup_n{shape['n_requests']}"] = shape["speedup"]
    report = emit_bench(
        "BENCH_batch.json",
        name="batch_kernel_ab",
        wall_s=sum(shape["batch_wall_s"] for shape in shapes),
        detail=detail,
    )
    print()
    print(json.dumps(report, indent=2))
    below = [
        f"n={s['n_requests']}: {s['speedup']}x" for s in shapes if s["speedup"] < _GATE
    ]
    assert below == [], (
        f"batched kernel below the {_GATE}x gate at {', '.join(below)} "
        f"— see BENCH_batch.json"
    )
