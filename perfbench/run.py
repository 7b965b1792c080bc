#!/usr/bin/env python3
"""Outside-in benchmark of the MCR-DRAM reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-kernel --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

- ``sweep-kernel``: cold ``fig11`` + ``fig14`` sweep through a harness
  session into a fresh on-disk store, then warm re-runs from fresh
  sessions over that store. Every job is batch-compatible.
- ``sweep-scalar``: the same for ``fig12`` + ``mechanisms``, whose
  page-allocation and plugin jobs run on the scalar engine.
- ``service-mix``: an open loop against ``mcr-dram serve`` (process
  backend, 2 shards, fresh artifact cache): a hot set of repeated specs
  plus distinct cold specs, kernel-compatible and scalar.
- ``verify-fuzz``: ``python -m repro.verify``'s entry point with the
  workload seed and a fixed iteration count.

Every workload reports every end-to-end metric (``--trace 0``):

- ``setup_s``: median over fresh processes of start-to-ready (imports
  plus a configured session; for the service, ``/healthz`` answering).
- ``cpu_s``: CPU seconds the program spends on a cold pass, the
  median over the passes. Sweeps: plan to tables assembled, into a fresh
  store with the program's in-process caches cleared. Verify: the whole
  run, caches cleared. Both run single-threaded in this process
  (``parallel=1``), so on an idle host this equals their wall time.
  Service (one pass, an open loop): the CPU seconds of the server and its
  worker processes from the first scheduled send until every cold spec's
  result is confirmed, i.e. what serving the offered window costs.
- ``peak_rss_mb``: peak resident memory of this process plus the largest
  peak among its children.

``wall_s`` is the host time of the same cold pass (the fastest pass;
for the service, the offered window plus the drain) and ``warm_wall_s``
the host time of the same work again over the caches the cold passes
filled. Sweeps: one re-run from a fresh session over a cold pass's store.
Service: one round of resubmitting every distinct spec (all cache hits).
Verify: the seeded run again in the same process. Both are printed by
name on every run and reported as per-layer metrics, not end-to-end
ones: on a shared host their spread from run to run is too wide for a
bound. Other tenants take the host's cores for tens of seconds at a time
and slow wall time up to 2x; CPU time counts only the time the program
ran, so it moves far less.

``--seconds`` is the service's offered window; the other workloads keep
adding warm passes until that long after their first cold pass began.

Passes of one kind repeat identical work, and each timed pass starts
from a collected heap. Other tenants of a shared host only ever add time,
so ``wall_s`` and ``warm_wall_s`` are the fastest pass, the one their
bursts of load missed; ``setup_s`` and ``cpu_s`` are medians. Every
pass is printed above the result line. Every benchmark process runs with
``PYTHONHASHSEED=0`` (see ``HASH_SEED``).

The workload-specific figures (modelled MCR reductions beside the
paper's, simulated requests per host second, service latencies and
goodput, verify cases per second, error rate) are printed by name above
the result line and are reported as per-layer metrics: the result line
carries exactly the metrics every workload shares, and none of them may
read 0.

``--trace 1`` first times one untraced cold pass in a child process,
then runs one cold pass and one warm pass with spans around the public
entry points of each module, writes the spans as Chrome trace-event
JSON plus a self-time table under ``.perfbench-out/``, checks that the
self times add up, and reports the per-layer metrics. Metrics of layers
a workload does not reach read 0.

All state lives in a fresh directory under ``.perfbench-tmp/`` that is
removed at exit; the checkout's ``.repro-cache/`` is never used. The
process exits 1 when an output check fails and 2 when the checkout does
not hold the program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import uuid
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, Context, Outcome, preload  # noqa: E402
from spans import Tracer  # noqa: E402

#: The program's host speed depends on the interpreter's string-hash
#: layout by up to a fifth (dict probing of enum-keyed tables), which
#: would otherwise dominate run-to-run spread; every benchmark process
#: runs with the same layout.
HASH_SEED = "0"

WORKLOADS = ("sweep-kernel", "sweep-scalar", "service-mix", "verify-fuzz")


def instrument(tracer: Tracer, engine_results: list) -> None:
    """Span the public entry points of every module a workload reaches."""
    from repro.batch.kernel import BatchKernel
    from repro.core import allocation
    from repro.dram.refresh import RefreshPlan
    from repro.dram.timing import TimingDomain
    from repro.harness import planner
    from repro.harness.session import HarnessSession
    from repro.harness.store import ResultStore
    from repro.power.micron import PowerModel
    from repro.sim.engine import SystemSimulator
    from repro.verify import batched, cli as verify_cli
    from repro.workloads import generator

    def lanes(args, _):
        tracer.calls["batch.lanes"] += len(args[0].lanes)

    wraps = [
        (planner, "plan", "harness"),
        (HarnessSession, "prewarm", "harness"),
        (HarnessSession, "run", "harness"),
        (ResultStore, "get", "harness"),
        (ResultStore, "put", "harness"),
        (BatchKernel, "__init__", "batch", lanes),
        (BatchKernel, "run", "batch", lambda a, r: engine_results.extend(r)),
        (SystemSimulator, "__init__", "sim"),
        (SystemSimulator, "run", "sim", lambda a, r: engine_results.append(r)),
        (allocation.ProfileAllocator, "__init__", "core"),
        (allocation.CollisionFreeAllocator, "__init__", "core"),
        (allocation.CombinedProfileAllocator, "__init__", "core"),
        (RefreshPlan, "__init__", "dram"),
        (TimingDomain, "__init__", "dram"),
        (PowerModel, "energy", "power"),
        (generator, "trace_from_provenance", "workloads"),
        (verify_cli, "run_self_check", "verify"),
        (verify_cli, "run_identities", "verify"),
        (verify_cli, "run_fuzz_iteration", "verify"),
        (batched, "run_batched_round", "verify"),
    ]
    for owner, attr, layer, *hook in wraps:
        label = f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attr}"
        tracer.wrap(owner, attr, label, layer, hook[0] if hook else None)


def engine_metrics(tracer: Tracer, engine_results: list) -> dict[str, float]:
    """Per-layer host time and work counts from the spans."""
    t = tracer
    lanes = t.calls["batch.lanes"]
    runs = t.calls["SystemSimulator.run"]
    engine_s = sum(
        t.self_time(name)
        for name in (
            "BatchKernel.__init__", "BatchKernel.run", "SystemSimulator.__init__",
            "SystemSimulator.run", "RefreshPlan.__init__", "TimingDomain.__init__",
            "PowerModel.energy",
        )
    )
    requests = sum(r.reads + r.writes for r in engine_results)
    return {
        "batch.kernel_s": t.self_time("BatchKernel.run"),
        "batch.construct_s": t.self_time("BatchKernel.__init__"),
        "batch.chunks": t.calls["BatchKernel.__init__"],
        "batch.lanes": lanes,
        "batch.lane_share": lanes / (lanes + runs) if lanes + runs else 0.0,
        "sim.construct_s": t.self_time("SystemSimulator.__init__"),
        "sim.run_s": t.self_time("SystemSimulator.run"),
        "sim.runs": runs,
        "sim.host_us_per_request": engine_s * 1e6 / requests if requests else 0.0,
        "core.allocation_s": sum(
            t.self_time(f"{name}.__init__")
            for name in ("ProfileAllocator", "CollisionFreeAllocator", "CombinedProfileAllocator")
        ),
        "dram.refresh_plan_s": t.self_time("RefreshPlan.__init__"),
        "dram.refresh_plans_built": t.calls["RefreshPlan.__init__"],
        "dram.timing_domain_s": t.self_time("TimingDomain.__init__"),
        "workloads.trace_build_s": t.self_time("generator.trace_from_provenance"),
        "workloads.traces_built": t.calls["generator.trace_from_provenance"],
        "harness.plan_s": t.self_time("planner.plan"),
        "harness.store_put_s": t.self_time("ResultStore.put"),
        "harness.store_get_s": t.self_time("ResultStore.get"),
        "experiments.assemble_s": t.self_time("experiments.assemble"),
        "power.energy_s": t.self_time("PowerModel.energy"),
        "verify.self_check_s": t.total_time("cli.run_self_check"),
        "verify.identities_s": t.total_time("cli.run_identities"),
        "verify.fuzz_s": t.total_time("cli.run_fuzz_iteration")
        + t.total_time("batched.run_batched_round"),
    }


def controller_metrics(results: list) -> dict[str, float]:
    """Exact modelled statistics summed over the cold pass's results."""
    stats = [s for r in results for s in r.controller_stats]
    activates = sum(
        v for s in stats for k, v in s.items() if k.startswith("activates_")
    )
    hits = sum(s["row_hits"] for s in stats)
    p99 = [r.read_latency_percentiles[2] for r in results]
    return {
        "controller.row_hit_rate": hits / (hits + activates) if hits + activates else 0.0,
        "controller.activates": activates,
        "controller.refreshes_issued": sum(
            s["refresh"][k]
            for s in stats
            for k in ("issued_fast", "issued_fast_alt", "issued_normal")
        ),
        "controller.refreshes_skipped": sum(s["refresh"]["skipped"] for s in stats),
        "controller.data_bus_busy_cycles": sum(s["data_bus_busy_cycles"] for s in stats),
        "sim.exec_cycles": sum(r.execution_cycles for r in results),
        "sim.read_latency_p99_cycles": statistics.fmean(p99) if p99 else 0.0,
        "mechanisms.charged_activates": sum(s.get("activates_charged", 0) for s in stats),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(ctx: Context, cold_only: bool) -> Outcome:
    if ctx.workload in ("sweep-kernel", "sweep-scalar"):
        import sweeps as workload

        preload("sweep")
    elif ctx.workload == "service-mix":
        import service_mix as workload

        preload("service")
    else:
        import verify_fuzz as workload

        preload("verify")
    return workload.run(ctx, cold_only)


def untraced_cold_wall(args) -> float:
    """Cold-pass wall of an untraced child run with the same inputs."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--cold-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if out.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["wall_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cold-only", action="store_true",
        help="time only the untraced cold pass (the traced run's reference)",
    )
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Restart with string hashing fixed (see HASH_SEED); the process
        # is replaced, so nothing is left to wait for.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads(spec_path.read_text())

    # A terminated run still stops the servers it started and removes its
    # state: SIGTERM unwinds through the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = ROOT / ".perfbench-tmp" / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    tmp.mkdir(parents=True)
    try:
        return _run(args, declared, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, declared: dict, tmp: Path) -> int:
    ctx = Context(args.workload, args.seed, args.seconds, tmp)
    if args.cold_only:
        outcome = run_workload(ctx, cold_only=True)
        print(json.dumps({"wall_s": outcome.wall_s}))
        return 0

    if args.trace:
        reference_wall = untraced_cold_wall(args)
        ctx.tracer = Tracer(args.workload)
        engine_results: list = []
        instrument(ctx.tracer, engine_results)
        try:
            outcome = run_workload(ctx, cold_only=False)
        finally:
            ctx.tracer.restore()
    else:
        outcome = run_workload(ctx, cold_only=False)

    error_rate = len(outcome.failures) / max(outcome.attempted, 1)
    for line in outcome.notes:
        print(line)
    for failure in outcome.failures[:20]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    if args.trace:
        tracer = ctx.tracer
        [main_root] = [s for s in tracer.roots() if s.name == "run"]
        problems = tracer.conservation(main_root, ctx.traced_wall)
        for problem in problems:
            print(f"CHECK FAILED: trace conservation: {problem}", file=sys.stderr)
        out_dir = ROOT / ".perfbench-out"
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write_chrome_trace(out_dir / f"{stem}.trace.json")
        table = tracer.format_table()
        (out_dir / f"{stem}.layers.txt").write_text(table + "\n")
        print(table)
        print(f"spans: {out_dir / (stem + '.trace.json')} (Chrome trace-event JSON)")
        values = engine_metrics(tracer, engine_results)
        values.update(controller_metrics(outcome.results or engine_results))
        values["trace.overhead_pct"] = (
            (outcome.wall_s - reference_wall) / reference_wall * 100.0
        )
        values["error_rate"] = error_rate
        values["wall_s"] = outcome.wall_s
        values["warm_wall_s"] = outcome.warm_wall_s
        values.update(outcome.layer)
        wanted = declared["per_layer"]
        correct = not outcome.failures and not problems
    else:
        values = {
            "setup_s": statistics.median(outcome.setup),
            "cpu_s": outcome.cpu_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        wanted = declared["end_to_end"]
        correct = not outcome.failures
        for label, passes in (
            ("setup", outcome.setup), ("cold", outcome.cold), ("cold CPU", outcome.cold_cpu),
            ("warm", outcome.warm),
        ):
            print(f"{label} passes, s: " + " ".join(f"{v:.4f}" for v in passes))
        print(f"wall_s: {outcome.wall_s:.6g} s")
        print(f"warm_wall_s: {outcome.warm_wall_s:.6g} s")
        print(f"error_rate: {error_rate:.6g} fraction "
              f"({len(outcome.failures)} of {outcome.attempted} checks failed)")

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        # A layer the workload does not reach reads 0 (no work, no time).
        value = values.get(name, 0.0) if args.trace else values[name]
        metrics[name] = {"value": value, "unit": entry["unit"]}
        if not args.trace:
            print(f"{name}: {value:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
