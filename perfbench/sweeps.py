"""``sweep-kernel`` and ``sweep-scalar``: figure sweeps through a harness
session, cold into a fresh store, then warm from fresh sessions.

The scale is ``small`` cut down to two single-core workloads (comm2 and
mummer, the paper's best cases) and all four quad-core mixes, with
shorter traces seeded by the workload seed, so that a pass takes a
second or two and several cold passes, the warm passes and the checks
fit the run budget. The seed also draws which workloads make up each
mix, and one mix's cost varies with its draw by a quarter; four short
mixes average that out. Each cold pass starts from a fresh store with the
program's in-process caches cleared; warm passes re-run the sweep from
fresh sessions over the cold passes' stores in turn.
"""

from __future__ import annotations

import dataclasses
import random
import time

from common import Outcome

#: Requests per single-core trace and per core of a quad-core mix, the
#: single-core workloads and the number of quad-core mixes (``small`` has
#: six workloads and four mixes).
N_REQUESTS_SINGLE = 1_000
N_REQUESTS_MULTI = 250
SINGLE_WORKLOADS = ("comm2", "mummer")
MULTICORE_MIXES = 4

#: Jobs of each cold pass re-run through ``repro.core.api.run_system``.
RECHECK_SAMPLE = 1

#: Warm re-runs per timed warm pass: one takes only tens of milliseconds,
#: too short to time steadily on its own.
WARM_REPEATS = 10

EXPERIMENTS = {
    "sweep-kernel": ("fig11", "fig14"),
    "sweep-scalar": ("fig12", "mechanisms"),
}

#: Where each sweep reads its modelled headline: (experiment, mode
#: column, ratio column, paper exec %, paper latency %, whether the paper
#: figure is a per-workload maximum rather than a mean). Fig. 12 gives
#: only maxima: 11.3% exec (mummer) and 14.0% latency (comm2).
HEADLINE = {
    "sweep-kernel": ("fig11", "4/4x", 1.0, 7.9, 12.5, False),
    "sweep-scalar": ("fig12", "4/4x/50%reg", 0.3, 11.3, 14.0, True),
}

#: (experiment, mode column, ratio column) rows whose mean reduction must
#: be positive: MCR beats the conventional baseline on average.
SHAPE_ROWS = {
    "fig11": ("4/4x", 1.0),
    "fig14": ("4/4x", 1.0),
    "fig12": ("4/4x/50%reg", 0.3),
    "mechanisms": ("MCR-DRAM", ""),
}


def _drivers():
    from repro.experiments import (
        fig11_fig14_ratio,
        fig12_fig15_profile,
        mechanism_comparison,
    )

    return {
        "fig11": fig11_fig14_ratio.run_fig11,
        "fig14": fig11_fig14_ratio.run_fig14,
        "fig12": fig12_fig15_profile.run_fig12,
        "mechanisms": mechanism_comparison.run_mechanism_comparison,
    }


def _scale(seed: int):
    from repro.experiments.scale import get_scale

    return dataclasses.replace(
        get_scale("small"),
        seed=seed,
        n_requests_single=N_REQUESTS_SINGLE,
        n_requests_multi_per_core=N_REQUESTS_MULTI,
        single_workloads=SINGLE_WORKLOADS,
        n_multicore_mixes=MULTICORE_MIXES,
    )


def _sweep(ctx, names, scale, store):
    """One pass as ``mcr-dram run`` does it: a fresh session, the planned
    graph prewarmed, then every driver assembling its table."""
    from repro.experiments import runner
    from repro.harness import HarnessConfig, configure
    from repro.harness.planner import plan

    session = configure(HarnessConfig(parallel=1, cache_dir=str(store)))
    runner.clear_caches()
    jobs = plan(names, scale)
    session.prewarm(jobs)
    drivers = _drivers()
    tables = {}
    for name in names:
        with ctx.span("experiments.assemble", "experiments"):
            tables[name] = drivers[name](scale=scale)
    return session, jobs, tables


def _avg_row(table, mode, ratio):
    for row in table.rows:
        if row[0] == "AVG" and row[1] == mode and row[2] == ratio:
            return row
    raise LookupError(f"{table.experiment_id}: no AVG row for {mode} @ {ratio}")


def run(ctx, cold_only: bool):
    from repro.batch import clear_caches, job_incompatibility
    from repro.core.api import run_system
    from repro.core.mcr_mode import MCRMode
    from repro.harness.store import serialize_result

    def same(a, b) -> bool:
        return serialize_result(a) == serialize_result(b)

    names = EXPERIMENTS[ctx.workload]
    out = Outcome()
    if not cold_only and ctx.tracer is None:
        ctx.setup_probe("sweep", out)

    with ctx.region():
        start = time.perf_counter()
        scale = _scale(ctx.seed)
        colds = []
        for index in range(ctx.cold_passes(cold_only)):
            clear_caches()
            colds.append(
                ctx.timed(
                    out.cold, _sweep, ctx, names, scale, ctx.tmp / f"store-{index}",
                    cpu=out.cold_cpu,
                )
            )
        if cold_only:
            return out
        repeats = 1 if ctx.tracer else WARM_REPEATS
        warm_telemetry = []

        def warm_pass(runs):
            for _ in range(repeats):
                index = (len(warm_telemetry) + len(runs)) % len(colds)
                store = colds[index][0].store.root
                runs.append((index, _sweep(ctx, names, scale, store)))

        while len(out.warm) < ctx.warm_passes() or (
            not ctx.tracer and time.perf_counter() - start < ctx.seconds
        ):
            runs = []
            ctx.timed(out.warm, warm_pass, runs)
            # Checked and dropped pass by pass, so that memory does not
            # grow with the number of passes.
            for index, (warm_session, warm_jobs, warm_tables) in runs:
                session, _, cold_tables = colds[index]
                out.check(
                    warm_session.telemetry.executed == 0,
                    f"warm pass executed {warm_session.telemetry.executed} jobs",
                )
                for job in warm_jobs:
                    out.check(
                        same(warm_session.memo[job.fingerprint], session.memo[job.fingerprint]),
                        f"warm result differs from cold: {job.label}",
                    )
                for name in names:
                    out.check(
                        warm_tables[name].to_text() == cold_tables[name].to_text(),
                        f"warm {name} table differs from cold",
                    )
                warm_telemetry.append(warm_session.telemetry)
        out.warm = [seconds / repeats for seconds in out.warm]

    first = colds[0][0].memo
    rng = random.Random(ctx.seed)
    for session, jobs, _ in colds:
        for job in jobs:
            out.check(
                same(session.memo[job.fingerprint], first[job.fingerprint]),
                f"cold passes disagree: {job.label}",
            )
        telemetry = session.telemetry
        out.check(
            telemetry.executed == len(jobs) == telemetry.planned,
            f"cold pass executed {telemetry.executed} of {len(jobs)} planned jobs",
        )
        out.check(len(session.store) == len(jobs), "store does not hold every cold job")
        for job in rng.sample(jobs, RECHECK_SAMPLE):
            reference = run_system(job.build_traces(), MCRMode(job.mode), spec=job.spec)
            out.check(
                same(reference, session.memo[job.fingerprint]),
                f"sweep result differs from run_system: {job.label}",
            )

    session, jobs, cold_tables = colds[0]
    cold = {job.fingerprint: session.memo[job.fingerprint] for job in jobs}
    cold_telemetry = session.telemetry
    store = session.store.root
    for name in names:
        mode, ratio = SHAPE_ROWS[name]
        row = _avg_row(cold_tables[name], mode, ratio)
        out.check(row[3] > 0, f"{name}: {mode} does not beat the baseline on average")

    experiment, mode, ratio, paper_exec, paper_lat, paper_best = HEADLINE[ctx.workload]
    table = cold_tables[experiment]
    exec_red, lat_red = _avg_row(table, mode, ratio)[3:5]
    ours_exec, ours_lat, what = exec_red, lat_red, "mean over workloads"
    if paper_best:
        rows = [r for r in table.rows if r[0] != "AVG" and r[1] == mode and r[2] == ratio]
        ours_exec = max(r[3] for r in rows)
        ours_lat = max(r[4] for r in rows)
        what = "best workload"
    out.notes += [
        f"mcr_exec_reduction_pct: {exec_red:.6g} % ({experiment} [{mode}]@{ratio}, "
        "mean over workloads)",
        f"mcr_read_latency_reduction_pct: {lat_red:.6g} %",
        f"  against the paper ({what}): exec {ours_exec:.2f}% vs {paper_exec}% "
        f"(gap {ours_exec - paper_exec:+.2f} pt), latency {ours_lat:.2f}% vs "
        f"{paper_lat}% (gap {ours_lat - paper_lat:+.2f} pt)",
    ]
    out.notes.append(
        "  The model is unvalidated against hardware, and synthetic MSC "
        "facsimiles replace the JWAC traces (DESIGN.md section 5), so a gap "
        "to the paper is expected."
    )
    results = list(cold.values())
    requests = sum(r.reads + r.writes for r in results)
    out.notes.append(f"sim_requests_per_s: {requests / (out.wall_s):.6g} req/s")

    fallbacks = [job_incompatibility(job) for job in jobs]
    reasons = {"allocation": 0, "clr": 0, "chargecache": 0}
    for reason in filter(None, fallbacks):
        key = "allocation" if reason.startswith("page-allocation") else reason.split("'")[1]
        reasons[key] += 1
    out.results = results
    out.layer.update({
        "mcr_exec_reduction_pct": exec_red,
        "mcr_read_latency_reduction_pct": lat_red,
        "sim_requests_per_s": requests / (out.wall_s),
        "harness.store_bytes": sum(
            p.stat().st_size for p in store.rglob("*.json")
        ),
        "harness.jobs_planned": cold_telemetry.planned,
        "harness.jobs_executed": cold_telemetry.executed,
        "harness.store_hits": sum(t.store_hits for t in warm_telemetry),
        "harness.memo_hits": cold_telemetry.memory_hits
        + sum(t.memory_hits for t in warm_telemetry),
        "harness.retried": cold_telemetry.retried,
        "harness.failures": cold_telemetry.failures,
        "mechanisms.plugin_jobs": sum(1 for j in jobs if j.spec.mechanism is not None),
        "mechanisms.scalar_fallbacks": sum(reasons.values()),
        **{f"mechanisms.scalar_fallbacks.{k}": v for k, v in reasons.items()},
    })
    return out
