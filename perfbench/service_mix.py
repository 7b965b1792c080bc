"""``service-mix``: an open loop against ``mcr-dram serve`` over HTTP.

Independent users make an open loop: requests are due at seeded random
times over the offered window whatever the service does, and each is
timed from when it was due. Most requests repeat a small hot set of
specs (cache reads after the first); the rest are distinct cold specs,
half kernel-compatible and half page-allocation specs the scalar engine
runs. One client process drives the load with ``CLIENT_THREADS`` threads,
each holding at most one connection, and they also poll the batch query
for cold results.

A run is valid only if the generator kept its schedule and the service
kept up: a run whose sends fell more than ``MAX_LATE_MS`` behind, or
that ended the window with more than ``MAX_BACKLOG`` cold specs still
unanswered (a queue that grew), is discarded and measured again once,
with fresh servers; if that one is invalid too, the run fails.
"""

from __future__ import annotations

import random
import re
import statistics
import subprocess
import sys
import threading
import time

from common import ROOT, Outcome, tree_cpu_s

#: Offered load; with a 10 s window, 1000 hits and 200 cold specs, enough
#: for p99 of hits and p95 of cold specs with 10 samples beyond each.
HOT_RATE = 100.0
COLD_RATE = 20.0
HOT_WORKLOADS = ("comm2", "libq", "stream", "tigr")
HOT_REQUESTS = 500
COLD_WORKLOADS = ("comm2", "leslie", "libq", "stream", "mummer", "tigr")
COLD_REQUESTS = 150
CLIENT_THREADS = 2
SHARDS = 2

#: A request answered within this limit counts towards goodput.
LATENCY_LIMIT_S = 1.0
#: Validity of the load generator and of the service keeping up.
MAX_LATE_MS = 100.0
MAX_BACKLOG = 20
#: Cold specs still unanswered this long after the window count as failed.
DRAIN_LIMIT_S = 60.0
#: Batch-query polling period for cold results.
POLL_S = 0.02
#: Resubmission rounds over every distinct spec per timed warm pass (one
#: round takes about a tenth of a second), and timed warm passes: more
#: than for the sweeps, since the rounds share the host with the server.
WARM_ROUNDS = 3
WARM_PASSES = 10
#: Server starts per run; ``setup_s`` is their median, the last one serves.
SERVER_STARTS = 5


def hot_specs(seed: int) -> list[dict]:
    return [
        {"workload": name, "n_requests": HOT_REQUESTS, "seed": seed, "mode": "4/4x/100%reg"}
        for name in HOT_WORKLOADS
    ]


def cold_spec(seed: int, index: int) -> dict:
    spec = {
        "workload": COLD_WORKLOADS[index % len(COLD_WORKLOADS)],
        "n_requests": COLD_REQUESTS,
        "seed": seed * 100_003 + index + 1,
    }
    if index % 2:
        spec.update(mode="4/4x/50%reg", allocation=0.2)
    else:
        spec.update(mode="2/2x/100%reg")
    return spec


def schedule(seed: int, window: float) -> list[tuple[float, dict, bool]]:
    """(due offset, spec, is_cold) sorted by due time: a fixed number of
    arrivals at uniformly random times, i.e. a Poisson process given its
    count."""
    rng = random.Random(seed)
    hot = hot_specs(seed)
    n_hot = round(HOT_RATE * window)
    n_cold = round(COLD_RATE * window)
    items = [(rng.uniform(0, window), rng.choice(hot), False) for _ in range(n_hot)]
    items += [(rng.uniform(0, window), cold_spec(seed, i), True) for i in range(n_cold)]
    items.sort(key=lambda item: item[0])
    return items


class Server:
    """One ``mcr-dram serve`` process on a free port with a fresh cache."""

    def __init__(self, ctx, cache_dir) -> None:
        from repro.service.client import ServiceClient

        self.log = ctx.tmp / f"{cache_dir.name}.log"
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.cli", "serve", "--port", "0",
                 "--shards", str(SHARDS), "--cache-dir", str(cache_dir)],
                cwd=ROOT, env=ctx.env(), stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            host, port = self._address()
            self.client = ServiceClient(host, port, timeout=30)
            while True:
                try:
                    self.client.health()
                    break
                except OSError:
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise

    def _address(self) -> tuple[str, int]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = re.search(r"listening on http://([\d.]+):(\d+)", self.log.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"service did not start: {self.log.read_text()[-2000:]}")

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.client.shutdown()
            except (AttributeError, OSError):
                self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class LoadGenerator:
    """Send the schedule from ``CLIENT_THREADS`` threads; poll cold jobs."""

    def __init__(self, ctx, client, items, window: float) -> None:
        self.ctx = ctx
        self.client = client
        self.items = items
        self.window = window
        self.lock = threading.Lock()
        self.next_item = 0
        self.hit_latency: list[float] = []
        self.hit_rtt: list[float] = []
        #: Cold job id -> due time, while unanswered.
        self.cold_due: dict[str, float] = {}
        #: Cold job id -> (due time, time its result was seen done).
        self.cold_done: dict[str, tuple[float, float]] = {}
        self.errors: list[str] = []
        self.max_late = 0.0
        self.last_poll = 0.0
        self.polling = False

    def run(self) -> None:
        self.t0 = time.perf_counter() + 0.05
        self.window_end = self.t0 + self.window
        threads = [threading.Thread(target=self._worker, daemon=True) for _ in range(CLIENT_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _worker(self) -> None:
        with self.ctx.span("loadgen.client", "loadgen"):
            while True:
                with self.lock:
                    index = self.next_item
                    self.next_item += 1
                if index < len(self.items):
                    self._send(*self.items[index])
                else:
                    with self.lock:
                        if not self.cold_due:
                            return
                        if time.perf_counter() > self.window_end + DRAIN_LIMIT_S:
                            self.errors += [f"cold job {j[:12]} never done" for j in self.cold_due]
                            self.cold_due.clear()
                            return
                    self._poll(force=True)

    def _send(self, due_offset: float, spec: dict, cold: bool) -> None:
        due = self.t0 + due_offset
        while True:
            now = time.perf_counter()
            if now >= due:
                break
            if due - now > POLL_S and self._poll():
                continue
            time.sleep(min(due - now, POLL_S))
        with self.lock:
            self.max_late = max(self.max_late, time.perf_counter() - due)
        from repro.service.client import ServiceError

        sent = time.perf_counter()
        try:
            with self.ctx.span("service.submit", "service"):
                response = self.client.submit(spec)
        except (ServiceError, OSError) as exc:
            with self.lock:
                self.errors.append(f"submit {spec}: {exc}")
            return
        answered = time.perf_counter()
        with self.lock:
            if cold:
                self.cold_due[response["job_id"]] = due
            elif response["status"] == "done":
                self.hit_latency.append(answered - due)
                self.hit_rtt.append(answered - sent)
            else:
                self.errors.append(f"hot spec not served from cache: {response['status']}")

    def _poll(self, force: bool = False) -> bool:
        """Batch-query the pending cold jobs; True if this thread polled."""
        from repro.service.client import ServiceError

        with self.lock:
            now = time.perf_counter()
            if self.polling or not self.cold_due or (
                not force and now - self.last_poll < POLL_S
            ):
                polled = False
            else:
                self.polling = True
                self.last_poll = now
                pending = list(self.cold_due)[:256]
                polled = True
        if not polled:
            if force:
                time.sleep(POLL_S / 4)
            return False
        try:
            with self.ctx.span("service.poll", "service"):
                batch = self.client.results_batch(pending)
            seen = time.perf_counter()
            with self.lock:
                for job_id, entry in batch["jobs"].items():
                    if entry["status"] == "done":
                        self.cold_done[job_id] = (self.cold_due.pop(job_id), seen)
                    elif entry["status"] in ("failed", "cancelled", "unknown"):
                        self.cold_due.pop(job_id)
                        self.errors.append(f"cold job {job_id[:12]} {entry['status']}")
        except (ServiceError, OSError) as exc:
            with self.lock:
                self.errors.append(f"batch query: {exc}")
        finally:
            with self.lock:
                self.polling = False
        return True

    def backlog_end(self) -> int:
        """Cold specs due within the window and still unanswered at its end."""
        end = self.window_end
        return sum(
            1 for due, seen in self.cold_done.values() if due <= end < seen
        ) + len(self.cold_due)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _warm_pass(client, specs) -> list[str]:
    """Resubmit every distinct spec ``WARM_ROUNDS`` times from
    ``CLIENT_THREADS`` threads; every answer must be ``done`` at once,
    from a cache."""
    from repro.service.client import ServiceError

    problems: list[str] = []
    lock = threading.Lock()
    queue = list(specs) * WARM_ROUNDS

    def worker():
        while True:
            with lock:
                if not queue:
                    return
                spec = queue.pop()
            try:
                response = client.submit(spec)
            except (ServiceError, OSError) as exc:
                response = {"status": f"error {exc}"}
            if response["status"] != "done":
                with lock:
                    problems.append(f"warm resubmission not cached: {spec}")

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return problems


def _measure(ctx, server, items, out) -> LoadGenerator:
    """Prewarm the hot set, then offer the schedule; returns the generator."""
    for spec in hot_specs(ctx.seed):
        job_id = server.client.submit(spec)["job_id"]
        server.client.wait(job_id)
    load = LoadGenerator(ctx, server.client, items, ctx.seconds)
    start, start_cpu = time.perf_counter(), tree_cpu_s(server.process.pid)
    load.run()
    out.cold = [time.perf_counter() - start]
    out.cold_cpu = [tree_cpu_s(server.process.pid) - start_cpu]
    return load


def _valid(load) -> list[str]:
    problems = []
    if load.max_late * 1000 > MAX_LATE_MS:
        problems.append(f"generator ran {load.max_late * 1000:.1f} ms late")
    if load.backlog_end() > MAX_BACKLOG:
        problems.append(f"{load.backlog_end()} cold specs unanswered at window end")
    return problems


def _series(snapshot: dict, name: str) -> list[dict]:
    return snapshot.get(name, {}).get("series", [])


def _counter(snapshot: dict, name: str) -> float:
    return sum(s["value"] for s in _series(snapshot, name))


def _histogram(snapshot: dict, name: str, key: str) -> float:
    series = _series(snapshot, name)
    return series[0][key] if series else 0.0


def run(ctx, cold_only: bool):
    from repro.core.api import run_system
    from repro.core.mcr_mode import MCRMode
    from repro.harness.store import deserialize_result, serialize_result
    from repro.service.spec import parse_spec

    out = Outcome()
    items = schedule(ctx.seed, ctx.seconds)
    distinct = {parse_spec(spec).to_job().fingerprint: spec for _, spec, _ in items}
    # Two hot specs plus one cold spec of each kind (kernel, scalar).
    pair = random.Random(ctx.seed).randrange(round(COLD_RATE * ctx.seconds) // 2)
    picked = hot_specs(ctx.seed)[:2] + [
        cold_spec(ctx.seed, 2 * pair), cold_spec(ctx.seed, 2 * pair + 1)
    ]
    starts = 1 if cold_only or ctx.tracer else SERVER_STARTS
    # A traced run has one root span, so it gets no second attempt.
    for attempt in (1,) if ctx.tracer else (1, 2):
        servers = []
        out.warm, out.setup = [], []
        try:
            for index in range(starts):
                if servers:
                    servers[-1].stop()
                servers.append(
                    ctx.timed(out.setup, Server, ctx, ctx.tmp / f"cache-{attempt}-{index}")
                )
            server = servers[-1]
            with ctx.region():
                load = _measure(ctx, server, items, out)
                if cold_only:
                    return out
                warm_problems = []
                while len(out.warm) < ctx.warm_passes(WARM_PASSES):
                    warm_problems += ctx.timed(
                        out.warm, _warm_pass, server.client, distinct.values()
                    )
                out.warm = [seconds / WARM_ROUNDS for seconds in out.warm]
            snapshot = server.client.metrics()
            served = {}
            ids = list(distinct)
            for begin in range(0, len(ids), 256):
                served.update(server.client.results_batch(ids[begin:begin + 256])["jobs"])
        finally:
            for s in servers:
                s.stop()
        invalid = _valid(load)
        if not invalid:
            break
        print(f"service-mix: discarded attempt {attempt}: {'; '.join(invalid)}",
              file=sys.stderr)
    out.check(not invalid, f"load generator invalid: {'; '.join(invalid)}")

    n_hot = sum(1 for _, _, is_cold in items if not is_cold)
    n_cold = len(items) - n_hot
    cold_latency = [seen - due for due, seen in load.cold_done.values()]
    out.attempted += len(items) + len(distinct) * WARM_ROUNDS * len(out.warm)
    out.failures += load.errors + warm_problems
    out.check(len(load.hit_latency) == n_hot, f"{len(load.hit_latency)} of {n_hot} hits")
    out.check(len(cold_latency) == n_cold, f"{len(cold_latency)} of {n_cold} cold done")
    for job_id, entry in served.items():
        out.check(entry["status"] == "done", f"{distinct[job_id]} is {entry['status']}")
        if entry["status"] == "done":
            out.results.append(deserialize_result(entry["result"]))
    # Service results must equal the in-process reference engine.
    for spec in picked:
        job = parse_spec(spec).to_job()
        reference = serialize_result(
            run_system(job.build_traces(), MCRMode(job.mode), spec=job.spec)
        )
        entry = served[job.fingerprint]
        out.check(
            entry["status"] == "done"
            and dict(entry["result"], trace=None) == dict(reference, trace=None),
            f"service result differs from run_system: {spec}",
        )

    good = sum(1 for v in load.hit_latency if v <= LATENCY_LIMIT_S) + sum(
        1 for v in cold_latency if v <= LATENCY_LIMIT_S
    )
    hits = _counter(snapshot, "service.cache_hits")
    submissions = _counter(snapshot, "service.submissions")
    layer = {
        "cold_job_p50_s": statistics.median(cold_latency) if cold_latency else 0.0,
        "cold_job_p95_s": _percentile(cold_latency, 0.95) if cold_latency else 0.0,
        "hit_p50_ms": statistics.median(load.hit_latency) * 1e3 if load.hit_latency else 0.0,
        "hit_p99_ms": _percentile(load.hit_latency, 0.99) * 1e3 if load.hit_latency else 0.0,
        "goodput_jobs_s": good / ctx.seconds,
        "service.http_rtt_hit_ms": statistics.median(load.hit_rtt) * 1e3 if load.hit_rtt else 0.0,
        "service.queue_wait_p50_s": _histogram(snapshot, "service.queue_wait_seconds", "p50"),
        "service.queue_wait_p95_s": _histogram(snapshot, "service.queue_wait_seconds", "p95"),
        "service.job_p50_s": _histogram(snapshot, "service.job_seconds", "p50"),
        "service.cache_hit_ratio": hits / submissions if submissions else 0.0,
        "service.coalesced": _counter(snapshot, "service.coalesced"),
        "service.batch_chunks": _counter(snapshot, "service.batch_chunks"),
        "service.batched_lanes": _counter(snapshot, "service.batched_lanes"),
        "service.rejected": _counter(snapshot, "service.rejected"),
        "service.http_errors": _counter(snapshot, "service.http_errors"),
        "service.queue_depth_max": max(
            (s["max"] for s in _series(snapshot, "service.queue_depth")), default=0.0
        ),
        "loadgen.max_late_ms": load.max_late * 1e3,
        "loadgen.backlog_end": load.backlog_end(),
    }
    out.layer.update(layer)
    out.notes.append(
        f"service-mix: open loop, {HOT_RATE:g} hot + {COLD_RATE:g} cold req/s over "
        f"{ctx.seconds:g} s ({n_hot} hits, {n_cold} cold specs), {CLIENT_THREADS} "
        f"client threads, {SHARDS} process shards"
    )
    for name, unit in (
        ("cold_job_p50_s", "s"), ("cold_job_p95_s", "s"), ("hit_p50_ms", "ms"),
        ("hit_p99_ms", "ms"), ("goodput_jobs_s", "jobs/s"),
        ("loadgen.max_late_ms", "ms"), ("loadgen.backlog_end", "count"),
    ):
        out.notes.append(f"{name}: {layer[name]:.6g} {unit}")
    return out
