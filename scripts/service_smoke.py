"""CI smoke test for the simulation service (90-second budget).

Exercises the real deployment path end to end, the way a tenant would:

1. start ``mcr-dram serve`` as a subprocess;
2. submit a small spec and stream its NDJSON progress events to the
   terminal event;
3. submit the identical spec again — it must be served as a cache hit
   (no second simulation);
4. submit a page-allocation spec (profile-based placement on an MCR
   mode) and assert the served result equals an in-process
   ``run_system`` of the same spec, byte for byte once serialized
   (less the descriptive span tree the service attaches);
5. ask for a graceful shutdown via SIGINT and assert a clean exit with
   the drain summary on stderr.

Exits non-zero on any violated expectation. Run from the repo root::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, "src")

from repro.core.api import SystemSpec, run_system  # noqa: E402
from repro.harness.store import serialize_result  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.workloads import make_trace  # noqa: E402

BUDGET_S = 90
SPEC = {"workload": "comm2", "n_requests": 120, "seed": 42}
ALLOCATION_SPEC = {**SPEC, "mode": "4/4x/50%reg", "allocation": 0.2}


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def in_process_result(spec: dict) -> dict:
    """``spec`` run by ``run_system`` in this process, serialized."""
    trace = make_trace(spec["workload"], n_requests=spec["n_requests"], seed=spec["seed"])
    result = run_system(
        [trace], spec["mode"], spec=SystemSpec(allocation=spec["allocation"])
    )
    return serialize_result(result)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_health(client: ServiceClient, deadline: float) -> dict:
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            return client.health()
        except OSError as exc:
            last = exc
            time.sleep(0.1)
    raise SystemExit(f"service never became healthy: {last}")


def main() -> int:
    started = time.monotonic()
    deadline = started + BUDGET_S
    port = free_port()
    cache_dir = tempfile.mkdtemp(prefix="service-smoke-")
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--port",
            str(port),
            "--backend",
            "thread",
            "--shards",
            "2",
            "--cache-dir",
            cache_dir,
        ],
        env={**os.environ, "PYTHONPATH": "src"},
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        client = ServiceClient("127.0.0.1", port, timeout=30)
        health = wait_for_health(client, deadline)
        print(f"server up: {health['shards']} {health['backend']} shards")

        # First submission executes; its event stream must run to the
        # terminal event and arrive in order.
        first = client.submit(SPEC)
        job_id = first["job_id"]
        kinds = []
        for event in client.events(job_id):
            kinds.append(event["event"])
            print(f"  event {event['seq']}: {event['event']}")
        assert kinds[0] == "queued", kinds
        assert kinds[-1] == "finished", kinds
        result = client.result(job_id)
        cycles = result["result"]["execution_cycles"]
        assert cycles > 0
        print(f"first run done: {cycles} cycles")

        # Second, identical submission must be a cache hit: terminal
        # immediately, no second simulation, no second store write.
        second = client.submit(SPEC)
        assert second["job_id"] == job_id, "same spec, same fingerprint"
        assert second["status"] == "done", second
        assert second["submissions"] == 2, second
        metrics = client.metrics()
        executed = metrics["harness.executed"]["series"][0]["value"]
        assert executed == 1, f"duplicate re-simulated: executed={executed}"
        cache = client.cache_stats()["cache"]
        assert cache["writes"] == 1, cache
        print(f"duplicate served from cache (writes={cache['writes']})")

        # Page allocation through the service: the served result must be
        # exactly what the library computes in process.
        submitted = client.submit(ALLOCATION_SPEC)
        kinds = [event["event"] for event in client.events(submitted["job_id"])]
        assert kinds[-1] == "finished", kinds
        served = client.result(submitted["job_id"])["result"]
        # The telemetry-plane span tree is host-time annotation, never a
        # measurement (RunResult.trace); everything else must match.
        assert served["trace"], "served result lacks its span tree"
        measured = canonical_json({**served, "trace": None})
        expected = in_process_result(ALLOCATION_SPEC)
        assert measured == canonical_json(expected), (
            "served page-allocation result differs from in-process run_system"
        )
        print(
            f"page-allocation spec matches in-process run "
            f"({served['execution_cycles']} cycles)"
        )

        # Graceful shutdown: SIGINT drains and exits cleanly.
        server.send_signal(signal.SIGINT)
        _, stderr = server.communicate(timeout=max(5, deadline - time.monotonic()))
        assert server.returncode == 0, f"exit {server.returncode}:\n{stderr}"
        assert "service drained" in stderr, stderr
        print(stderr.strip().splitlines()[-1])

        elapsed = time.monotonic() - started
        assert elapsed < BUDGET_S, f"smoke overran its budget: {elapsed:.1f}s"
        print(f"service smoke OK in {elapsed:.1f}s")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
