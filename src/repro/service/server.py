"""HTTP/JSON front-end for the simulation service (stdlib asyncio only).

A deliberately small HTTP/1.1 implementation on ``asyncio.start_server``
— no framework, no new dependencies — serving:

- ``POST /v1/jobs``            submit a spec; 202 queued/coalesced,
  200 served-from-cache, 400 malformed, 429 + ``Retry-After`` when the
  admission queue is full, 503 while draining.
- ``GET  /v1/jobs``            job counts + queue depth.
- ``GET  /v1/jobs/{id}``       job status.
- ``GET  /v1/jobs/{id}/result``the RunResult (409 until terminal).
- ``GET  /v1/jobs/{id}/events``NDJSON lifecycle stream: full replay
  from ``?since=SEQ`` then live follow; closes after a terminal event.
- ``GET  /metrics``            OpenMetrics/Prometheus exposition with
  trace-id exemplars (``?format=json`` for the raw snapshot,
  ``?format=text`` for the legacy human-readable dump).
- ``GET  /v1/cache``           artifact-cache stats.
- ``GET  /healthz``            liveness + summary.
- ``POST /v1/admin/shutdown``  begin graceful shutdown (also SIGINT/
  SIGTERM when signal handlers are installed).

Every response closes its connection (``Connection: close``); the event
stream is close-delimited NDJSON, so any HTTP/1.1 client — including
stdlib ``http.client`` — can follow it line by line.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro.harness.store import serialize_result
from repro.obs.metrics import format_metrics
from repro.obs.prometheus import OPENMETRICS_CONTENT_TYPE, render_openmetrics
from repro.service.service import Draining, QueueFull, ServiceConfig, SimulationService
from repro.service.spec import SpecError

#: Seconds a client gets to deliver the request head, and then its body.
_READ_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceServer:
    """Binds a :class:`SimulationService` to a listening socket."""

    def __init__(self, service: SimulationService) -> None:
        self.service = service
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> tuple[str, int]:
        """Start dispatchers and listen; return the bound (host, port)."""
        await self.service.start()
        config = self.service.config
        self._server = await asyncio.start_server(
            self._handle, config.host, config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    def request_shutdown(self) -> None:
        """Signal-safe trigger for a graceful drain."""
        self._shutdown.set()

    async def serve_forever(self, handle_signals: bool = True) -> dict:
        """Serve until a shutdown is requested, then drain and return a
        summary (in-flight jobs completed, queued jobs cancelled)."""
        if self._server is None:
            await self.start()
        if handle_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError, ValueError):
                    # Non-Unix loop, or a loop off the main thread (where
                    # signal handlers are unavailable): rely on the admin
                    # shutdown endpoint instead.
                    break
        await self._shutdown.wait()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        return await self.service.shutdown(drain=True)

    # ------------------------------------------------------------------
    # one connection

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_inner(reader, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            asyncio.TimeoutError,
        ):
            pass  # client went away mid-request; nothing to answer
        except Exception as exc:  # never let one request kill the server
            self.service.metrics.counter("service.http_errors").inc()
            try:
                await self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_inner(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=_READ_TIMEOUT_S
        )
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            await self._respond(writer, 400, {"error": "malformed request line"})
            return
        method, target, _version = parts
        headers = {}
        for line in header_lines:
            if ":" in line:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            await self._respond(
                writer, 400, {"error": f"invalid Content-Length: {raw_length!r}"}
            )
            return
        length = int(raw_length)
        if length > self.service.config.max_body_bytes:
            await self._respond(writer, 413, {"error": "request body too large"})
            return
        body = (
            await asyncio.wait_for(
                reader.readexactly(length), timeout=_READ_TIMEOUT_S
            )
            if length
            else b""
        )
        url = urlsplit(target)
        # Repeatable params (``?fp=a&fp=b``) keep their full value
        # lists; single-valued lookups collapse to the last value.
        query = parse_qs(url.query)
        await self._route(writer, method.upper(), url.path, query, body)

    # ------------------------------------------------------------------
    # routing

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict[str, list[str]],
        body: bytes,
    ) -> None:
        service = self.service
        service.metrics.counter("service.http_requests", path=_metric_path(path)).inc()
        single = {k: v[-1] for k, v in query.items()}

        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, service.describe())
            return
        if path == "/metrics" and method == "GET":
            snapshot = service.metrics_snapshot()
            fmt = single.get("format")
            if fmt == "json":
                await self._respond(writer, 200, snapshot)
            elif fmt == "text":
                # Legacy human-readable dump (pre-Prometheus format).
                await self._respond_text(writer, 200, format_metrics(snapshot) + "\n")
            else:
                await self._respond_text(
                    writer,
                    200,
                    render_openmetrics(snapshot, service.exemplars),
                    content_type=OPENMETRICS_CONTENT_TYPE,
                )
            return
        if path == "/v1/cache" and method == "GET":
            cache = service.cache
            await self._respond(
                writer, 200, {"cache": cache.stats() if cache is not None else None}
            )
            return
        if path == "/v1/admin/shutdown" and method == "POST":
            await self._respond(writer, 202, {"status": "draining"})
            self.request_shutdown()
            return
        if path == "/v1/jobs" and method == "POST":
            await self._submit(writer, body)
            return
        if path == "/v1/jobs" and method == "GET":
            fingerprints = query.get("fp", [])
            if fingerprints:
                await self._batch_results(writer, fingerprints)
                return
            await self._respond(
                writer,
                200,
                {
                    "jobs": service.registry.counts(),
                    "queue_depth": sum(q.qsize() for q in service._queues),
                },
            )
            return
        if path.startswith("/v1/jobs/"):
            await self._job_route(writer, method, path, single)
            return
        await self._respond(writer, 404, {"error": f"no such route: {method} {path}"})

    async def _submit(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        service = self.service
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._respond(writer, 400, {"error": f"invalid JSON body: {exc}"})
            return
        try:
            job = service.submit(payload)
        except SpecError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        except QueueFull as exc:
            await self._respond(
                writer,
                429,
                {
                    "error": str(exc),
                    "retry_after_s": service.config.retry_after_s,
                },
                extra_headers=(
                    ("Retry-After", f"{service.config.retry_after_s:g}"),
                ),
            )
            return
        except Draining as exc:
            await self._respond(writer, 503, {"error": str(exc)})
            return
        response = job.describe()
        response["events_url"] = f"/v1/jobs/{job.fingerprint}/events"
        response["result_url"] = f"/v1/jobs/{job.fingerprint}/result"
        trace_headers: tuple[tuple[str, str], ...] = ()
        if job.trace is not None:
            # The same ids the NDJSON stream and the stored RunResult
            # carry, so one grep joins the whole request lifecycle.
            trace_headers = (
                ("X-Trace-Id", job.trace.trace_id),
                ("Traceparent", job.trace.traceparent()),
            )
        await self._respond(
            writer,
            200 if job.status == "done" else 202,
            response,
            extra_headers=trace_headers,
        )

    #: Largest ``?fp=`` list one batch query may carry.
    MAX_BATCH_QUERY = 256

    async def _batch_results(
        self, writer: asyncio.StreamWriter, fingerprints: list[str]
    ) -> None:
        """``GET /v1/jobs?fp=a&fp=b&...``: every requested job's state —
        and its serialized result when terminal — in one response, so a
        sweep client polls N fingerprints with one round trip instead
        of N."""
        unique = list(dict.fromkeys(fingerprints))
        if len(unique) > self.MAX_BATCH_QUERY:
            await self._respond(
                writer,
                400,
                {
                    "error": f"too many fingerprints: {len(unique)} > "
                    f"{self.MAX_BATCH_QUERY} per batch query"
                },
            )
            return
        jobs = {fp: self.service.lookup(fp) for fp in unique}
        done = sum(1 for entry in jobs.values() if entry["status"] == "done")
        await self._respond(
            writer, 200, {"jobs": jobs, "requested": len(unique), "done": done}
        )

    async def _job_route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict[str, str],
    ) -> None:
        if method != "GET":
            await self._respond(writer, 405, {"error": "jobs are read-only"})
            return
        segments = path[len("/v1/jobs/") :].split("/")
        job = self.service.registry.get(segments[0])
        if job is None:
            await self._respond(writer, 404, {"error": f"unknown job {segments[0]!r}"})
            return
        tail = segments[1] if len(segments) > 1 else ""
        if tail == "":
            await self._respond(writer, 200, job.describe())
        elif tail == "result":
            if job.status == "done":
                await self._respond(
                    writer,
                    200,
                    {
                        "job_id": job.fingerprint,
                        "cached": job.cached,
                        "result": serialize_result(job.result),
                    },
                )
            elif job.status == "failed":
                await self._respond(
                    writer, 500, {"job_id": job.fingerprint, "error": job.error}
                )
            else:
                await self._respond(
                    writer,
                    409,
                    {"job_id": job.fingerprint, "status": job.status},
                )
        elif tail == "events":
            since = int(query.get("since", "0") or "0")
            await self._stream_events(writer, job, since)
        else:
            await self._respond(writer, 404, {"error": f"no such job view {tail!r}"})

    async def _stream_events(self, writer, job, since: int) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        async for event in job.events.follow(since):
            writer.write(json.dumps(event, separators=(",", ":")).encode() + b"\n")
            await writer.drain()

    # ------------------------------------------------------------------
    # response plumbing

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        await self._write_response(
            writer, status, body, "application/json", extra_headers
        )

    async def _respond_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        await self._write_response(writer, status, text.encode(), content_type, ())

    async def _write_response(
        self, writer, status, body: bytes, content_type: str, extra_headers
    ) -> None:
        reason = _REASONS.get(status, "OK")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{key}: {value}" for key, value in extra_headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


def _metric_path(path: str) -> str:
    """Collapse per-job paths so the label set stays closed."""
    if path.startswith("/v1/jobs/"):
        tail = path.rsplit("/", 1)[-1]
        view = tail if tail in ("events", "result") else "status"
        return f"/v1/jobs/:id/{view}" if view != "status" else "/v1/jobs/:id"
    return path


async def run_server(
    config: ServiceConfig,
    *,
    handle_signals: bool = True,
    on_listen: Callable[[str, int], None] | None = None,
) -> dict:
    """Convenience: build, bind, announce, serve until shutdown, drain."""
    service = SimulationService(config)
    server = ServiceServer(service)
    host, port = await server.start()
    if on_listen is not None:
        on_listen(host, port)
    return await server.serve_forever(handle_signals=handle_signals)
