"""The asyncio characterization server (``repro serve``).

Zero dependencies: a hand-rolled HTTP/1.1 layer over
``asyncio.start_server`` — request line + headers + Content-Length body
in, either a plain JSON response or a chunked JSONL event stream out.
Endpoints:

* ``POST /v1/characterize`` (alias ``/v1/monitor``) — submit one
  request (:mod:`repro.serve.protocol`); the response streams
  ``accepted`` → ``status`` → ``result``/``error`` → ``done`` events as
  chunked JSONL, so a client watches its request move through the
  coalescer and the pool live;
* ``GET /healthz`` — liveness JSON (state, uptime, queue depth);
* ``GET /stats`` — the server's counters (requests, cache fast-path
  hits, dispatches, rejections) as JSON — the loadgen's ground truth
  for "zero worker dispatches on a warm cache";
* ``GET /metrics`` — the process :mod:`repro.obs` registry in
  Prometheus text format (serve metrics included).

Admission happens *before* a request touches the pipeline: a draining
server answers 503, an empty token bucket 429 (with ``Retry-After``),
a full admission queue 503 — explicit backpressure instead of an
unbounded queue.  ``serve_until_shutdown`` installs SIGTERM/SIGINT
handlers that trigger a graceful drain: stop accepting, flush every
queued and in-flight job, finish every open response stream, then
return — a request accepted before the signal always gets its result.

Binding port 0 is first-class: the OS assigns an ephemeral port, the
real bound address is printed (and optionally written to
``--port-file``) before any request is accepted, so tests and CI never
race on fixed ports.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import tempfile
import time

from ..core import calibrated_supply
from ..obs import trace as obs
from ..pipeline import BatchOptions, submit
from ..pipeline.cache import ResultCache
from ..pipeline.executor import execute_job
from ..pipeline.stages import get_stage, stage_cache_keys
from .coalescer import BatchCoalescer
from .protocol import (
    PROTOCOL_VERSION,
    AdmissionError,
    DrainingError,
    RequestError,
    build_spec,
    encode_event,
    parse_request,
)
from .quota import QuotaRegistry

__all__ = ["ServeConfig", "ServeServer"]

#: Hard cap on request bodies (inline traces included).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Per-connection header/body read budget.
READ_TIMEOUT_S = 30.0


class ServeConfig:
    """Everything ``repro serve`` is configured by (plain values)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        cache_dir: str | None = ".repro-cache",
        store_dir: str | None = None,
        spool_dir: str | None = None,
        quota_rate: float = 0.0,
        quota_burst: float = 8.0,
        max_pending: int = 32,
        max_batch: int = 8,
        retries: int = 0,
        timeout_s: float | None = None,
        backoff_s: float = 0.2,
    ) -> None:
        self.host = host
        self.port = port
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.store_dir = store_dir
        self.spool_dir = spool_dir
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.retries = retries
        self.timeout_s = timeout_s
        self.backoff_s = backoff_s


class ServeServer:
    """One serving instance; ``start()`` binds, ``drain()`` shuts down."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.t_start = time.time()
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._connections = 0
        self._conn_idle: asyncio.Event | None = None
        self._networks: dict[float, object] = {}
        self._store = None
        self._spool = None
        self._spool_tmp: tempfile.TemporaryDirectory | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.stats = {
            "requests": 0,
            "ok": 0,
            "errors": 0,
            "rejected_400": 0,
            "rejected_429": 0,
            "rejected_503": 0,
        }
        options = BatchOptions(
            jobs=self.config.jobs,
            cache_dir=self.config.cache_dir,
            retries=self.config.retries,
            timeout_s=self.config.timeout_s,
            backoff_s=self.config.backoff_s,
            raise_on_error=False,
        )

        def runner(specs, progress):
            return submit(specs, options, progress=progress)

        self.coalescer = BatchCoalescer(
            runner,
            try_cache=self._make_try_cache(),
            workers=self.config.jobs if self.config.jobs >= 0 else os.cpu_count(),
            max_batch=self.config.max_batch,
            max_pending=self.config.max_pending,
        )
        self.quotas = QuotaRegistry(
            self.config.quota_rate, self.config.quota_burst
        )

    # -- pipeline plumbing -----------------------------------------------------

    def _make_try_cache(self):
        """The cache-hit fast path: serve fully-cached specs poolless."""
        if not self.config.cache_dir:
            return None
        cache = ResultCache(self.config.cache_dir)

        def try_cache(spec):
            keys = stage_cache_keys(spec)
            if not all(
                cache.has(keys[name], get_stage(name).kind)
                for name in spec.stages
            ):
                return None
            # every artifact is on disk: execute_job degenerates to a
            # cache read (no stage function runs on the all-hit path)
            outcome = execute_job(spec, cache)
            return outcome if outcome.ok else None

        return try_cache

    def network_for(self, impedance: float):
        """The calibrated supply network at ``impedance`` (memoized)."""
        key = round(float(impedance), 6)
        if key not in self._networks:
            self._networks[key] = calibrated_supply(key)
        return self._networks[key]

    # -- lifecycle -------------------------------------------------------------

    @property
    def url(self) -> str:
        host = "127.0.0.1" if self.host in ("0.0.0.0", "") else self.host
        return f"http://{host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> "ServeServer":
        if self.config.store_dir:
            from ..store import TraceStore

            self._store = TraceStore(self.config.store_dir)
        if self.config.spool_dir:
            from ..store import TraceStore

            self._spool = TraceStore(self.config.spool_dir, mode="a")
        else:
            from ..store import TraceStore

            self._spool_tmp = tempfile.TemporaryDirectory(
                prefix="repro-serve-spool-"
            )
            self._spool = TraceStore(self._spool_tmp.name, mode="a")
        self._conn_idle = asyncio.Event()
        self._conn_idle.set()
        self.coalescer.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self

    async def drain(self) -> None:
        """Graceful shutdown: finish everything accepted, then stop."""
        if self._draining:
            return
        self._draining = True
        obs.event("serve_drain", queue_depth=self.coalescer.depth)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.coalescer.drain()
        if self._conn_idle is not None:
            await self._conn_idle.wait()
        if self._spool_tmp is not None:
            self._spool_tmp.cleanup()
            self._spool_tmp = None

    async def serve_until_shutdown(
        self, duration: float | None = None
    ) -> None:
        """Run until SIGTERM/SIGINT (or ``duration`` seconds), then drain."""
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop / non-main thread
        try:
            if duration is None:
                await stop.wait()
            else:
                try:
                    await asyncio.wait_for(stop.wait(), timeout=duration)
                except asyncio.TimeoutError:
                    pass
            await self.drain()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    # -- HTTP plumbing ---------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._connections += 1
        self._conn_idle.clear()
        try:
            await self._handle_request(reader, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
        ):
            pass  # client went away or dawdled; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._connections -= 1
            if self._connections == 0:
                self._conn_idle.set()

    async def _handle_request(self, reader, writer) -> None:
        request_line = await asyncio.wait_for(
            reader.readline(), READ_TIMEOUT_S
        )
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), READ_TIMEOUT_S)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length:
            if length > MAX_BODY_BYTES:
                await self._send_json(
                    writer,
                    413,
                    {"error": f"body over {MAX_BODY_BYTES} bytes"},
                )
                return
            body = await asyncio.wait_for(
                reader.readexactly(length), READ_TIMEOUT_S
            )
        peer = writer.get_extra_info("peername")
        client_hint = headers.get("x-client") or (
            f"{peer[0]}" if isinstance(peer, tuple) else "anonymous"
        )

        if method == "GET" and path == "/healthz":
            await self._send_json(writer, 200, self.health())
        elif method == "GET" and path == "/stats":
            await self._send_json(writer, 200, self.snapshot_stats())
        elif method == "GET" and path == "/metrics":
            await self._send_text(
                writer,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                obs.registry().to_prometheus(),
            )
        elif method == "GET" and path == "/":
            await self._send_text(
                writer,
                200,
                "text/plain; charset=utf-8",
                "repro serve endpoints: POST /v1/characterize "
                "/v1/monitor; GET /healthz /stats /metrics\n",
            )
        elif method == "POST" and path in (
            "/v1/characterize",
            "/v1/monitor",
        ):
            await self._handle_submit(writer, body, client_hint)
        else:
            await self._send_json(
                writer, 404, {"error": f"no route {method} {path}"}
            )

    # -- the characterization route --------------------------------------------

    async def _handle_submit(self, writer, body: bytes, client_hint: str):
        t0 = time.monotonic()
        self.stats["requests"] += 1
        if self._draining:
            self.stats["rejected_503"] += 1
            await self._send_json(
                writer,
                503,
                {"error": "draining", "retry_after_s": 1.0},
                extra_headers={"Retry-After": "1"},
            )
            return
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self.stats["rejected_400"] += 1
            await self._send_json(
                writer, 400, {"error": f"bad JSON body: {exc}"}
            )
            return
        try:
            request = parse_request(payload)
            client = request.client or client_hint
            granted, retry_after = self.quotas.check(client)
            if not granted:
                self.stats["rejected_429"] += 1
                obs.counter_inc(
                    "serve_rejected_total",
                    1,
                    "requests rejected before execution, by reason",
                    reason="quota",
                )
                await self._send_json(
                    writer,
                    429,
                    {
                        "error": f"quota exhausted for client {client!r}",
                        "retry_after_s": round(retry_after, 4),
                    },
                    extra_headers={
                        "Retry-After": str(max(1, int(retry_after + 0.5)))
                    },
                )
                return
            spec = await asyncio.to_thread(
                build_spec,
                request,
                network_for=self.network_for,
                store=self._store,
                spool=self._spool,
            )
        except RequestError as exc:
            self.stats["rejected_400"] += 1
            await self._send_json(
                writer, 400, {"error": str(exc), **exc.details}
            )
            return

        request_id = os.urandom(8).hex()
        try:
            sub = await self.coalescer.submit(spec, request_id)
        except DrainingError as exc:
            self.stats["rejected_503"] += 1
            await self._send_json(
                writer,
                503,
                {"error": str(exc), "retry_after_s": 1.0},
                extra_headers={"Retry-After": "1"},
            )
            return
        except AdmissionError as exc:
            self.stats["rejected_503"] += 1
            await self._send_json(
                writer,
                503,
                {"error": str(exc), **exc.details, "retry_after_s": 0.5},
                extra_headers={"Retry-After": "1"},
            )
            return

        obs.event(
            "serve_request",
            request_id=request_id,
            client=client,
            kind=request.kind,
            source=request.source,
            benchmark=spec.benchmark,
            digest=spec.digest()[:16],
        )
        # accepted: everything from here streams as chunked JSONL
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await self._send_chunk(
            writer,
            encode_event(
                {
                    "type": "accepted",
                    "request_id": request_id,
                    "protocol": PROTOCOL_VERSION,
                    "digest": spec.digest(),
                    "benchmark": spec.benchmark,
                    "trace_id": obs.current_trace_id(),
                }
            ),
        )
        ok = False
        try:
            async for event in sub.events():
                await self._send_chunk(writer, encode_event(event))
                if event["type"] == "done":
                    ok = bool(event.get("ok"))
            await self._send_chunk(writer, b"")  # terminal 0-chunk
        finally:
            elapsed = time.monotonic() - t0
            self.stats["ok" if ok else "errors"] += 1
            obs.counter_inc(
                "serve_requests_total",
                1,
                "requests accepted, by final status",
                status="ok" if ok else "error",
            )
            obs.histogram_observe(
                "serve_request_seconds",
                elapsed,
                "accepted-request wall time to the done event",
            )

    # -- response helpers ------------------------------------------------------

    async def _send_chunk(self, writer, data: bytes) -> None:
        writer.write(f"{len(data):x}\r\n".encode("ascii"))
        writer.write(data + b"\r\n")
        await writer.drain()

    async def _send_json(
        self, writer, code: int, doc: dict, extra_headers: dict | None = None
    ) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            413: "Payload Too Large",
            429: "Too Many Requests",
            503: "Service Unavailable",
        }.get(code, "OK")
        head = [
            f"HTTP/1.1 {code} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    async def _send_text(
        self, writer, code: int, content_type: str, text: str
    ) -> None:
        body = text.encode("utf-8")
        writer.write(
            (
                f"HTTP/1.1 {code} OK\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        writer.write(body)
        await writer.drain()

    # -- introspection ---------------------------------------------------------

    def health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.t_start, 3),
            "queue_depth": self.coalescer.depth,
            "protocol": PROTOCOL_VERSION,
        }

    def snapshot_stats(self) -> dict:
        return {
            **self.stats,
            **self.coalescer.stats,
            "queue_depth": self.coalescer.depth,
            "active_clients": self.quotas.active_clients,
            "draining": self._draining,
        }
