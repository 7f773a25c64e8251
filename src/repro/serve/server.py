"""The asyncio characterization server (``repro serve``).

Zero dependencies: it runs on the package's one HTTP/1.1 layer
(:mod:`repro.obs.http`) — request line + headers + Content-Length body
in, either a plain JSON response or a chunked JSONL event stream out.
Endpoints:

* ``POST /v1/characterize`` (alias ``/v1/monitor``) — submit one
  request (:mod:`repro.serve.protocol`); the response streams
  ``accepted`` → ``status`` → ``result``/``error`` → ``done`` events as
  chunked JSONL, so a client watches its request move through the
  coalescer and the pool live;
* ``GET /stats`` — the server's counters (requests, cache fast-path
  hits, dispatches, rejections) as JSON — the loadgen's ground truth
  for "zero worker dispatches on a warm cache";
* ``GET /metrics``, ``GET /healthz`` and ``GET /events`` — the
  :class:`repro.obs.serve.Telemetry` routes: ``/healthz`` adds the
  serve state (``ok`` or ``draining``), queue depth and protocol, and
  ``/events`` shows each accepted request's ``serve_request`` event.

Admission happens *before* a request touches the pipeline: a draining
server answers 503, an empty token bucket 429 (with ``Retry-After``),
a full admission queue 503 — explicit backpressure instead of an
unbounded queue.  ``serve_until_shutdown`` installs SIGTERM/SIGINT
handlers that trigger a graceful drain: stop accepting, flush every
queued and in-flight job, finish every open response stream, then
return — a request accepted before the signal always gets its result.
An open ``/events?follow=1`` stream ends with its terminal chunk as
the drain begins.

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
from dataclasses import dataclass

from ..core import calibrated_supply
from ..obs import trace as obs
from ..obs.http import HttpServer, send_chunk, send_json, write_stream_head
from ..obs.serve import Telemetry
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


@dataclass
class ServeConfig:
    """Everything ``repro serve`` is configured by (plain values)."""

    host: str = "127.0.0.1"
    port: int = 0
    jobs: int = 1
    cache_dir: str | None = ".repro-cache"
    store_dir: str | None = None
    spool_dir: str | None = None
    quota_rate: float = 0.0
    quota_burst: float = 8.0
    max_pending: int = 32
    max_batch: int = 8
    retries: int = 0
    timeout_s: float | None = None
    backoff_s: float = 0.2


class ServeServer:
    """One serving instance; ``start()`` binds, ``drain()`` shuts down."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self._http = HttpServer(self._route)
        self.telemetry = Telemetry(
            health=self._health_fields,
            routes=("POST /v1/characterize", "POST /v1/monitor", "GET /stats"),
        )
        self._draining = False
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

    # -- lifecycle -------------------------------------------------------------

    @property
    def url(self) -> str:
        host = "127.0.0.1" if self.host in ("0.0.0.0", "") else self.host
        return f"http://{host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> "ServeServer":
        from ..store import TraceStore

        if self.config.store_dir:
            self._store = TraceStore(self.config.store_dir)
        spool_dir = self.config.spool_dir
        if not spool_dir:
            self._spool_tmp = tempfile.TemporaryDirectory(prefix="repro-serve-spool-")
            spool_dir = self._spool_tmp.name
        self._spool = TraceStore(spool_dir, mode="a")
        self.coalescer.start()
        obs.add_subscriber(self.telemetry.on_record)
        self.host, self.port = await self._http.start(
            self.config.host, self.config.port
        )
        return self

    async def drain(self) -> None:
        """Graceful shutdown: finish everything accepted, then stop."""
        if self._draining:
            return
        self._draining = True
        obs.event("serve_drain", queue_depth=self.coalescer.depth)
        self.telemetry.close_streams()
        await self._http.close()
        await self.coalescer.drain()
        obs.remove_subscriber(self.telemetry.on_record)
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

    # -- routes ----------------------------------------------------------------

    async def _route(self, request, writer) -> bool:
        if await self.telemetry.route(request, writer):
            return True
        if request.method == "GET" and request.path == "/stats":
            await send_json(writer, 200, self.snapshot_stats())
        elif request.method == "POST" and request.path in (
            "/v1/characterize",
            "/v1/monitor",
        ):
            peer = writer.get_extra_info("peername")
            client_hint = request.headers.get("x-client") or (
                f"{peer[0]}" if isinstance(peer, tuple) else "anonymous"
            )
            await self._handle_submit(writer, request.body, client_hint)
        else:
            return False
        return True

    # -- the characterization route --------------------------------------------

    async def _reject(self, writer, code: int, doc: dict, retry_after: int = 0) -> None:
        """Refuse a request before any work: count it and answer ``code``."""
        self.stats[f"rejected_{code}"] += 1
        headers = {"Retry-After": str(retry_after)} if retry_after else None
        await send_json(writer, code, doc, headers)

    async def _handle_submit(self, writer, body: bytes, client_hint: str):
        t0 = time.monotonic()
        self.stats["requests"] += 1
        if self._draining:
            await self._reject(writer, 503, {"error": "draining", "retry_after_s": 1.0}, 1)
            return
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._reject(writer, 400, {"error": f"bad JSON body: {exc}"})
            return
        try:
            request = parse_request(payload)
            client = request.client or client_hint
            granted, retry_after = self.quotas.check(client)
            if not granted:
                obs.counter_inc(
                    "serve_rejected_total",
                    1,
                    "requests rejected before execution, by reason",
                    reason="quota",
                )
                doc = {
                    "error": f"quota exhausted for client {client!r}",
                    "retry_after_s": round(retry_after, 4),
                }
                await self._reject(writer, 429, doc, max(1, int(retry_after + 0.5)))
                return
            spec = await asyncio.to_thread(
                build_spec,
                request,
                network_for=lambda imp: calibrated_supply(round(float(imp), 6)),
                store=self._store,
                spool=self._spool,
            )
        except RequestError as exc:
            await self._reject(writer, 400, {"error": str(exc), **exc.details})
            return

        request_id = os.urandom(8).hex()
        try:
            sub = await self.coalescer.submit(spec, request_id)
        except DrainingError as exc:
            await self._reject(writer, 503, {"error": str(exc), "retry_after_s": 1.0}, 1)
            return
        except AdmissionError as exc:
            doc = {"error": str(exc), **exc.details, "retry_after_s": 0.5}
            await self._reject(writer, 503, doc, 1)
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
        write_stream_head(writer)
        accepted = {
            "type": "accepted",
            "request_id": request_id,
            "protocol": PROTOCOL_VERSION,
            "digest": spec.digest(),
            "benchmark": spec.benchmark,
            "trace_id": obs.current_trace_id(),
        }
        await send_chunk(writer, encode_event(accepted))
        ok = False
        try:
            async for event in sub.events():
                await send_chunk(writer, encode_event(event))
                if event["type"] == "done":
                    ok = bool(event.get("ok"))
            await send_chunk(writer, b"")  # terminal 0-chunk
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

    # -- introspection ---------------------------------------------------------

    def _health_fields(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
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
