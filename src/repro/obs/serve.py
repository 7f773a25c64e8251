"""Live observability endpoint: /metrics, /healthz and /events over HTTP.

:class:`Telemetry` writes the routes once, on the package's HTTP layer
(:mod:`repro.obs.http`):

* ``GET /metrics`` — the live process registry, Prometheus text format;
* ``GET /healthz`` — liveness JSON with uptime, PID and the trace id;
* ``GET /events`` — recent span/event/sample records as JSONL, newest
  last.  ``?type=event`` filters by record type, ``?n=100`` bounds the
  replay (``n=0`` replays none) and ``?follow=1`` then streams records
  as they happen (chunked), emergency onsets and retries included.

:class:`ObsServer` serves them from an asyncio loop in a daemon thread
(``--obs-listen``; ``repro obs serve`` over a recorded log), and
``repro serve`` mounts them on its own port.  Records arrive through
:func:`repro.obs.trace.add_subscriber` on the emitting thread (worker
records via the absorb path), join the backlog at once and hop onto
each ``follow`` stream's loop with ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time
from collections import deque

from . import trace
from .http import HttpServer, send, send_chunk, send_json, write_stream_head

__all__ = ["ObsServer", "Telemetry", "parse_listen"]

#: Ring-buffer capacity for /events backlog replay.
EVENT_BACKLOG = 2048


def parse_listen(value: str) -> tuple[str, int]:
    """``"HOST:PORT"`` or ``"PORT"`` → ``(host, port)``.

    A bare port binds localhost; port 0 asks the OS for a free one
    (handy in tests — read the bound port off ``server.port``).
    """
    value = value.strip()
    if ":" in value:
        host, _, port_s = value.rpartition(":")
        host = host or "127.0.0.1"
    else:
        host, port_s = "127.0.0.1", value
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(
            f"bad --obs-listen value {value!r}: want HOST:PORT"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"bad --obs-listen port {port}")
    return host, port


def _jsonl(record: dict) -> bytes:
    return (json.dumps(record, default=str) + "\n").encode("utf-8")


class _Follower:
    """One open ``/events?follow=1`` stream; ``push`` runs on its loop."""

    def __init__(self, matches) -> None:
        self.loop = asyncio.get_running_loop()
        self.matches = matches
        self.feed: deque = deque(maxlen=EVENT_BACKLOG)
        self.ready = asyncio.Event()
        self.closed = False

    def push(self, record: dict | None) -> None:
        """Queue ``record`` if it matches; ``None`` ends the stream."""
        self.closed = self.closed or record is None
        if record is not None and self.matches(record):
            self.feed.append(record)
        self.ready.set()


class Telemetry:
    """The ``/``, ``/metrics``, ``/healthz`` and ``/events`` routes.

    ``registry`` defaults to the live :func:`repro.obs.trace.registry`;
    pass a rebuilt one (see :func:`repro.obs.report.registry_from_records`)
    to serve a recorded log instead.  ``health`` returns fields laid
    over the health document; ``routes`` names the owner's other routes
    on the root page.  :meth:`on_record` is the record subscriber that
    feeds ``/events``.
    """

    def __init__(self, registry=None, health=None, routes=()) -> None:
        self._registry_override = registry
        self._health = health
        self.routes = (*routes, "GET /metrics", "GET /healthz", "GET /events")
        self._backlog: deque = deque(maxlen=EVENT_BACKLOG)
        self._followers: set[_Follower] = set()
        self._closed = False
        self._lock = threading.Lock()
        self.t_start = time.time()

    def health(self) -> dict:
        return {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.t_start, 3),
            "trace_id": trace.current_trace_id(),
            "obs_mode": trace.mode(),
            "events_buffered": len(self._backlog),
            **(self._health() if self._health else {}),
        }

    def backlog(self) -> list[dict]:
        with self._lock:
            return list(self._backlog)

    def feed(self, records) -> None:
        """Preload records into the /events backlog (log-serving mode)."""
        with self._lock:
            self._backlog.extend(records)

    def on_record(self, record: dict) -> None:
        """Record subscriber; safe to call from any thread."""
        with self._lock:
            self._backlog.append(record)
            followers = list(self._followers)
        self._hop(followers, record)

    def close_streams(self) -> None:
        """End every open follow stream, and any opened from now on."""
        with self._lock:
            self._closed = True
            followers = list(self._followers)
        self._hop(followers, None)

    @staticmethod
    def _hop(followers, record: dict | None) -> None:
        for follower in followers:
            try:
                follower.loop.call_soon_threadsafe(follower.push, record)
            except RuntimeError:
                pass  # its loop has closed; the stream is gone

    async def route(self, request, writer) -> bool:
        """Answer ``request`` if it is one of these routes."""
        if request.method != "GET":
            return False
        if request.path == "/metrics":
            text = (self._registry_override or trace.registry()).to_prometheus()
            ctype = "text/plain; version=0.0.4; charset=utf-8"
            await send(writer, 200, ctype, text.encode("utf-8"))
        elif request.path == "/healthz":
            await send_json(writer, 200, self.health())
        elif request.path == "/events":
            await self._events(request.query, writer)
        elif request.path == "/":
            text = "repro endpoints: " + ", ".join(self.routes) + "\n"
            await send(writer, 200, "text/plain; charset=utf-8", text.encode("utf-8"))
        else:
            return False
        return True

    async def _events(self, query: dict, writer) -> None:
        n = query.get("n", str(EVENT_BACKLOG))
        if not (n.isascii() and n.isdigit()):
            error = f"n must be a non-negative integer, got {n!r}"
            await send_json(writer, 400, {"error": error})
            return
        kind = query.get("type")

        def matches(record: dict) -> bool:
            return kind is None or record.get("type") == kind

        follower = None
        if query.get("follow", "0") not in ("0", "false"):
            follower = _Follower(matches)
        with self._lock:
            # one snapshot: each record is replayed or followed, never
            # both and never neither
            records = [r for r in self._backlog if matches(r)]
            if follower is not None:
                follower.closed = self._closed
                self._followers.add(follower)
        records = records[-int(n):] if int(n) else []
        if follower is None:
            body = b"".join(_jsonl(r) for r in records)
            await send(writer, 200, "application/x-ndjson", body)
            return
        try:
            write_stream_head(writer)
            follower.feed.extend(records)
            while True:
                while follower.feed:
                    await send_chunk(writer, _jsonl(follower.feed.popleft()))
                if follower.closed:
                    break
                follower.ready.clear()
                await follower.ready.wait()
            await send_chunk(writer, b"")
        finally:
            with self._lock:
                self._followers.discard(follower)


class ObsServer(Telemetry):
    """The in-process observability HTTP server.

    The socket is bound at construction (read ``host``, ``port`` and
    ``url`` off it); :meth:`start` serves the :class:`Telemetry` routes
    on an asyncio loop in a daemon thread, and :meth:`stop` ends every
    follow stream and joins that thread.  ``subscribe=True`` (default)
    taps the live record stream for ``/events``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry=None,
        subscribe: bool = True,
    ) -> None:
        super().__init__(registry)
        self._subscribe = subscribe
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host = "127.0.0.1" if self.host in ("0.0.0.0", "") else self.host
        return f"http://{host}:{self.port}"

    def start(self) -> "ObsServer":
        if self._thread is not None:
            return self
        if self._subscribe:
            trace.add_subscriber(self.on_record)
        started = threading.Event()
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._main(started),), name="repro-obs-http", daemon=True
        )
        self._thread.start()
        started.wait()
        return self

    async def _main(self, started: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        http = HttpServer(self.route)
        try:
            await http.start(sock=self._sock)
        finally:
            started.set()
        await self._stop.wait()
        try:
            await asyncio.wait_for(http.close(), 5.0)
        except asyncio.TimeoutError:
            pass  # a client that stopped reading; asyncio.run cancels it

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._subscribe:
            trace.remove_subscriber(self.on_record)
        self.close_streams()
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)
        self._thread = None

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
