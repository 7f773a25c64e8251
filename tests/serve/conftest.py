"""Fixtures for the service test battery.

No async test framework is available (and none is needed): the server
runs a real event loop on a daemon thread via ``asyncio.run``, and test
code talks to it over real sockets with the package's own HTTP client,
each call wrapped in its own short-lived ``asyncio.run``.  Every server
binds port 0 — the OS hands out the port, the fixture reads it off the
server object, and nothing in this battery ever touches a fixed port.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro import obs
from repro.serve import ServeConfig, ServeServer
from repro.serve.loadgen import http_request


class ServerHandle:
    """A live server on its own event-loop thread, plus a sync client."""

    def __init__(self) -> None:
        self.server: ServeServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self.error: BaseException | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self, config: ServeConfig, timeout: float = 30.0):
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self._amain(config)),
            name="serve-under-test",
            daemon=True,
        )
        self.thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("server failed to start")
        if self.error is not None:
            raise self.error
        return self

    async def _amain(self, config: ServeConfig) -> None:
        try:
            self.loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.server = await ServeServer(config).start()
        except BaseException as exc:  # surface startup failures to the test
            self.error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.drain()

    def drain(self, timeout: float = 60.0) -> None:
        """Run the server's graceful drain from the test thread."""
        fut = asyncio.run_coroutine_threadsafe(self.server.drain(), self.loop)
        fut.result(timeout)

    def stop(self, timeout: float = 60.0) -> None:
        if self.loop is not None and self._stop is not None:
            self.loop.call_soon_threadsafe(self._stop.set)
        if self.thread is not None:
            self.thread.join(timeout)

    # -- client ----------------------------------------------------------------

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def call(
        self,
        method: str,
        path: str,
        body=None,
        headers=None,
        timeout: float = 60.0,
    ):
        return asyncio.run(
            http_request(
                self.host, self.port, method, path, body, headers, timeout
            )
        )

    def submit(self, payload: dict, headers=None, timeout: float = 60.0):
        return self.call(
            "POST", "/v1/characterize", payload, headers, timeout
        )

    def stats(self) -> dict:
        return self.call("GET", "/stats").json()


def raw_exchange(host: str, port: int, data: bytes, timeout=30.0) -> bytes:
    """Send ``data`` as is and return every byte up to the server's EOF."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.fixture
def obs_on():
    """Telemetry on; ask for it before ``serve_factory``, because
    ``obs.enable`` drops the record subscribers of running servers."""
    obs.enable("summary")
    yield
    obs.disable()


@pytest.fixture
def serve_factory(tmp_path):
    """Start servers with per-test config; all are stopped at teardown."""
    handles: list[ServerHandle] = []
    counter = [0]

    def start(**kwargs) -> ServerHandle:
        counter[0] += 1
        kwargs.setdefault("port", 0)
        kwargs.setdefault("cache_dir", str(tmp_path / f"cache{counter[0]}"))
        handle = ServerHandle().start(ServeConfig(**kwargs))
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        handle.stop()


#: A small, fast request: 1024 simulated cycles, no warmup, window 64.
#: window/impedance are shared by every test payload so the whole
#: battery calibrates one estimator (the memo key is network x window).
def quick_payload(benchmark: str = "gzip", seed: int = 1, **extra) -> dict:
    payload = {
        "benchmark": benchmark,
        "cycles": 1024,
        "warmup_cycles": 0,
        "window": 64,
        "seed": seed,
    }
    payload.update(extra)
    return payload
