"""Graceful drain and fault surfacing, in-process and over SIGTERM.

The SIGTERM test runs the real ``python -m repro serve`` CLI as a
subprocess (port 0 + ``--port-file``: no fixed ports), kills it while a
request is mid-batch, and requires the accepted request to finish and
the process to exit 0 — the drain contract end to end.

The fault-plan test proves the service inherits the pipeline's fault
tolerance: a worker SIGKILLed by the injection harness surfaces as a
*structured error event* on the open stream, never a hung connection.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.pipeline import faults

from .conftest import quick_payload

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestDrainInProcess:
    def test_drain_mid_batch_finishes_accepted_work(self, serve_factory):
        handle = serve_factory()
        gate = threading.Event()
        inner = handle.server.coalescer.runner

        def slow_runner(specs, progress):
            assert gate.wait(60)
            return inner(specs, progress)

        handle.server.coalescer.runner = slow_runner
        outcome = {}

        def fire():
            outcome["response"] = handle.submit(quick_payload(seed=31))

        request_thread = threading.Thread(target=fire)
        request_thread.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if handle.stats()["queue_depth"] >= 1:
                break
            time.sleep(0.02)

        drained = {}

        def drain():
            t0 = time.monotonic()
            handle.drain()
            drained["elapsed"] = time.monotonic() - t0

        drain_thread = threading.Thread(target=drain)
        drain_thread.start()
        time.sleep(0.1)
        assert not drained  # drain must block on the in-flight batch
        gate.set()
        drain_thread.join(120)
        request_thread.join(120)
        assert "elapsed" in drained
        # the request accepted before the drain got its full stream
        events = outcome["response"].events
        assert events[-1]["type"] == "done"
        assert events[-1]["ok"] is True


    def test_drain_ends_an_open_follow_stream(self, obs_on, serve_factory):
        handle = serve_factory()
        telemetry = handle.server.telemetry
        outcome = {}

        def follow():
            outcome["response"] = handle.call(
                "GET", "/events?follow=1&type=event", timeout=30
            )

        follower = threading.Thread(target=follow)
        follower.start()
        deadline = time.monotonic() + 30
        while not telemetry._followers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert telemetry._followers, "the follow stream never opened"
        t0 = time.monotonic()
        handle.drain(timeout=30)
        elapsed = time.monotonic() - t0
        follower.join(30)
        assert not follower.is_alive()
        assert elapsed < 10
        # the stream ended with its terminal chunk, after the live
        # serve_drain event reached it
        response = outcome["response"]
        assert response.status == 200
        assert response.headers["transfer-encoding"] == "chunked"
        names = [e["name"] for e in response.events]
        assert names[-1] == "serve_drain"


class TestDrainOverSigterm:
    def test_sigterm_mid_batch_drains_and_exits_zero(self, tmp_path):
        port_file = tmp_path / "port.txt"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--listen", "127.0.0.1:0",
                "--port-file", str(port_file),
                "--cache-dir", str(tmp_path / "cache"),
            ],
            env={**os.environ, "PYTHONPATH": REPO_SRC},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not (
                port_file.is_file() and port_file.read_text().strip()
            ):
                assert proc.poll() is None, proc.stdout.read()
                time.sleep(0.05)
            host, port = port_file.read_text().split()

            import asyncio

            from repro.serve.loadgen import http_request

            outcome = {}

            def fire():
                # big enough to still be mid-batch when SIGTERM lands
                outcome["response"] = asyncio.run(
                    http_request(
                        host, int(port), "POST", "/v1/characterize",
                        quick_payload(seed=32, cycles=16384),
                        timeout=180,
                    )
                )

            request_thread = threading.Thread(target=fire)
            request_thread.start()

            def stats():
                return asyncio.run(
                    http_request(host, int(port), "GET", "/stats",
                                 timeout=10)
                ).json()

            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if stats()["queue_depth"] >= 1:
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            request_thread.join(180)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        assert proc.returncode == 0, out
        assert "serve drained" in out
        events = outcome["response"].events
        assert events, "stream was cut instead of drained"
        assert events[-1]["type"] == "done"
        assert events[-1]["ok"] is True


class TestFaultSurfacing:
    def test_killed_worker_is_a_structured_error_not_a_hang(
        self, serve_factory, monkeypatch
    ):
        # SIGKILL the worker on every simulate attempt for gzip; the
        # kill directive forces the supervised pool even at jobs=1
        monkeypatch.setenv(faults.ENV_VAR, "simulate@gzip:kill:*")
        handle = serve_factory()
        t0 = time.monotonic()
        response = handle.submit(quick_payload(seed=33), timeout=180)
        elapsed = time.monotonic() - t0
        assert response.status == 200
        events = response.events
        # the stream terminated (no hung connection)...
        assert events[-1]["type"] == "done"
        assert events[-1]["ok"] is False
        assert elapsed < 120
        # ...with the pipeline's structured failure, not a traceback
        error = next(e for e in events if e["type"] == "error")
        assert error["kind"] == "crash"
        # a SIGKILLed worker cannot attribute a stage (the process is
        # gone); the structured kind/message is the contract
        assert error["message"]
        assert "request_id" in error

    def test_fault_only_hits_the_targeted_job(
        self, serve_factory, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_VAR, "simulate@gzip:kill:*")
        handle = serve_factory()
        good = handle.submit(
            quick_payload(benchmark="mcf", seed=34), timeout=180
        )
        assert good.events[-1]["ok"] is True
