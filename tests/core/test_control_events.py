"""The closed-loop experiment's event stream, pinned.

``run_control_experiment`` reports through the observability layer what
its result object does not carry: the onset of every voltage emergency
(benchmark, cycle, true voltage, which run) in both the free-running and
the controlled run, one ``actuation_summary`` per experiment and the
``control_*`` counters and gauge.  The digest also covers each
experiment's :class:`ControlResult`.  The cases below cover a wavelet
threshold controller that both stalls and boosts, a hysteresis
controller and pipeline damping.  The digest was recorded once and is
compared here, never recomputed in the same run; an intentional change
to the stream must rewrite it (``python -m tests.core.test_control_events``
prints the current one).
"""

import dataclasses
import hashlib
import json

from repro import obs
from repro.core import (
    HysteresisController,
    PipelineDampingController,
    ThresholdController,
    WaveletVoltageMonitor,
    calibrated_supply,
    run_control_experiment,
)

CYCLES = 4096
WARMUP = 2048
DIGEST = "542def19b16c5ddd7e7829c2f937688beffd4c4a0941337937927c4245d293ea"


def _cases():
    """(case, benchmark, supply, controller factory) per experiment."""
    net150, net200 = calibrated_supply(150), calibrated_supply(200)
    return [
        (
            "mgrid-wavelet",
            "mgrid",
            net150,
            lambda: ThresholdController(
                WaveletVoltageMonitor(net150, terms=13), net150, 0.010
            ),
        ),
        # lucas commits its last instruction before the run ends
        (
            "lucas-hysteresis",
            "lucas",
            net200,
            lambda: HysteresisController(
                WaveletVoltageMonitor(net200, terms=13), net200, 0.010
            ),
        ),
        (
            "gzip-damping",
            "gzip",
            net200,
            lambda: PipelineDampingController(net200, delta=15.0),
        ),
    ]


def event_stream() -> list:
    """Every case's emitted events and final ``control_*`` metrics."""
    stream = []
    for case, benchmark, net, factory in _cases():
        records = []
        obs.enable("summary")
        obs.add_subscriber(records.append)
        try:
            result = run_control_experiment(
                benchmark, net, factory, cycles=CYCLES, warmup_cycles=WARMUP
            )
            metrics = {
                name: sorted(
                    [sorted(dict(key).items()), value]
                    for key, value in family["series"].items()
                )
                for name, family in obs.registry().snapshot().items()
                if name.startswith("control_")
            }
        finally:
            obs.disable()
        events = [
            [r["name"], sorted(r["attrs"].items())]
            for r in records
            if r["type"] == "event"
            and r["name"] in ("emergency_onset", "actuation_summary")
        ]
        stream.append(
            [case, events, sorted(metrics.items()), dataclasses.asdict(result)]
        )
    return stream


def digest(stream: list) -> str:
    return hashlib.sha256(json.dumps(stream).encode()).hexdigest()


def test_event_stream_is_pinned():
    stream = event_stream()
    onsets = {
        controlled
        for _, events, _, _ in stream
        for name, attrs in events
        if name == "emergency_onset"
        for key, controlled in attrs
        if key == "controlled"
    }
    # both runs of an experiment contribute emergencies to the pin
    assert onsets == {False, True}
    assert digest(stream) == DIGEST


if __name__ == "__main__":
    print(digest(event_stream()))
