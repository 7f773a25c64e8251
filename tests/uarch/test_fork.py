"""``Pipeline.fork``: one warm-up, two identical machines.

The closed-loop experiment warms one machine and, when it runs both of
its runs in one process, forks it: the free-running run goes on the
copy, the controlled run on the original.
That is sound only if the copy is exact and shares no mutable state, so
each case runs the original to the end first and only then its fork,
through the simulator's one cycle loop, and compares everything either
run produces.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.controller as control
from repro.core import (
    ThresholdController,
    WaveletVoltageMonitor,
    calibrated_supply,
    run_control_experiment,
)
from repro.uarch.simulator import _run_cycles, _warm_pipeline

WARMUP = 1024
CYCLES = 4096


class Scripted:
    """A fixed actuation schedule: stall 3 cycles in 11, boost 2 in 7."""

    def __init__(self) -> None:
        self.n = 0

    def update(self, current: float) -> tuple[bool, int]:
        self.n += 1
        return self.n % 11 < 3, 4 if self.n % 7 < 2 else 0


def outcome(pipe, controller=None) -> tuple:
    current, l2_flag = _run_cycles(pipe, CYCLES, controller)
    return (
        current,
        l2_flag,
        dataclasses.asdict(pipe.stats),
        pipe.cycle,
        pipe.last_commit_cycle,
        pipe.skipped_cycles,
    )


def assert_same(a: tuple, b: tuple) -> None:
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2:] == b[2:]


@pytest.mark.parametrize("name", ["mgrid", "gzip", "mcf"])
@pytest.mark.parametrize("scripted", [False, True], ids=["free", "scripted"])
def test_fork_runs_in_lock_step(name, scripted):
    pipe = _warm_pipeline(name, WARMUP)
    twin = pipe.fork()
    first = outcome(pipe, Scripted() if scripted else None)
    second = outcome(twin, Scripted() if scripted else None)
    assert_same(first, second)
    if scripted:
        assert first[2]["stall_cycles"] and first[2]["noops_injected"]
    # and the fork is the machine a warm-up of its own would have built
    assert_same(second, outcome(_warm_pipeline(name, WARMUP),
                                Scripted() if scripted else None))


def test_control_experiment_warms_up_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _warm_pipeline(*args, **kwargs)

    monkeypatch.setattr(control, "_warm_pipeline", counting)
    net = calibrated_supply(150)
    run_control_experiment(
        "gzip",
        net,
        lambda: ThresholdController(WaveletVoltageMonitor(net, 13), net),
        cycles=1024,
        warmup_cycles=512,
    )
    assert len(calls) == 1
