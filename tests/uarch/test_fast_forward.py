"""Quiescent-cycle fast-forward against the tick-only machine.

A skipping pipeline and a tick-only pipeline run the same workload in
lock step.  Every skip of ``k`` cycles the first one reports must be ``k``
cycles in which the second one does nothing at all: zero activity, the
idle current and an unchanged L2-miss flag.  Every model runs under the
default power model; two also run under each clock-gating style, whose
idle current differs.
"""

import dataclasses

import pytest

from repro.uarch import TABLE_1, ClockGating, Pipeline, WattchPowerModel
from repro.uarch.power_model import ActivityCounters
from repro.workloads import generate, stressmark_stream
from repro.workloads.generator import prewarm_caches
from repro.workloads.spec import SPEC2000

CYCLES = 3072


def activity(pipe: Pipeline) -> tuple:
    return tuple(getattr(pipe.activity, k) for k in ActivityCounters.__slots__)


def machine(name: str, gating: ClockGating | None = None) -> Pipeline:
    power = None if gating is None else WattchPowerModel(gating=gating)
    if name == "stressmark":
        return Pipeline(TABLE_1, stressmark_stream(15), power)
    pipe = Pipeline(TABLE_1, iter(generate(name)), power)
    prewarm_caches(pipe.caches, name)
    return pipe


@pytest.mark.parametrize(
    "name, gating",
    [
        *(pytest.param(name, None, id=name) for name in [*SPEC2000, "stressmark"]),
        *(
            pytest.param(name, gating, id=f"{name}-{gating.value}")
            for name in ("mgrid", "mcf")
            for gating in ClockGating
        ),
    ],
)
def test_skips_are_quiescent_ticks(name, gating):
    ref, fast = machine(name, gating), machine(name, gating)
    idle = (0,) * len(ActivityCounters.__slots__)
    n = 0
    while n < CYCLES:
        skipped = fast.fast_forward(CYCLES - n)
        if skipped:
            flag = fast.l2_miss_outstanding
            for _ in range(skipped):
                assert ref.tick() == fast.idle_current
                assert activity(ref) == idle
                assert ref.l2_miss_outstanding == flag
            assert activity(fast) == idle
            n += skipped
        else:
            assert fast.tick() == ref.tick()
            assert activity(fast) == activity(ref)
            n += 1
        assert fast.cycle == ref.cycle == n
        assert fast.l2_miss_outstanding == ref.l2_miss_outstanding
    assert dataclasses.asdict(fast.stats) == dataclasses.asdict(ref.stats)
    assert 0 < fast.skipped_cycles < CYCLES


@pytest.mark.parametrize("knob", ["stall_issue", "inject_noops"])
def test_controller_knobs_disable_skipping(knob):
    pipe = machine("mcf")
    quiescent = 0
    for _ in range(CYCLES):
        setattr(pipe, knob, 1)
        assert pipe.fast_forward(1) == 0
        setattr(pipe, knob, 0)
        if pipe.fast_forward(1):
            quiescent += 1
        else:
            pipe.tick()
    assert quiescent > CYCLES // 2


def test_breakdown_tracking_disables_skipping():
    pipe = Pipeline(TABLE_1, iter(generate("mcf")), track_breakdown=True)
    prewarm_caches(pipe.caches, "mcf")
    for _ in range(CYCLES):
        assert pipe.fast_forward(1) == 0
        pipe.tick()
