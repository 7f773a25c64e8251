"""Unit tests for the opt-in per-unit power breakdown."""

from functools import reduce
from operator import add

import numpy as np
import pytest

from repro.uarch import (
    ActivityCounters,
    ClockGating,
    Pipeline,
    TABLE_1,
    WattchPowerModel,
)
from repro.workloads import generate
from repro.workloads.generator import prewarm_caches


def breakdown_for(name: str, cycles: int = 5000) -> tuple[dict, float]:
    pipe = Pipeline(TABLE_1, iter(generate(name)), track_breakdown=True)
    prewarm_caches(pipe.caches, name)
    mean = float(np.mean([pipe.tick() for _ in range(cycles)]))
    return pipe.power_breakdown, mean


class TestUnitCurrents:
    def test_sums_to_total(self):
        pm = WattchPowerModel()
        a = ActivityCounters()
        a.issued_ialu = 3
        a.dcache_accesses = 2
        a.injected_noops = 1
        assert sum(pm.unit_currents(a).values()) == pytest.approx(
            pm.current(a)
        )

    def test_sums_to_total_every_gating(self):
        for gating in ClockGating:
            pm = WattchPowerModel(gating=gating)
            a = ActivityCounters()
            a.issued_fpalu = 1
            assert sum(pm.unit_currents(a).values()) == pytest.approx(
                pm.current(a)
            ), gating

    @pytest.mark.parametrize(
        "gating", [ClockGating.NONE, ClockGating.CC3, ClockGating.IDEAL]
    )
    def test_sums_to_total_exactly(self, gating):
        # Same terms, same order: the breakdown adds up to the very same
        # float as current(), over seeded random activity with idle units.
        # A left fold, not sum(): from Python 3.12 on, sum() compensates
        # float rounding and so no longer adds strictly in order.
        pm = WattchPowerModel(gating=gating)
        rng = np.random.default_rng(2004)
        for _ in range(500):
            a = ActivityCounters()
            for name in ActivityCounters.__slots__:
                setattr(a, name, int(rng.integers(0, 9)) * int(rng.random() < 0.6))
            assert pm.current(a) == reduce(add, pm.unit_currents(a).values())

    def test_active_unit_attributed(self):
        pm = WattchPowerModel()
        idle = pm.unit_currents(ActivityCounters())
        a = ActivityCounters()
        a.l2_accesses = 1
        busy = pm.unit_currents(a)
        assert busy["l2"] > idle["l2"]
        assert busy["ialu"] == idle["ialu"]


class TestPipelineBreakdown:
    def test_breakdown_sums_to_mean_current(self):
        breakdown, mean = breakdown_for("gzip", cycles=3000)
        assert sum(breakdown.values()) == pytest.approx(mean, rel=1e-9)

    def test_opt_in_required(self):
        pipe = Pipeline(TABLE_1, iter(generate("gzip")))
        with pytest.raises(RuntimeError):
            _ = pipe.power_breakdown

    def test_memory_bound_shifts_power_to_memory_system(self):
        cpu, _ = breakdown_for("gzip", cycles=4000)
        mem, _ = breakdown_for("mcf", cycles=4000)

        def mem_share(b):
            total = sum(b.values())
            return (b["l2"] + b["membus"] + b["dcache"]) / total

        def alu_share(b):
            total = sum(b.values())
            return (b["ialu"] + b["fpalu"]) / total

        # mcf spends most cycles stalled, so its absolute memory power is
        # modest — but its *share* still leans toward the memory system,
        # while compute-bound gzip leans hard toward the ALUs.
        assert mem_share(mem) > 1.15 * mem_share(cpu)
        assert alu_share(cpu) > 1.8 * alu_share(mem)

    def test_clock_always_present(self):
        breakdown, _ = breakdown_for("eon", cycles=1000)
        assert breakdown["clock"] == pytest.approx(8.0)
        assert breakdown["static"] == pytest.approx(3.0)
