"""Bit-identity pins for the §4 critical path.

The scale-factor calibration and the per-cycle power model are rewritten
for speed from time to time; their outputs must not move by a single bit.
``tests/fixtures/bit_identity.json`` holds sha256 digests of

* the ``ScaleFactorModel.table`` floats for the 100 % and 150 % supplies
  at 6 and 8 levels, computed by experiment (the frozen lookup that
  ``calibrate_scale_factors`` serves them from is pinned against the
  same computation in ``tests/core/test_frozen_calibration.py``), and
* the per-cycle current plus cycle/commit/L2-miss counts of a short run
  of all 26 SPEC2000 models and the dI/dt stressmark,
* for the same runs, the current, the per-cycle L2-miss-outstanding flag
  and every ``RunStatistics`` field,
* every field of one short closed-loop ``run_control_experiment`` (gzip,
  threshold controller, with a supply and margin under which it both
  stalls issue and injects no-ops), and
* ``power_breakdown`` of a ``track_breakdown=True`` pipeline.

The digests were recorded once and are compared here, never recomputed
in the same run.  They hold for the NumPy/SciPy versions recorded next to
them; a failure on another toolchain names both.  After an intentional
numerical change, rewrite them with::

    PYTHONPATH=src python -m tests.test_bit_identity --write
"""

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.core import (
    ThresholdController,
    WaveletVoltageMonitor,
    calibrated_supply,
    reference_network,
    run_control_experiment,
)
from repro.core import calibration, setup
from repro.uarch import TABLE_1, Pipeline, Simulator, simulate_benchmark
from repro.workloads import generate, stressmark_stream
from repro.workloads.generator import prewarm_caches
from repro.workloads.spec import SPEC2000

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "bit_identity.json"

SUPPLIES = (100, 150)
LEVELS = (6, 8)
CYCLES = 2048
WARMUP = 256
STRESSMARK_HALF_PERIOD = 15
# Closed-loop pin: a 250 % impedance supply and a wide margin, so the
# controller both stalls issue and injects no-ops within the short run.
CONTROL_IMPEDANCE = 250
CONTROL_MARGIN = 0.03
CONTROL_TERMS = 13
BREAKDOWN_BENCHMARK = "gzip"


@functools.cache
def computed_peak_impedance() -> float:
    return setup._stressmark_peak_impedance(reference_network(), 12288)


def table_digest(percent: int, levels: int) -> str:
    network = reference_network().with_peak_impedance(computed_peak_impedance())
    table = calibration._compute_scale_factors(
        network.with_scale(percent / 100.0), levels, 16384, 4, 2004
    )
    h = hashlib.sha256()
    for level in range(1, levels + 1):
        h.update(np.asarray(table[level], dtype=np.float64).tobytes())
    return h.hexdigest()


def run_digest(result) -> str:
    h = hashlib.sha256(np.ascontiguousarray(result.current).tobytes())
    stats = result.stats
    h.update(f"{stats.cycles}/{stats.committed}/{stats.l2_misses}".encode())
    return h.hexdigest()


def full_run_digest(result) -> str:
    h = hashlib.sha256(np.ascontiguousarray(result.current).tobytes())
    h.update(np.ascontiguousarray(result.l2_outstanding).tobytes())
    h.update(json.dumps(dataclasses.asdict(result.stats), sort_keys=True).encode())
    return h.hexdigest()


@functools.cache
def simulate_pinned(name: str):
    if name == "stressmark":
        stream = stressmark_stream(STRESSMARK_HALF_PERIOD)
        return Simulator().run(stream, CYCLES, name=name)
    return simulate_benchmark(
        name, CYCLES, warmup_cycles=WARMUP, use_cache=False
    )


def control_pin() -> dict:
    network = calibrated_supply(CONTROL_IMPEDANCE)

    def factory():
        monitor = WaveletVoltageMonitor(network, terms=CONTROL_TERMS)
        return ThresholdController(monitor, network, CONTROL_MARGIN)

    result = run_control_experiment(
        "gzip", network, factory, cycles=CYCLES, warmup_cycles=WARMUP
    )
    return dataclasses.asdict(result)


def breakdown_pin() -> dict:
    pipe = Pipeline(
        TABLE_1, iter(generate(BREAKDOWN_BENCHMARK)), track_breakdown=True
    )
    prewarm_caches(pipe.caches, BREAKDOWN_BENCHMARK)
    for _ in range(CYCLES):
        pipe.tick()
    return pipe.power_breakdown


def toolchain() -> str:
    return f"numpy {np.__version__}, scipy {scipy.__version__}"


def compute_pins() -> dict:
    return {
        "toolchain": toolchain(),
        "calibration": {
            f"{percent}/{levels}": table_digest(percent, levels)
            for percent in SUPPLIES
            for levels in LEVELS
        },
        "simulation": {
            name: run_digest(simulate_pinned(name))
            for name in [*SPEC2000, "stressmark"]
        },
        "simulation_full": {
            name: full_run_digest(simulate_pinned(name))
            for name in [*SPEC2000, "stressmark"]
        },
        "control": control_pin(),
        "breakdown": breakdown_pin(),
    }


def drift(pins) -> str:
    return f"pinned with {pins['toolchain']}; running {toolchain()}"


@pytest.fixture(scope="module")
def pins():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("levels", LEVELS)
@pytest.mark.parametrize("percent", SUPPLIES)
def test_calibration_table_is_pinned(pins, percent, levels):
    key = f"{percent}/{levels}"
    assert table_digest(percent, levels) == pins["calibration"][key], drift(pins)


@pytest.mark.parametrize("name", [*SPEC2000, "stressmark"])
def test_simulation_is_pinned(pins, name):
    assert run_digest(simulate_pinned(name)) == pins["simulation"][name], drift(pins)


@pytest.mark.parametrize("name", [*SPEC2000, "stressmark"])
def test_full_simulation_is_pinned(pins, name):
    digest = full_run_digest(simulate_pinned(name))
    assert digest == pins["simulation_full"][name], drift(pins)


def test_control_experiment_is_pinned(pins):
    got = control_pin()
    assert got["stall_cycles"] and got["boost_cycles"]
    assert got == pins["control"], drift(pins)


def test_power_breakdown_is_pinned(pins):
    assert breakdown_pin() == pins["breakdown"], drift(pins)


def test_every_workload_is_pinned(pins):
    workloads = sorted([*SPEC2000, "stressmark"])
    assert sorted(pins["simulation"]) == workloads
    assert sorted(pins["simulation_full"]) == workloads


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_bit_identity --write")
    FIXTURE.write_text(json.dumps(compute_pins(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
