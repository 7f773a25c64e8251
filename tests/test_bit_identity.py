"""Bit-identity pins for the §4 critical path.

The scale-factor calibration and the per-cycle power model are rewritten
for speed from time to time; their outputs must not move by a single bit.
``tests/fixtures/bit_identity.json`` holds sha256 digests of

* the ``ScaleFactorModel.table`` floats for the 100 % and 150 % supplies
  at 6 and 8 levels, and
* the per-cycle current plus cycle/commit/L2-miss counts of a short run
  of all 26 SPEC2000 models and the dI/dt stressmark.

The digests were recorded once and are compared here, never recomputed
in the same run.  They hold for the NumPy/SciPy versions recorded next to
them; a failure on another toolchain names both.  After an intentional
numerical change, rewrite them with::

    PYTHONPATH=src python -m tests.test_bit_identity --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.core import calibrate_scale_factors, calibrated_supply
from repro.uarch import Simulator, simulate_benchmark
from repro.workloads import stressmark_stream
from repro.workloads.spec import SPEC2000

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "bit_identity.json"

SUPPLIES = (100, 150)
LEVELS = (6, 8)
CYCLES = 2048
WARMUP = 256
STRESSMARK_HALF_PERIOD = 15


def table_digest(percent: int, levels: int) -> str:
    model = calibrate_scale_factors(calibrated_supply(percent), levels)
    h = hashlib.sha256()
    for level in model.levels:
        h.update(np.asarray(model.table[level], dtype=np.float64).tobytes())
    return h.hexdigest()


def run_digest(result) -> str:
    h = hashlib.sha256(np.ascontiguousarray(result.current).tobytes())
    stats = result.stats
    h.update(f"{stats.cycles}/{stats.committed}/{stats.l2_misses}".encode())
    return h.hexdigest()


def simulate_pinned(name: str):
    if name == "stressmark":
        stream = stressmark_stream(STRESSMARK_HALF_PERIOD)
        return Simulator().run(stream, CYCLES, name=name)
    return simulate_benchmark(
        name, CYCLES, warmup_cycles=WARMUP, use_cache=False
    )


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


def test_every_workload_is_pinned(pins):
    assert sorted(pins["simulation"]) == sorted([*SPEC2000, "stressmark"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_bit_identity --write")
    FIXTURE.write_text(json.dumps(compute_pins(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
