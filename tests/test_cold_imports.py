"""Each cold path imports only what it uses.

No path that characterizes, simulates or controls loads any SciPy
module: the voltage convolution runs on ``numpy.fft`` and the §4.1
Gaussian step on a NumPy port of SciPy's ``erf``.  SciPy's import costs
about a quarter of a second and ~19 MB, and under NumPy 2.4 it drags in
``numpy.f2py`` and ``charset_normalizer``, so those are watched too.
``repro.pipeline`` is needed only to characterize: ``import repro.cli``,
calibration and the §5 closed loop do not load it.

A fresh interpreter runs each step in process and reports which watched
modules are in ``sys.modules`` after it.  The gate is deterministic: it
counts modules, never seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.signal", "scipy.stats", "scipy.sparse")
#: What importing SciPy drags in under NumPy 2.4.
BAGGAGE = ("numpy.f2py", "charset_normalizer")
LAZY = ("repro.pipeline",)
#: Every SciPy module counts, plus these.
WATCHED = (*BAGGAGE, *LAZY)

PROGRAM = """
import json
import sys

WATCHED = {watched!r}
root = sys.argv[1]
loaded = {{}}


def check(step):
    loaded[step] = sorted(
        name
        for name in sys.modules
        if name.split(".")[0] == "scipy" or name in WATCHED
    )


import repro.cli

check("import repro.cli")

import numpy as np

from repro.core import (
    ThresholdController,
    WaveletVoltageMonitor,
    calibrated_supply,
    run_control_experiment,
)

network = calibrated_supply(150)
check("calibrated_supply")


def factory():
    return ThresholdController(WaveletVoltageMonitor(network, terms=13), network, 0.01)


run_control_experiment("gzip", network, factory, cycles=2048, warmup_cycles=256)
check("control experiment")

from repro.pipeline import (
    BatchOptions,
    build_characterization_jobs,
    build_store_jobs,
    submit,
)

check("import repro.pipeline")

from repro.store import TraceStore

specs = build_characterization_jobs(["gzip"], network, cycles=2048)
batch = submit(specs, BatchOptions(jobs=0, cache_dir=root + "/sweep"))
assert batch.outcomes[0].ok, batch.outcomes[0].error
check("characterization job")

store = TraceStore(root + "/store", mode="a")
trace = np.random.default_rng(0).normal(40.0, 5.0, 8192).astype(np.float32)
trace_id = store.ingest(trace, "noise").trace_id
specs = build_store_jobs(store, network, trace_ids=[trace_id])
batch = submit(specs, BatchOptions(jobs=0, cache_dir=root + "/rescan"))
assert batch.outcomes[0].ok, batch.outcomes[0].error
check("store job")
print(json.dumps(loaded))
"""

STEPS = [
    "import repro.cli",
    "calibrated_supply",
    "control experiment",
    "import repro.pipeline",
    "characterization job",
    "store job",
]

#: The commands that neither characterize nor compute a voltage trace,
#: then ``characterize``, which loads the pipeline but still no SciPy.
COMMANDS = """
import contextlib
import io
import json
import sys

from repro.cli import main

WATCHED = {watched!r}
loaded = {{}}
for argv in (
    ["control", "mgrid", "--cycles", "4096"],
    ["simulate", "gzip", "--cycles", "4096"],
    ["breakdown", "gzip", "--cycles", "4096"],
    ["characterize", "gzip", "--cycles", "4096"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded[argv[0]] = sorted(
        name
        for name in sys.modules
        if name.split(".")[0] == "scipy" or name in WATCHED
    )
print(json.dumps(loaded))
"""

LAZY_PACKAGE = """
import json
import sys

import repro

loaded = {"import repro": "repro.pipeline" in sys.modules}
pipeline = repro.pipeline
loaded["repro.pipeline"] = [pipeline.__name__, "repro.pipeline" in sys.modules]
namespace = {}
exec("from repro import *", namespace)
loaded["star"] = sorted(name for name in repro.__all__ if name in namespace)
loaded["all"] = sorted(repro.__all__)
loaded["dir"] = dir(repro)
try:
    repro.nope
except AttributeError as exc:
    loaded["nope"] = str(exc)
print(json.dumps(loaded))
"""


def run_fresh(program: str, *args: str) -> dict:
    """Run ``program`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", program, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The watched modules present after each step of ``PROGRAM``."""
    root = tmp_path_factory.mktemp("cold")
    loaded = run_fresh(PROGRAM.format(watched=WATCHED), str(root))
    assert list(loaded) == STEPS
    return loaded


@pytest.fixture(scope="module")
def commands():
    """The watched modules present after each CLI command of ``COMMANDS``."""
    return run_fresh(COMMANDS.format(watched=WATCHED))


def test_cold_paths_leave_heavy_scipy_unimported(loaded):
    for step, names in loaded.items():
        assert not set(HEAVY) & set(names), (step, names)


def test_no_step_loads_scipy(loaded):
    for step, names in loaded.items():
        # the pipeline loads at its own step, and nothing else does
        expected = [] if step in STEPS[:3] else list(LAZY)
        assert names == expected, (step, names)


def test_commands_without_characterization_load_no_scipy(commands):
    for command in ("control", "simulate", "breakdown"):
        assert commands[command] == [], command


def test_characterize_command_loads_no_scipy(commands):
    assert commands["characterize"] == list(LAZY)


def test_importing_the_pipeline_keeps_the_default_allocator():
    # the engine's heap policy is process-wide and also speeds any other
    # large FFT, so importing alone must not apply it
    calls = run_fresh(
        "import json; import repro.cli, repro.pipeline; "
        "from repro.power import simulate; "
        "info = simulate._keep_freed_heap.cache_info(); "
        "print(json.dumps(info.hits + info.misses))"
    )
    assert calls == 0


def test_subpackages_load_on_first_use():
    loaded = run_fresh(LAZY_PACKAGE)
    assert loaded["import repro"] is False
    assert loaded["repro.pipeline"] == ["repro.pipeline", True]
    assert loaded["star"] == loaded["all"]
    assert set(loaded["all"]) <= set(loaded["dir"])
    assert "'nope'" in loaded["nope"]


#: Subpackages outside ``repro.__all__`` that a caller may still import
#: first (``repro.scenarios`` once failed on a circular import).
OTHER_SUBPACKAGES = ("kernels", "obs", "scenarios", "serve", "store")


@pytest.mark.parametrize("name", [*repro.__all__, *OTHER_SUBPACKAGES])
def test_each_subpackage_imports_first(name):
    # the first ``repro`` import of a fresh interpreter, so an import
    # cycle that a different first import would hide fails here
    loaded = run_fresh(
        f"import json, sys; import repro.{name}; "
        f"print(json.dumps('repro.{name}' in sys.modules))"
    )
    assert loaded is True
