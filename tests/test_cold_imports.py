"""No cold path imports ``scipy.signal``, ``scipy.stats`` or ``scipy.sparse``.

Those three packages cost over a second to import and none of them is
needed to characterize a benchmark, rescan a stored trace or run the
closed loop.  A fresh interpreter imports the CLI, then runs each cold
path in process, and reports which of the three are in ``sys.modules``
after every step.  The gate is deterministic: it counts modules, never
seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.signal", "scipy.stats", "scipy.sparse")

PROGRAM = """
import json
import sys

HEAVY = {heavy!r}
root = sys.argv[1]
loaded = {{}}


def check(step):
    loaded[step] = [name for name in HEAVY if name in sys.modules]


import repro.cli

check("import repro.cli")

import numpy as np

from repro.core import (
    ThresholdController,
    WaveletVoltageMonitor,
    calibrated_supply,
    run_control_experiment,
)
from repro.pipeline import (
    BatchOptions,
    build_characterization_jobs,
    build_store_jobs,
    submit,
)
from repro.store import TraceStore

network = calibrated_supply(150)
check("calibrated_supply")

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


def factory():
    return ThresholdController(WaveletVoltageMonitor(network, terms=13), network, 0.01)


run_control_experiment("gzip", network, factory, cycles=2048, warmup_cycles=256)
check("control experiment")
print(json.dumps(loaded))
"""


def test_cold_paths_leave_heavy_scipy_unimported(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM.format(heavy=HEAVY), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(loaded) == [
        "import repro.cli",
        "calibrated_supply",
        "characterization job",
        "store job",
        "control experiment",
    ]
    assert loaded == {step: [] for step in loaded}
