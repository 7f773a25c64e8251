"""One voltage engine per network per process.

``_stage_voltage`` takes its :class:`~repro.power.ConvolutionVoltageSimulator`
from the per-process memo in ``StageContext``, so jobs of one network and
one trace length transform the supply kernel once, not once per job, and
their voltage artifacts are exactly those of a fresh engine per job.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import calibrated_supply
from repro.pipeline import BatchOptions, build_store_jobs, stages, submit
from repro.power import ConvolutionVoltageSimulator
from repro.store import TraceStore

JOBS = 6
SAMPLES = 8192


@pytest.fixture
def specs(tmp_path):
    store = TraceStore(str(tmp_path / "store"), mode="a")
    rng = np.random.default_rng(7)
    for k in range(JOBS):
        trace = rng.normal(40.0, 5.0, SAMPLES).astype(np.float32)
        store.ingest(trace, f"noise{k}")
    specs = build_store_jobs(store, calibrated_supply(150))
    assert len(specs) == JOBS
    return specs


@pytest.fixture
def no_engines(monkeypatch):
    """The shared memo without any voltage engine (estimators kept)."""
    kept = {k: v for k, v in stages._SHARED.items() if k[0] != "voltage"}
    monkeypatch.setattr(stages, "_SHARED", kept)


def _voltages(batch) -> list[dict]:
    assert batch.ok
    return [outcome.artifacts["voltage"] for outcome in batch.outcomes]


def test_one_engine_serves_every_job(specs, no_engines, monkeypatch):
    taps = ConvolutionVoltageSimulator(specs[0].resolve_network()).taps
    kernel_transforms = []
    rfft = np.fft.rfft

    def counting(x, *args, **kwargs):
        if len(x) == taps:
            kernel_transforms.append(len(x))
        return rfft(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    obs.enable("summary")
    try:
        shared = _voltages(submit(specs, BatchOptions(jobs=1)))
        builds = obs.registry().counter(
            "pipeline_voltage_engine_builds_total"
        ).value()
    finally:
        obs.disable()
    assert builds == 1
    assert len(kernel_transforms) == 1

    # a fresh engine per job gives the same artifacts, bit for bit
    monkeypatch.setattr(
        stages.StageContext,
        "voltage_engine",
        property(lambda ctx: ConvolutionVoltageSimulator(ctx.network)),
    )
    fresh = _voltages(submit(specs, BatchOptions(jobs=1)))
    assert len(kernel_transforms) == 1 + JOBS
    assert shared == fresh
    assert [set(v) for v in shared] == [
        {"observed", "min_voltage", "mean_voltage", "settled_cycles"}
    ] * JOBS
