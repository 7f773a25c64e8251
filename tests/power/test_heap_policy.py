"""The voltage engine keeps the heap its transforms free.

Building a :class:`ConvolutionVoltageSimulator` sets glibc's mmap and
trim thresholds once per process, so a 1M-sample trace reuses the
buffers the previous trace freed instead of mapping and zeroing about
32 MB again.  Where the C library has no ``mallopt`` the engine builds
and computes exactly as before.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import calibrated_supply
from repro.power import ConvolutionVoltageSimulator
from repro.power import simulate
from repro.power.simulate import fft_convolve

HAS_MALLOPT = hasattr(simulate._libc(), "mallopt")


@pytest.mark.skipif(not HAS_MALLOPT, reason="the C library has no mallopt")
def test_a_second_1m_trace_faults_in_no_fresh_buffers():
    import resource

    def faults() -> int:
        # this thread only: droop runs its transforms on the caller
        return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt

    engine = ConvolutionVoltageSimulator(calibrated_supply(150))
    x = np.random.default_rng(0).normal(40.0, 5.0, 1 << 20)
    engine.droop(x)  # the heap grows to the call's working size once
    before = faults()
    engine.droop(x)
    # about 8 100 when glibc unmaps the freed buffers after every call
    assert faults() - before < 500


@pytest.fixture
def libc(monkeypatch):
    """Install a stand-in C library for the engine's allocator policy,
    with the once-per-process call forgotten before and after."""

    def install(fake) -> None:
        monkeypatch.setattr(simulate, "_libc", lambda: fake)
        simulate._keep_freed_heap.cache_clear()

    yield install
    simulate._keep_freed_heap.cache_clear()


def test_two_engines_set_each_threshold_once(libc):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc(SimpleNamespace(mallopt=mallopt))
    network = calibrated_supply(150)
    ConvolutionVoltageSimulator(network)
    ConvolutionVoltageSimulator(network)
    # M_MMAP_THRESHOLD (-3) at 32 MiB, M_TRIM_THRESHOLD (-1) at 64 MiB
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize(
    "fake",
    [None, SimpleNamespace(), SimpleNamespace(mallopt=lambda param, value: 0)],
    ids=["no-libc", "no-mallopt", "refused"],
)
def test_without_the_policy_the_engine_is_unchanged(libc, fake):
    libc(fake)
    engine = ConvolutionVoltageSimulator(calibrated_supply(150))
    x = np.random.default_rng(1).normal(40.0, 5.0, 32768)
    droop = fft_convolve(x, engine.kernel)[: len(x)]
    assert np.array_equal(engine.voltage(x), engine.network.vdd - droop)
