"""The voltage engine is bit-identical to ``fft_convolve``.

``ConvolutionVoltageSimulator`` keeps its kernel's spectrum for the last
FFT size it used and transforms only the trace, in one zero-padded
float64 buffer.  Every pinned voltage depends on that giving exactly
``vdd - fft_convolve(trace, kernel)[:n]``, so these tests compare with
``np.array_equal``, never a tolerance.
"""

import numpy as np
import pytest
import scipy.fft

from repro.core import calibrated_supply
from repro.power import ConvolutionVoltageSimulator
from repro.power.simulate import fft_convolve, next_fast_len

PERCENTS = (100, 150, 200)
DTYPES = (np.float32, np.float64, np.int64)


@pytest.fixture(scope="module", params=PERCENTS, ids=lambda p: f"{p}pct")
def engine(request):
    return ConvolutionVoltageSimulator(calibrated_supply(request.param))


def _trace(n: int, dtype) -> np.ndarray:
    x = np.random.default_rng(n).normal(40.0, 5.0, n)
    return x.astype(dtype)


def _expected(engine, x) -> np.ndarray:
    droop = fft_convolve(np.asarray(x, dtype=float), engine.kernel)
    return engine.network.vdd - droop[: len(x)]


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("n", [1, 2, "taps-1", 4096, 32768, 2**20, 1_000_003])
def test_voltage_matches_fft_convolve(engine, n, dtype):
    if n == "taps-1":
        n = engine.taps - 1
    x = _trace(n, dtype)
    got = engine.voltage(x)
    assert got.shape == (n,)
    assert np.array_equal(got, _expected(engine, x))


def test_alternating_sizes_never_reuse_a_stale_spectrum():
    engine = ConvolutionVoltageSimulator(calibrated_supply(150))
    for n in (4096, 32768, 4096, 1_000_003, 4097, 2**20, 4096):
        x = _trace(n, np.float64)
        assert np.array_equal(engine.voltage(x), _expected(engine, x)), n


def test_kernel_is_transformed_once_per_fft_size(monkeypatch):
    engine = ConvolutionVoltageSimulator(calibrated_supply(150))
    calls = []
    rfft = np.fft.rfft

    def counting(x, *args, **kwargs):
        calls.append(len(x))
        return rfft(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    for seed in range(3):
        engine.voltage(np.random.default_rng(seed).normal(40.0, 5.0, 8192))
    # three trace transforms and one kernel transform
    assert sorted(calls) == [engine.taps] + [next_fast_len(8192 + engine.taps - 1)] * 3


def test_input_is_not_modified():
    engine = ConvolutionVoltageSimulator(calibrated_supply(150))
    x = _trace(32768, np.float64)
    before = x.copy()
    engine.voltage(x)
    assert np.array_equal(x, before)


def test_two_dimensional_input_raises():
    engine = ConvolutionVoltageSimulator(calibrated_supply(150))
    with pytest.raises(ValueError):
        engine.voltage(np.zeros((2, 2)))


def test_next_fast_len_is_scipys_real_good_size():
    sizes = [*range(1, 2**18 + 1), 1536, 4608, 12800, 33750, 1_049_760]
    ours = [next_fast_len(n) for n in sizes]
    assert ours == [scipy.fft.next_fast_len(n, real=True) for n in sizes]
