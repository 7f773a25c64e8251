"""``fft_convolve`` is bit-identical to ``scipy.signal.fftconvolve``.

The voltage engine and the scale-factor calibration convolve through
this helper so that ``scipy.signal`` stays off the import path; every
pinned output depends on it reproducing SciPy's result exactly, not
just to round-off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from repro.power.simulate import fft_convolve


def _signal(seed: int, shape) -> np.ndarray:
    return np.random.default_rng(seed).normal(40.0, 5.0, shape)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5000),
    m=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_dimensional_matches_scipy(n, m, seed):
    x = _signal(seed, n)
    h = _signal(seed + 1, m)
    got = fft_convolve(x, h)
    assert got.shape == (n + m - 1,)
    assert np.array_equal(got, fftconvolve(x, h))


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 6),
    n=st.integers(1, 3000),
    m=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_dimensional_along_rows_matches_scipy(rows, n, m, seed):
    x = _signal(seed, (rows, n))
    h = _signal(seed + 1, m)[None, :]
    got = fft_convolve(x, h, axis=1)
    assert got.shape == (rows, n + m - 1)
    assert np.array_equal(got, fftconvolve(x, h, axes=1))


@pytest.mark.parametrize("n, m", [(1024, 512), (12288, 512), (32768, 512)])
def test_padded_fft_sizes_match_scipy(n, m):
    # full lengths 1535, 12799 and 33279 are padded to a fast size
    # (33279 -> 33750), and the helper must trim exactly as SciPy does
    full = n + m - 1
    assert next_fast_len(full, real=True) > full
    x = _signal(n, n)
    h = _signal(m, m)
    assert np.array_equal(fft_convolve(x, h), fftconvolve(x, h))


def test_empty_input_matches_scipy():
    h = _signal(0, 8)
    for x, k in ((np.empty(0), h), (h, np.empty(0))):
        got = fft_convolve(x, k)
        assert got.size == 0
        assert np.array_equal(got, fftconvolve(x, k))
