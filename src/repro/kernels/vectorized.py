"""Vectorized backend: NumPy block implementations of the hot kernels.

Three ideas carry every speedup here:

* the periodized **Haar** transform is a strided reshape-and-sum — one
  ``(n/2, 2)`` view plus two elementwise ops per level, with the
  orthonormal ``2^{-j/2}`` scaling deferred to one multiply per output
  row instead of one per intermediate;
* anything done per 256-cycle window can be done for **every window of
  a trace at once** by tiling the trace into a ``(W, 256)`` matrix and
  running the same reshape trick along the last axis (all reductions
  are row-local, so each row's result is bit-identical to processing it
  alone — which is what keeps the streaming aggregators exact);
* the truncated wavelet monitor **is an FIR filter** with the compressed
  kernel ``IDWT(truncate(DWT(h)))``, so a whole trace is one
  direct-or-FFT convolution instead of a per-cycle decomposition.

Non-Haar bases fall back to the reference transform (the gather/matmul
path of :mod:`repro.wavelets.transform`): the paper's pipeline is
Haar-end-to-end, and a generic filter bank gains little from the
reshape trick.
"""

from __future__ import annotations

import numpy as np

from ..wavelets.filters import Wavelet, get_wavelet
from ..wavelets.transform import max_level
from ..wavelets.transform import wavedec as _wavedec_direct
from ..wavelets.transform import waverec as _waverec_direct
from . import register_kernel
from .reference import WindowStats, check_windows_matrix

_SQRT2 = np.sqrt(2.0)


def _is_haar(wavelet: str | Wavelet) -> bool:
    return get_wavelet(wavelet).name == "haar"


def _resolve_level(n: int, wavelet: str | Wavelet, level: int | None) -> int:
    limit = max_level(n, wavelet)
    if level is None:
        return limit
    if level < 0:
        raise ValueError("level must be non-negative")
    if level > limit:
        raise ValueError(
            f"level {level} too deep for signal of length {n} (max {limit})"
        )
    return level


@register_kernel("wavedec", "vectorized")
def wavedec(x, wavelet: str | Wavelet = "haar", level: int | None = None):
    """Haar multilevel DWT as reshape-and-sum with deferred scaling."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D signal")
    if not _is_haar(wavelet):
        return _wavedec_direct(x, wavelet, level)
    level = _resolve_level(len(x), wavelet, level)
    details: list[np.ndarray] = []
    sums = x  # running pair sums; orthonormal scale applied per output row
    for j in range(1, level + 1):
        pairs = sums.reshape(-1, 2)
        even, odd = pairs[:, 0], pairs[:, 1]
        details.append((even - odd) * 2.0 ** (-j / 2.0))
        sums = even + odd
    return [sums * 2.0 ** (-level / 2.0)] + details[::-1]


@register_kernel("waverec", "vectorized")
def waverec(coeffs, wavelet: str | Wavelet = "haar"):
    """Inverse Haar DWT by interleaving sum/difference halves."""
    if not coeffs:
        raise ValueError("empty coefficient list")
    if not _is_haar(wavelet):
        return _waverec_direct(coeffs, wavelet)
    approx = np.asarray(coeffs[0], dtype=float)
    if approx.ndim != 1:
        raise ValueError("expected a 1-D signal")
    for det in coeffs[1:]:
        d = np.asarray(det, dtype=float)
        if d.shape != approx.shape:
            raise ValueError("approximation and detail must have equal length")
        out = np.empty(2 * approx.size)
        out[0::2] = approx + d
        out[1::2] = approx - d
        approx = out / _SQRT2
    return approx


def batched_haar_details(windows: np.ndarray, level: int):
    """Yield per-level orthonormal detail matrices for ``(W, N)`` rows.

    Level ``j``'s matrix has shape ``(W, N / 2**j)``; every reduction is
    along the last axis, so row ``k`` equals the 1-D transform of row
    ``k`` alone to float round-off.
    """
    sums = windows
    for j in range(1, level + 1):
        pairs = sums.reshape(sums.shape[0], -1, 2)
        even, odd = pairs[..., 0], pairs[..., 1]
        yield (even - odd) * 2.0 ** (-j / 2.0)
        sums = even + odd


def _batched_adjacent_correlation(details: np.ndarray) -> np.ndarray:
    """Row-wise lag-1 autocorrelation with the reference's guards."""
    count, m = details.shape
    if m < 3:
        return np.zeros(count)
    a, b = details[:, :-1], details[:, 1:]
    sa, sb = a.std(axis=1), b.std(axis=1)
    cov = ((a - a.mean(axis=1, keepdims=True))
           * (b - b.mean(axis=1, keepdims=True))).mean(axis=1)
    corr = np.zeros(count)
    ok = (sa != 0.0) & (sb != 0.0)
    corr[ok] = cov[ok] / (sa[ok] * sb[ok])
    return np.clip(corr, -1.0, 1.0)


@register_kernel("window_stats", "vectorized")
def window_stats(windows, level: int) -> WindowStats:
    """All windows of a trace in one 2-D pass (§4.1 steps 1-3, batched)."""
    w = check_windows_matrix(windows, level)
    count, n = w.shape
    variances = np.empty((level, count))
    correlations = np.empty((level, count))
    for j, details in enumerate(batched_haar_details(w, level), start=1):
        variances[j - 1] = np.sum(details**2, axis=1) / n
        correlations[j - 1] = _batched_adjacent_correlation(details)
    return WindowStats(
        means=w.mean(axis=1), variances=variances, correlations=correlations
    )


@register_kernel("gaussian_prob_below", "vectorized")
def gaussian_prob_below(means, variances, threshold: float) -> np.ndarray:
    """Emergency fraction for every window at once (§4.1 step 5)."""
    from scipy.special import erf

    m = np.asarray(means, dtype=float)
    v = np.asarray(variances, dtype=float)
    if m.shape != v.shape:
        raise ValueError("means and variances must have matching shapes")
    if np.any(v < 0.0):
        raise ValueError("variance must be non-negative")
    probs = np.empty(m.shape)
    degenerate = v == 0.0
    probs[degenerate] = (threshold > m[degenerate]).astype(float)
    live = ~degenerate
    z = (threshold - m[live]) / np.sqrt(v[live])
    probs[live] = 0.5 * (1.0 + erf(z / _SQRT2))
    return probs


@register_kernel("convolver_apply", "vectorized")
def convolver_apply(convolver, x) -> np.ndarray:
    """The K-term subband convolution as one whole-trace FIR application.

    The retained terms reconstruct to a compressed impulse response
    (``IDWT(truncate(DWT(h)))``), so the §5.1 per-cycle inner product
    over a trace is exactly a causal convolution with that FIR —
    ``scipy.signal.convolve`` picks direct or FFT by size.
    """
    from scipy.signal import convolve

    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return np.empty(0)
    fir = convolver.compressed_fir()
    return convolve(x, fir, method="auto")[: len(x)]


@register_kernel("monitor_estimate_trace", "vectorized")
def monitor_estimate_trace(monitor, current) -> np.ndarray:
    """Whole-trace voltage estimate via one compressed-kernel convolution."""
    from scipy.signal import convolve

    i = np.asarray(current, dtype=float)
    if i.size == 0:
        return np.empty(0)
    droop = convolve(i, monitor.compressed_kernel, method="auto")[: len(i)]
    return monitor.network.vdd - droop
