"""Reference backend: the scalar implementations, kept as the oracle.

Every kernel here is either the original call path (wrapped) or a
straightforward per-window / per-cycle loop whose accumulation order
mirrors the pre-dispatch code exactly.  Nothing in this module is meant
to be fast — it is meant to be obviously correct, so the vectorized
backend has something unambiguous to be tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..wavelets import adjacent_correlation, decompose
from ..wavelets.filters import Wavelet
from ..wavelets.transform import wavedec as _wavedec_direct
from ..wavelets.transform import waverec as _waverec_direct
from . import register_kernel

__all__ = ["WindowStats"]


@dataclass(frozen=True)
class WindowStats:
    """Per-window §4.1 statistics for a ``(W, N)`` matrix of windows.

    ``variances[j - 1, k]`` and ``correlations[j - 1, k]`` are the
    level-``j`` wavelet variance and adjacent-coefficient correlation of
    window ``k``; ``means[k]`` is its mean current.  Levels are numbered
    like :mod:`repro.wavelets.transform` (1 = finest detail).
    """

    means: np.ndarray  # (W,)
    variances: np.ndarray  # (level, W)
    correlations: np.ndarray  # (level, W)

    @property
    def level(self) -> int:
        """Number of decomposition levels."""
        return self.variances.shape[0]

    @property
    def windows(self) -> int:
        """Number of windows characterized."""
        return self.means.shape[0]


def check_windows_matrix(windows: np.ndarray, level: int) -> np.ndarray:
    """Shared validation for ``window_stats``: a float ``(W, N)`` matrix."""
    w = np.asarray(windows, dtype=float)
    if w.ndim != 2:
        raise ValueError("windows must be a 2-D (count, window) matrix")
    if level < 0:
        raise ValueError("level must be non-negative")
    n = w.shape[1]
    if level and (n % (1 << level) != 0):
        raise ValueError(
            f"window length {n} does not admit {level} dyadic levels"
        )
    return w


@register_kernel("wavedec", "reference")
def wavedec(x, wavelet: str | Wavelet = "haar", level: int | None = None):
    """The original per-level transform of :mod:`repro.wavelets.transform`."""
    return _wavedec_direct(x, wavelet, level)


@register_kernel("waverec", "reference")
def waverec(coeffs, wavelet: str | Wavelet = "haar"):
    """The original per-level inverse transform."""
    return _waverec_direct(coeffs, wavelet)


@register_kernel("window_stats", "reference")
def window_stats(windows, level: int) -> WindowStats:
    """One decomposition per window, exactly as ``characterize_window``."""
    w = check_windows_matrix(windows, level)
    count, n = w.shape
    means = np.empty(count)
    variances = np.empty((level, count))
    correlations = np.empty((level, count))
    for k in range(count):
        dec = decompose(w[k], "haar", level)
        means[k] = float(w[k].mean())
        for lvl in range(1, level + 1):
            det = dec.detail(lvl)
            variances[lvl - 1, k] = float(np.sum(det**2)) / n
            correlations[lvl - 1, k] = adjacent_correlation(det)
    return WindowStats(means=means, variances=variances, correlations=correlations)


@register_kernel("gaussian_prob_below", "reference")
def gaussian_prob_below(means, variances, threshold: float) -> np.ndarray:
    """One :class:`~repro.stats.GaussianModel` CDF evaluation per window."""
    from ..stats import GaussianModel

    m = np.asarray(means, dtype=float)
    v = np.asarray(variances, dtype=float)
    if m.shape != v.shape:
        raise ValueError("means and variances must have matching shapes")
    return np.array(
        [
            GaussianModel(float(mean), float(var)).prob_below(threshold)
            for mean, var in zip(m.ravel(), v.ravel())
        ]
    ).reshape(m.shape)


@register_kernel("convolver_apply", "reference")
def convolver_apply(convolver, x) -> np.ndarray:
    """Per-cycle truncated wavelet-domain evaluation (the §5.1 loop).

    Re-decomposes the history window every cycle and sums the retained
    ``<DWT(u), DWT(h)>`` terms — the original ``WaveletConvolver.apply``.
    """
    x = np.asarray(x, dtype=float)
    padded = np.concatenate([np.zeros(convolver.window - 1), x])
    out = np.empty(len(x))
    for t in range(len(x)):
        window = padded[t : t + convolver.window][::-1]
        out[t] = convolver.evaluate(window)
    return out


@register_kernel("monitor_estimate_trace", "reference")
def monitor_estimate_trace(monitor, current) -> np.ndarray:
    """The streaming ``observe`` loop, replayed from a zeroed history.

    Does not touch ``monitor``'s live streaming state; like the batch
    interface it answers "what would a freshly-reset monitor emit".
    """
    i = np.asarray(current, dtype=float)
    kernel = monitor.compressed_kernel
    history = np.zeros(monitor.taps)
    out = np.empty(len(i))
    for t in range(len(i)):
        history[1:] = history[:-1]
        history[0] = i[t]
        out[t] = monitor.network.vdd - float(np.dot(history, kernel))
    return out
