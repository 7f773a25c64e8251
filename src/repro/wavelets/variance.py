"""Wavelet variance and adjacent-coefficient correlation.

§4.1 of the paper builds its offline estimator on two statistics of the
detail coefficients:

* the per-scale *wavelet variance* — by Parseval's equation the variance a
  subband contributes to the signal equals the mean of its squared detail
  coefficients, and
* the lag-1 *adjacent-coefficient correlation* per scale — strong positive
  or negative correlation between neighbouring coefficients marks pulse
  trains that can build constructive interference in the supply network.

Confidence intervals follow Serroukh/Walden/Percival (the paper's [19]).
"""

from __future__ import annotations

import numpy as np

from .coefficients import WaveletDecomposition, decompose
from .filters import Wavelet

__all__ = [
    "scale_variance",
    "wavelet_variances",
    "adjacent_correlation",
    "scale_correlations",
    "variance_confidence_interval",
    "total_variance_from_scales",
]


def _decomposition(
    x, wavelet: str | Wavelet = "haar", level: int | None = None
) -> WaveletDecomposition:
    if isinstance(x, WaveletDecomposition):
        return x
    return decompose(x, wavelet, level)


def scale_variance(dec_or_signal, level: int, wavelet: str | Wavelet = "haar") -> float:
    """Variance contributed by one detail scale.

    Parseval: ``var_j = sum_k d[j,k]^2 / N`` where ``N`` is the original
    signal length.  Summed over all detail scales this recovers the total
    variance of the (mean-removed) signal exactly — the identity §4.1
    step 2 relies on.
    """
    dec = _decomposition(dec_or_signal, wavelet)
    det = dec.detail(level)
    return float(np.sum(det**2)) / dec.length


def wavelet_variances(
    dec_or_signal, wavelet: str | Wavelet = "haar", level: int | None = None
) -> dict[int, float]:
    """Per-scale variances for every detail level, keyed by level."""
    dec = _decomposition(dec_or_signal, wavelet, level)
    return {lvl: scale_variance(dec, lvl) for lvl in dec.levels}


def total_variance_from_scales(variances: dict[int, float]) -> float:
    """Sum the per-scale contributions back into a total signal variance."""
    return float(sum(variances.values()))


def adjacent_correlation(coefficients: np.ndarray) -> float:
    """Lag-1 autocorrelation of a coefficient row (§4.1 step 3).

    Returns 0 for rows too short or too flat to define a correlation, which
    is the neutral value for the voltage-variance model (no resonant pulse
    pattern detected).
    """
    c = np.asarray(coefficients, dtype=float)
    if c.size < 3:
        return 0.0
    a, b = c[:-1], c[1:]
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    corr = float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))
    # Guard against numerical overshoot.
    return float(np.clip(corr, -1.0, 1.0))


def scale_correlations(
    dec_or_signal, wavelet: str | Wavelet = "haar", level: int | None = None
) -> dict[int, float]:
    """Adjacent-coefficient correlation for every detail level."""
    dec = _decomposition(dec_or_signal, wavelet, level)
    return {lvl: adjacent_correlation(dec.detail(lvl)) for lvl in dec.levels}


def variance_confidence_interval(
    detail: np.ndarray, confidence: float = 0.95
) -> tuple[float, float]:
    """Chi-squared confidence interval for a subband's variance estimate.

    Treats the ``M`` detail coefficients of a scale as approximately
    independent Gaussians (exact under the Gaussian-window model of §4.1),
    so ``M * var_hat / var ~ chi2(M)``.
    """
    from scipy.stats import chi2

    d = np.asarray(detail, dtype=float)
    m = d.size
    if m < 2:
        raise ValueError("need at least two coefficients")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    est = float(np.mean(d**2))
    alpha = 1.0 - confidence
    lo_q = chi2.ppf(1.0 - alpha / 2.0, df=m)
    hi_q = chi2.ppf(alpha / 2.0, df=m)
    return m * est / lo_q, m * est / hi_q
