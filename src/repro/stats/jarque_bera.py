"""Jarque–Bera normality test (robustness companion to the χ² test).

The paper classifies windows with a chi-squared goodness-of-fit test; a
reasonable referee question is whether the Gaussian-window findings
depend on that choice.  The Jarque–Bera statistic tests the same null
through a different lens — sample skewness and excess kurtosis:

    JB = n/6 * (S^2 + K^2/4)  ~  chi2(2) under normality.

The Figure-6 bench reports both tests' acceptance rates side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["JarqueBeraResult", "jarque_bera_test"]


@dataclass(frozen=True)
class JarqueBeraResult:
    """Outcome of one Jarque–Bera normality test."""

    statistic: float
    critical: float
    skewness: float
    excess_kurtosis: float
    accepted: bool
    degenerate: bool


def jarque_bera_test(
    samples: np.ndarray, significance: float = 0.95
) -> JarqueBeraResult:
    """Test a sample against normality via skewness/kurtosis.

    Flat (zero-variance) windows are reported ``degenerate`` and not
    accepted, mirroring the χ² implementation so the two are directly
    comparable on the same window population.
    """
    from scipy.stats import chi2

    x = np.asarray(samples, dtype=float)
    if x.size < 8:
        raise ValueError("need at least 8 samples")
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must be in (0, 1)")
    n = x.size
    centred = x - x.mean()
    m2 = float(np.mean(centred**2))
    scale = max(1.0, float(np.abs(x).max()))
    if m2 < (1e-12 * scale) ** 2:
        return JarqueBeraResult(
            statistic=float("inf"),
            critical=0.0,
            skewness=0.0,
            excess_kurtosis=0.0,
            accepted=False,
            degenerate=True,
        )
    m3 = float(np.mean(centred**3))
    m4 = float(np.mean(centred**4))
    skew = m3 / m2**1.5
    kurt = m4 / m2**2 - 3.0
    statistic = n / 6.0 * (skew**2 + kurt**2 / 4.0)
    critical = float(chi2.ppf(significance, df=2))
    return JarqueBeraResult(
        statistic=statistic,
        critical=critical,
        skewness=skew,
        excess_kurtosis=kurt,
        accepted=statistic <= critical,
        degenerate=False,
    )
