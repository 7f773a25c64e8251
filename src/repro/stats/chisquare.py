"""Chi-squared goodness-of-fit test for Gaussianity (§4.1, Figures 6 & 12).

The paper classifies execution windows as Gaussian using "the Chi-Squared
Goodness of Fit test with 95 % significance ... for a normal distribution
with the same mean and variance as the sample window data" (Kreyszig).
Implemented here from scratch: equal-probability binning under the fitted
normal, Pearson statistic, and comparison against the chi-squared critical
value with ``bins - 1 - 2`` degrees of freedom (two fitted parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianModel, normal_quantile

__all__ = ["ChiSquareResult", "chi_square_gaussian_test", "is_gaussian_window"]


@dataclass(frozen=True)
class ChiSquareResult:
    """Outcome of one goodness-of-fit test."""

    statistic: float
    critical: float
    dof: int
    bins: int
    accepted: bool  # True = Gaussianity not rejected at the significance level
    degenerate: bool  # True = window too flat to test (classified non-Gaussian)


def _bin_count(n: int) -> int:
    """Bin count rule: ~n/8 equal-probability bins, clamped to [4, 16].

    Keeps expected counts >= ~4 per bin for the window sizes the paper
    uses (32/64/128/256 cycles), as the classic validity rule requires.
    """
    return int(np.clip(n // 8, 4, 16))


def chi_square_gaussian_test(
    samples: np.ndarray,
    significance: float = 0.95,
    bins: int | None = None,
) -> ChiSquareResult:
    """Test a window of per-cycle samples against a fitted normal.

    Parameters
    ----------
    samples:
        The window data (e.g. 64 per-cycle current values).
    significance:
        Confidence level; 0.95 reproduces the paper's setting.
    bins:
        Number of equal-probability bins; default per :func:`_bin_count`.

    Notes
    -----
    Windows whose variance is (numerically) zero cannot be binned; they are
    reported ``degenerate`` and *not accepted* — consistent with the
    paper's finding that the non-Gaussian remainder consists of very
    low-variance windows.
    """
    from scipy.stats import chi2

    x = np.asarray(samples, dtype=float)
    if x.size < 16:
        raise ValueError("window too small for a meaningful chi-square test")
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must be in (0, 1)")
    k = _bin_count(x.size) if bins is None else bins
    if k < 3:
        raise ValueError("need at least 3 bins")

    spread = float(x.std())
    scale = max(1.0, float(np.abs(x).max()))
    if spread < 1e-12 * scale:
        return ChiSquareResult(
            statistic=float("inf"),
            critical=0.0,
            dof=max(1, k - 3),
            bins=k,
            accepted=False,
            degenerate=True,
        )

    model = GaussianModel.fit(x)
    # Equal-probability bin edges under the fitted normal.
    qs = np.arange(1, k) / k
    edges = model.mean + model.std * np.asarray(normal_quantile(qs))
    observed = np.histogram(x, bins=np.concatenate([[-np.inf], edges, [np.inf]]))[0]
    expected = x.size / k
    statistic = float(np.sum((observed - expected) ** 2) / expected)

    dof = max(1, k - 1 - 2)  # two parameters estimated from the sample
    critical = float(chi2.ppf(significance, df=dof))
    return ChiSquareResult(
        statistic=statistic,
        critical=critical,
        dof=dof,
        bins=k,
        accepted=statistic <= critical,
        degenerate=False,
    )


def is_gaussian_window(samples: np.ndarray, significance: float = 0.95) -> bool:
    """Convenience predicate used by the characterization pipeline."""
    return chi_square_gaussian_test(samples, significance).accepted
