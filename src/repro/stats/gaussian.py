"""Gaussian model for voltage-level probabilities (§4.1 step 5).

The offline characterization ends by modeling per-cycle voltage as a
Gaussian with estimated mean (the IR drop below Vdd) and estimated variance
(summed per-scale contributions); the probability that the voltage strays
below a control point is then a single normal CDF evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["normal_cdf", "normal_quantile", "GaussianModel"]


def normal_cdf(x: np.ndarray | float) -> np.ndarray | float:
    """Standard normal CDF ``Phi(x)``."""
    from scipy.special import erf

    return 0.5 * (1.0 + erf(np.asarray(x, dtype=float) / np.sqrt(2.0)))


def normal_quantile(p: np.ndarray | float) -> np.ndarray | float:
    """Inverse standard normal CDF."""
    from scipy.special import erfinv

    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile probability must be in (0, 1)")
    return np.sqrt(2.0) * erfinv(2.0 * p - 1.0)


@dataclass(frozen=True)
class GaussianModel:
    """A fitted or estimated Gaussian distribution.

    Used both for the voltage model of §4.1 (mean = Vdd − IR drop,
    variance = summed wavelet-scale contributions) and for the null
    hypothesis of the χ² Gaussianity test.
    """

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError("variance must be non-negative")

    @classmethod
    def fit(cls, samples: np.ndarray) -> "GaussianModel":
        """Moment-match a sample (population variance, as the χ² test uses)."""
        x = np.asarray(samples, dtype=float)
        if x.size < 2:
            raise ValueError("need at least two samples to fit")
        return cls(mean=float(x.mean()), variance=float(x.var()))

    @property
    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.variance))

    def prob_below(self, threshold: float) -> float:
        """P(X < threshold) — e.g. fraction of cycles below the 0.97 V control point."""
        if self.variance == 0.0:
            return 1.0 if threshold > self.mean else 0.0
        return float(normal_cdf((threshold - self.mean) / self.std))

    def prob_above(self, threshold: float) -> float:
        """P(X > threshold) — for the high-voltage control point."""
        return 1.0 - self.prob_below(threshold)

    def prob_outside(self, low: float, high: float) -> float:
        """P(X < low or X > high) — total emergency probability."""
        if high < low:
            raise ValueError("high must be >= low")
        return self.prob_below(low) + self.prob_above(high)

    def quantile(self, p: float) -> float:
        """Value below which a fraction ``p`` of the mass lies."""
        return self.mean + self.std * float(normal_quantile(p))
