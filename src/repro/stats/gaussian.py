"""Gaussian model for voltage-level probabilities (§4.1 step 5).

The offline characterization ends by modeling per-cycle voltage as a
Gaussian with estimated mean (the IR drop below Vdd) and estimated variance
(summed per-scale contributions); the probability that the voltage strays
below a control point is then a single normal CDF evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["normal_cdf", "normal_quantile", "GaussianModel"]

# Cephes ``ndtr.c`` coefficients, as compiled into ``scipy.special.erf``.
# ``erf`` is ``x * polevl(x*x, T) / p1evl(x*x, U)`` for ``|x| <= 1``;
# ``erfc`` is ``exp(-x*x) * polevl(x, P) / p1evl(x, Q)`` below 8 and the
# same with ``R``/``S`` from 8 on.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
#: cephes ``MAXLOG``: ``erfc`` underflows to 0 once ``x*x`` exceeds it.
_MAXLOG = 7.09782712893383996843e2


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule from the leading coefficient."""
    acc = x * coef[0]
    acc += coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes ``p1evl``: :func:`_polevl` with an implicit leading 1.0."""
    acc = x + coef[0]
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _erfc_tail(a: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` for ``a > 1``, ``inf`` and ``nan``."""
    with np.errstate(over="ignore"):
        sq = a * a
    # nan stays live and propagates; inf and x*x > MAXLOG underflow to 0
    live = ~(sq > _MAXLOG)
    if not live.all():
        y = np.zeros(a.shape)
        y[live] = _erfc_tail(a[live])
        return y
    # ``exp(-x*x)`` from the C library, as cephes calls it: NumPy's SIMD
    # ``exp`` differs from it in the last bit on some hosts
    y = np.fromiter(map(math.exp, (-sq).tolist()), float, a.size)
    near = a < 8.0
    if near.all():
        y *= _polevl(a, _P)
        y /= _p1evl(a, _Q)
        return y
    for branch, num, den in ((near, _P, _Q), (~near, _R, _S)):
        ab = a[branch]
        y[branch] = y[branch] * _polevl(ab, num) / _p1evl(ab, den)
    return y


def _erf(x) -> np.ndarray:
    """``scipy.special.erf`` bit for bit, in NumPy: a port of cephes' ``erf``.

    For ``|x| <= 1`` the rational polynomial ``x T(x²) / U(x²)``; above
    it ``±(1 - erfc(|x|))``.  Each element is evaluated on its own
    branch only.  Checked element for element against SciPy in
    ``tests/stats/test_erf_port.py``.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    small = a <= 1.0
    out = np.empty(x.shape)
    if small.any():
        # on the signed x: -erf(-x) gives the same bits, and -0.0 stays -0.0
        xs = x[small]
        z = xs * xs
        out[small] = xs * _polevl(z, _T) / _p1evl(z, _U)
    tail = ~small
    if tail.any():
        out[tail] = np.copysign(1.0 - _erfc_tail(a[tail]), x[tail])
    return out


def normal_cdf(x: np.ndarray | float) -> np.ndarray | float:
    """Standard normal CDF ``Phi(x)``."""
    cdf = 0.5 * (1.0 + _erf(np.asarray(x, dtype=float) / np.sqrt(2.0)))
    return cdf if cdf.ndim else cdf[()]


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
