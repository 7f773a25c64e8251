"""Offline wavelet-variance voltage characterization (§4.1-4.2).

The paper's five-step method, executably:

1. DWT a 256-cycle current window (Haar, 8 levels).
2. Per-scale wavelet variance via Parseval.
3. Adjacent-coefficient correlation per scale (pulse-pattern detector).
4. Voltage-variance contribution per scale = calibrated multiplicative
   factor (a function of the correlation) times the scale's variance.
5. Gaussian model with mean = Vdd − IR drop and the summed variance gives
   the probability of crossing any voltage control point.

Aggregating window probabilities over a whole trace predicts the fraction
of cycles a benchmark spends below the 0.97 V control point — Figure 9's
estimate, checked against the convolution-simulated truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import get_kernel
from ..obs import trace as obs
from ..power import ConvolutionVoltageSimulator, PowerSupplyNetwork
from ..stats import GaussianModel
from ..wavelets import (
    adjacent_correlation,
    decompose,
)
from .calibration import ScaleFactorModel, calibrate_scale_factors

__all__ = [
    "WindowCharacterization",
    "WaveletVoltageEstimator",
    "TracePrediction",
    "predict_trace",
]

WINDOW = 256  # the paper's characterization window (§4.1 step 1)


def _levels_for_window(window: int) -> int:
    """Full decomposition depth of a power-of-two window."""
    if window < 4 or window & (window - 1):
        raise ValueError("window must be a power of two >= 4")
    return window.bit_length() - 1


@dataclass(frozen=True)
class WindowCharacterization:
    """The §4.1 outputs for one 256-cycle window."""

    mean_current: float
    scale_variances: dict[int, float]
    scale_correlations: dict[int, float]
    voltage_model: GaussianModel

    def prob_below(self, threshold: float) -> float:
        """Probability a cycle in this window sits below ``threshold``."""
        return self.voltage_model.prob_below(threshold)

    def prob_above(self, threshold: float) -> float:
        """Probability a cycle in this window sits above ``threshold``."""
        return self.voltage_model.prob_above(threshold)


class WaveletVoltageEstimator:
    """The offline estimator for one supply network.

    Parameters
    ----------
    network:
        Supply model (must match the one used to simulate "truth").
    levels:
        Decomposition depth; must fully decompose the window.
    keep_levels:
        If given, only these scales contribute variance — the Figure-8
        level-truncation experiment.  ``None`` uses all scales.
    window:
        Characterization window in cycles (power of two).  The paper uses
        256 "because it could capture current variations on the range of
        tens to hundreds of cycles"; the window-size ablation sweeps this.
    """

    def __init__(
        self,
        network: PowerSupplyNetwork,
        levels: int | None = None,
        keep_levels: set[int] | None = None,
        factors: ScaleFactorModel | None = None,
        window: int = WINDOW,
    ) -> None:
        self.window = window
        full_depth = _levels_for_window(window)
        if levels is None:
            levels = full_depth
        if levels != full_depth:
            raise ValueError(
                f"levels must fully decompose the {window}-cycle window "
                f"({full_depth})"
            )
        self.network = network
        self.levels = levels
        self.factors = factors or calibrate_scale_factors(network, levels)
        if keep_levels is not None:
            bad = [lvl for lvl in keep_levels if not 1 <= lvl <= levels]
            if bad:
                raise ValueError(f"keep_levels out of range: {bad}")
        self.keep_levels = keep_levels

    def top_levels(self, count: int) -> set[int]:
        """The ``count`` scales with the largest voltage impact.

        §4.1: "voltage variance on different wavelet decomposition levels
        often differs by orders of magnitude", so a handful of levels
        carries nearly all of it.
        """
        return set(self.factors.ranked_levels()[:count])

    # -- batched window evaluation (the kernel-dispatch hot path) ---------------

    def tile_windows(self, current: np.ndarray) -> np.ndarray:
        """The trace as a ``(count, window)`` matrix of full windows.

        Non-overlapping tiling with the trailing partial window dropped
        — the same convention every whole-trace method (and the
        streaming aggregators) use.  Raises if no full window fits.
        """
        i = np.asarray(current, dtype=float)
        count = len(i) // self.window
        if count == 0:
            raise ValueError(
                f"trace shorter than one {self.window}-cycle window"
            )
        return i[: count * self.window].reshape(count, self.window)

    def _window_stats(self, windows: np.ndarray):
        """Steps 1-3 for a ``(W, window)`` matrix via the active kernel."""
        return get_kernel("window_stats")(
            np.asarray(windows, dtype=float), self.levels
        )

    def voltage_params_from(self, stats) -> tuple[np.ndarray, np.ndarray]:
        """Per-window Gaussian (mean, variance) from batched statistics.

        Pure elementwise NumPy on a :class:`~repro.kernels.WindowStats`,
        so it is the same under every kernel backend.
        """
        v_var = np.zeros(stats.windows)
        for lvl in range(1, self.levels + 1):
            if self.keep_levels is not None and lvl not in self.keep_levels:
                continue
            v_var += (
                self.factors.factor_array(lvl, stats.correlations[lvl - 1])
                * stats.variances[lvl - 1]
            )
        mean_v = self.network.vdd - stats.means * self.network.dc_resistance
        return mean_v, v_var

    def contribution_terms_from(self, stats) -> np.ndarray:
        """Per-(level, window) voltage-variance terms from batched stats."""
        terms = np.empty((self.levels, stats.windows))
        for lvl in range(1, self.levels + 1):
            terms[lvl - 1] = (
                self.factors.factor_array(lvl, stats.correlations[lvl - 1])
                * stats.variances[lvl - 1]
            )
        return terms

    def window_voltage_params(
        self, windows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gaussian-model (mean, variance) for every window row (§4.1 1-4).

        One ``window_stats`` kernel call covers steps 1-3 for all rows;
        the calibrated factors then turn per-scale current variance into
        voltage variance, honouring ``keep_levels``.  Row ``k`` matches
        :meth:`characterize_window` on ``windows[k]`` to float round-off
        (exactly, on the reference backend).
        """
        return self.voltage_params_from(self._window_stats(windows))

    def window_probs_below(
        self, windows: np.ndarray, threshold: float
    ) -> np.ndarray:
        """Per-window probability of sitting below ``threshold`` (step 5)."""
        mean_v, v_var = self.window_voltage_params(windows)
        return get_kernel("gaussian_prob_below")(mean_v, v_var, threshold)

    def window_contribution_terms(self, windows: np.ndarray) -> np.ndarray:
        """Per-(level, window) voltage-variance terms, shape ``(levels, W)``.

        ``terms[j - 1, k]`` is level ``j``'s contribution in window
        ``k`` — the quantity :meth:`level_contributions` averages.
        """
        return self.contribution_terms_from(self._window_stats(windows))

    def characterize_blocks(
        self, blocks, threshold: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probabilities and contribution terms for every window of ``blocks``.

        What the ``characterize`` pipeline stage wants: both outputs of
        the §4.1 analysis without decomposing every window twice.
        ``blocks`` is an iterable of ``(W, window)`` matrices (one
        trace, streamed).  Each block gets one stats pass; the Gaussian
        step then runs once over every window, so its per-call cost is
        paid once per trace, not once per block.  Results are
        bit-identical to :meth:`window_probs_below` and
        :meth:`window_contribution_terms` on each block, concatenated.
        Returns empty arrays when ``blocks`` is empty.
        """
        means, variances, terms = [], [], []
        for windows in blocks:
            stats = self._window_stats(windows)
            mean_v, v_var = self.voltage_params_from(stats)
            means.append(mean_v)
            variances.append(v_var)
            terms.append(self.contribution_terms_from(stats))
        if not terms:
            return np.empty(0), np.empty((self.levels, 0))
        probs = get_kernel("gaussian_prob_below")(
            np.concatenate(means), np.concatenate(variances), threshold
        )
        return probs, np.concatenate(terms, axis=1)

    def level_contributions(self, current: np.ndarray) -> dict[int, float]:
        """Mean per-level voltage-variance contribution over a trace.

        The basis for level truncation: §4.1 ignores "those wavelet
        levels that have small impact while estimating voltage variance".
        """
        windows = self.tile_windows(current)
        count = windows.shape[0]
        with obs.span(
            "characterize.level_contributions", windows=count
        ):
            terms = self.window_contribution_terms(windows)
        totals = terms.sum(axis=1)
        contributions = {
            lvl: float(totals[lvl - 1]) / count
            for lvl in range(1, self.levels + 1)
        }
        if obs.ENABLED:
            for lvl, contribution in contributions.items():
                obs.gauge_set(
                    "characterize_level_contribution",
                    contribution,
                    "per-scale voltage-variance contribution of the last trace",
                    level=str(lvl),
                )
        return contributions

    def top_levels_for(self, current: np.ndarray, count: int) -> set[int]:
        """The ``count`` levels contributing most voltage variance on a trace."""
        contrib = self.level_contributions(current)
        ranked = sorted(contrib, key=lambda lvl: -contrib[lvl])
        return set(ranked[:count])

    def characterize_window(self, window: np.ndarray) -> WindowCharacterization:
        """Run steps 1-5 on one 256-cycle current window."""
        w = np.asarray(window, dtype=float)
        if w.shape != (self.window,):
            raise ValueError(
                f"window must have exactly {self.window} samples"
            )
        dec = decompose(w, "haar", self.levels)
        variances: dict[int, float] = {}
        correlations: dict[int, float] = {}
        v_var = 0.0
        for lvl in dec.levels:
            det = dec.detail(lvl)
            var = float(np.sum(det**2)) / self.window
            rho = adjacent_correlation(det)
            variances[lvl] = var
            correlations[lvl] = rho
            if self.keep_levels is None or lvl in self.keep_levels:
                v_var += self.factors.factor(lvl, rho) * var
        mean_i = float(w.mean())
        mean_v = self.network.vdd - mean_i * self.network.dc_resistance
        return WindowCharacterization(
            mean_current=mean_i,
            scale_variances=variances,
            scale_correlations=correlations,
            voltage_model=GaussianModel(mean_v, v_var),
        )

    # -- whole-trace aggregation ------------------------------------------------

    def estimate_fraction_below(
        self, current: np.ndarray, threshold: float
    ) -> float:
        """Estimated fraction of cycles below ``threshold`` over a trace.

        Tiles the trace with non-overlapping 256-cycle windows and
        averages each window's Gaussian-model probability.
        """
        windows = self.tile_windows(current)
        count = windows.shape[0]
        with obs.span(
            "characterize.trace", windows=count, threshold=threshold
        ):
            probs = self.window_probs_below(windows, threshold)
        obs.counter_inc(
            "characterize_traces_total", 1, "whole-trace characterizations"
        )
        return float(probs.sum()) / count

    def estimate_voltage_variance(self, current: np.ndarray) -> float:
        """Mean estimated per-window voltage variance over a trace."""
        _, v_var = self.window_voltage_params(self.tile_windows(current))
        return float(np.mean(v_var))


@dataclass(frozen=True)
class TracePrediction:
    """Estimate vs. convolution-simulated truth for one trace (Figure 9)."""

    name: str
    threshold: float
    estimated: float  # estimated fraction of cycles below the threshold
    observed: float  # simulated fraction

    @property
    def error(self) -> float:
        """Signed estimation error (estimated - observed)."""
        return self.estimated - self.observed


def predict_trace(
    network: PowerSupplyNetwork,
    current: np.ndarray,
    threshold: float = 0.97,
    name: str = "trace",
    estimator: WaveletVoltageEstimator | None = None,
) -> TracePrediction:
    """Estimate and verify the below-threshold fraction for one trace."""
    est = estimator or WaveletVoltageEstimator(network)
    estimated = est.estimate_fraction_below(current, threshold)
    sim = ConvolutionVoltageSimulator(network)
    voltage = sim.voltage(current)[min(sim.taps, len(current) // 4) :]
    observed = float(np.mean(voltage < threshold))
    return TracePrediction(
        name=name, threshold=threshold, estimated=estimated, observed=observed
    )
