"""Unit tests for §4's calibration and offline characterization."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    WINDOW,
    WaveletVoltageEstimator,
    calibrate_scale_factors,
    calibrated_supply,
    predict_trace,
)
from repro.power import simulate_voltage


@pytest.fixture(scope="module")
def net():
    return calibrated_supply(150)


@pytest.fixture(scope="module")
def factors(net):
    return calibrate_scale_factors(net)


class TestScaleFactors:
    def test_peak_at_resonant_scale(self, net, factors):
        # 100 MHz resonance at 3 GHz = a 30-cycle period: the scales whose
        # bands straddle it (levels 4-5) must dominate.
        assert factors.peak_level() in (4, 5)

    def test_factors_positive(self, factors):
        for lvl in factors.levels:
            assert factors.factor(lvl, 0.0) > 0.0

    def test_orders_of_magnitude_spread(self, factors):
        # §4.1: "voltage variance on different wavelet decomposition
        # levels often differs by orders of magnitude".
        vals = [factors.factor(lvl) for lvl in factors.levels]
        assert max(vals) > 50 * min(vals)

    def test_correlation_interpolation(self, factors):
        lvl = factors.peak_level()
        lo = factors.factor(lvl, -0.98)
        mid = factors.factor(lvl, 0.0)
        hi = factors.factor(lvl, 0.98)
        assert lo != mid or hi != mid  # correlation matters
        between = factors.factor(lvl, 0.2)
        assert min(mid, hi) <= between <= max(mid, hi)

    def test_unknown_level(self, factors):
        with pytest.raises(KeyError):
            factors.factor(99)

    def test_cache_returns_same_object(self, net):
        assert calibrate_scale_factors(net) is calibrate_scale_factors(net)

    def test_scales_linearly_with_impedance(self, net):
        f150 = calibrate_scale_factors(net)
        f300 = calibrate_scale_factors(net.with_scale(3.0))
        lvl = f150.peak_level()
        # Voltage variance goes as impedance squared (linear system).
        assert f300.factor(lvl) == pytest.approx(4.0 * f150.factor(lvl), rel=0.1)

    def test_memo_keys_on_exact_network(self, net):
        # Networks that differ below any rounding must not share a table.
        nudged = [
            replace(net, resonant_hz=net.resonant_hz + 0.4),
            replace(net, quality_factor=net.quality_factor + 1e-8),
        ]
        small = dict(levels=3, signal_length=1024, trials=1)
        base = calibrate_scale_factors(net, **small)
        for other in nudged:
            model = calibrate_scale_factors(other, **small)
            assert model is not base
            assert model.network == other
            assert model.table != base.table

    def test_validation(self, net):
        with pytest.raises(ValueError):
            calibrate_scale_factors(net, signal_length=1000)
        with pytest.raises(ValueError):
            calibrate_scale_factors(net, levels=20, signal_length=1024)


class TestWindowCharacterization:
    def test_window_size_enforced(self, net):
        est = WaveletVoltageEstimator(net)
        with pytest.raises(ValueError):
            est.characterize_window(np.zeros(128))

    def test_constant_window_predicts_ir_drop(self, net):
        est = WaveletVoltageEstimator(net)
        ch = est.characterize_window(np.full(WINDOW, 40.0))
        assert ch.voltage_model.variance == pytest.approx(0.0, abs=1e-12)
        expected = net.vdd - 40.0 * net.dc_resistance
        assert ch.voltage_model.mean == pytest.approx(expected)
        assert ch.prob_below(0.97) == 0.0

    def test_resonant_window_predicts_large_variance(self, net):
        n = np.arange(WINDOW)
        period = net.resonant_period_cycles
        resonant = 40 + 15 * np.sign(np.sin(2 * np.pi * n / period))
        offres = 40 + 15 * np.sign(np.sin(2 * np.pi * n / 4))
        est = WaveletVoltageEstimator(net)
        v_res = est.characterize_window(resonant).voltage_model.variance
        v_off = est.characterize_window(offres).voltage_model.variance
        assert v_res > 10 * v_off

    def test_variance_scales_quadratically_with_amplitude(self, net):
        rng = np.random.default_rng(0)
        w = rng.normal(0, 1, WINDOW)
        est = WaveletVoltageEstimator(net)
        v1 = est.characterize_window(40 + w).voltage_model.variance
        v2 = est.characterize_window(40 + 3 * w).voltage_model.variance
        assert v2 == pytest.approx(9 * v1, rel=1e-6)

    def test_level_truncation_close_to_full(self, net):
        # Figure 8: 4 of 8 levels loses at most a few percent.
        rng = np.random.default_rng(1)
        full = WaveletVoltageEstimator(net)
        top4 = WaveletVoltageEstimator(net, keep_levels=full.top_levels(4))
        w = 40 + 8 * rng.normal(size=WINDOW)
        vf = full.characterize_window(w).voltage_model.variance
        vt = top4.characterize_window(w).voltage_model.variance
        assert vt <= vf + 1e-12
        # White noise spreads variance across scales more evenly than
        # real current traces do; the Figure-8 bench checks the paper's
        # 0.1-1.6 % error claim on actual benchmark windows.
        assert vt >= 0.75 * vf

    def test_bad_keep_levels(self, net):
        with pytest.raises(ValueError):
            WaveletVoltageEstimator(net, keep_levels={0, 9})

    def test_bad_levels(self, net):
        with pytest.raises(ValueError):
            WaveletVoltageEstimator(net, levels=5)


class TestTracePrediction:
    def test_prediction_tracks_truth_on_synthetic_trace(self, net):
        rng = np.random.default_rng(2)
        # Gaussian current whose variance is felt at the resonance.
        n = 16384
        trace = 40 + 6 * rng.normal(size=n)
        p = predict_trace(net, trace, threshold=0.985)
        assert p.estimated == pytest.approx(p.observed, abs=0.05)

    def test_quiet_trace_predicts_nothing(self, net):
        trace = np.full(4096, 30.0)
        p = predict_trace(net, trace)
        assert p.estimated == pytest.approx(0.0, abs=1e-9)
        assert p.observed == pytest.approx(0.0, abs=1e-9)

    def test_short_trace_rejected(self, net):
        est = WaveletVoltageEstimator(net)
        with pytest.raises(ValueError):
            est.estimate_fraction_below(np.zeros(100), 0.97)

    def test_error_field(self, net):
        p = predict_trace(net, np.full(4096, 30.0))
        assert p.error == p.estimated - p.observed

    def test_estimate_voltage_variance_against_simulation(self, net):
        rng = np.random.default_rng(3)
        trace = 40 + 5 * rng.normal(size=8192)
        est = WaveletVoltageEstimator(net)
        predicted = est.estimate_voltage_variance(trace)
        v = simulate_voltage(net, trace)[2048:]
        assert predicted == pytest.approx(float(v.var()), rel=0.35)


class TestWindowSizeGeneralization:
    def test_window_must_be_power_of_two(self, net):
        with pytest.raises(ValueError):
            WaveletVoltageEstimator(net, window=200)
        with pytest.raises(ValueError):
            WaveletVoltageEstimator(net, window=2)

    def test_levels_follow_window(self, net):
        assert WaveletVoltageEstimator(net, window=128).levels == 7
        assert WaveletVoltageEstimator(net, window=1024).levels == 10

    def test_mismatched_levels_rejected(self, net):
        with pytest.raises(ValueError):
            WaveletVoltageEstimator(net, levels=8, window=512)

    def test_wide_window_estimates_agree_with_default(self, net):
        rng = np.random.default_rng(9)
        trace = 40 + 6 * rng.normal(size=16384)
        default = WaveletVoltageEstimator(net)
        wide = WaveletVoltageEstimator(net, window=1024)
        a = default.estimate_fraction_below(trace, 0.985)
        b = wide.estimate_fraction_below(trace, 0.985)
        assert a == pytest.approx(b, abs=0.02)

    def test_window_shape_enforced_per_instance(self, net):
        est = WaveletVoltageEstimator(net, window=128)
        with pytest.raises(ValueError):
            est.characterize_window(np.zeros(256))
        ch = est.characterize_window(np.full(128, 30.0))
        assert ch.voltage_model.variance == pytest.approx(0.0, abs=1e-12)
