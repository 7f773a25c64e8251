"""Unit tests for workload analysis (§4.2/4.3) and the shared setup."""

import numpy as np
import pytest

from repro.core import (
    benchmark_voltage_histogram,
    calibrated_supply,
    gaussianity_study,
    l2_miss_report,
    reference_network,
)
from repro.power import PowerSupplyNetwork, count_emergencies, simulate_voltage
from repro.uarch import simulate_benchmark
from repro.workloads import stressmark_stream


class TestCalibratedSupply:
    def test_stressmark_fills_band_at_100(self):
        net = calibrated_supply(100)
        from repro.uarch import Simulator

        result = Simulator().run(
            stressmark_stream(int(net.resonant_period_cycles // 2)),
            12288,
            name="stress",
        )
        # Replicate the calibration's settling convention: drop the
        # pipeline-fill prefix and then one kernel length of droop.
        settled = result.current[1024:]
        v = simulate_voltage(net, settled)[512:]
        # The binding excursion may be a droop or an overshoot; whichever
        # side binds must touch the band edge exactly, without crossing.
        worst = float(np.max(np.abs(v - net.vdd)))
        assert worst == pytest.approx(net.tolerance * net.vdd, abs=2e-3)
        assert count_emergencies(net, v) == 0

    def test_percent_scaling(self):
        n125 = calibrated_supply(125)
        n200 = calibrated_supply(200)
        assert n200.parameters.resistance == pytest.approx(
            n125.parameters.resistance * 200 / 125
        )

    def test_cache_shared_across_percents(self):
        a = calibrated_supply(125)
        b = calibrated_supply(150)
        assert a.peak_impedance == b.peak_impedance

    @pytest.mark.parametrize("default_first", [True, False])
    def test_memo_keys_on_the_whole_base_network(self, monkeypatch, default_first):
        # vdd and tolerance set the band the stressmark must fill, so a
        # base differing only in those needs its own calibration, whatever
        # was memoized first.
        from repro.core import setup

        monkeypatch.setattr(setup, "_CACHE", {})
        base = PowerSupplyNetwork(vdd=1.2, tolerance=0.03)
        if default_first:
            default = calibrated_supply(100)
            custom = calibrated_supply(100, base=base)
        else:
            custom = calibrated_supply(100, base=base)
            default = calibrated_supply(100)
        assert default == calibrated_supply(100, base=reference_network())
        assert custom.peak_impedance == 0.0033930443788609296
        assert custom.peak_impedance != default.peak_impedance
        assert (custom.vdd, custom.tolerance) == (1.2, 0.03)

    def test_reference_defaults(self):
        net = reference_network()
        assert net.vdd == 1.0
        assert net.clock_hz == 3.0e9


class TestGaussianityStudy:
    def test_window_sizes_covered(self):
        r = simulate_benchmark("gzip", cycles=16384)
        study = gaussianity_study(r, windows=(32, 64), samples_per_size=60)
        assert set(study.studies) == {32, 64}
        assert 0.0 <= study.acceptance_rate(64) <= 1.0

    def test_compute_bound_more_gaussian_than_membound(self):
        # §4.3 / Figure 12: high-L2-miss benchmarks are the least Gaussian.
        r_cpu = simulate_benchmark("gzip", cycles=16384)
        r_mem = simulate_benchmark("mcf", cycles=16384)
        g_cpu = gaussianity_study(r_cpu, windows=(64,), samples_per_size=120)
        g_mem = gaussianity_study(r_mem, windows=(64,), samples_per_size=120)
        assert g_cpu.acceptance_rate(64) > g_mem.acceptance_rate(64)

    def test_deterministic_given_seed(self):
        r = simulate_benchmark("gzip", cycles=16384)
        a = gaussianity_study(r, windows=(64,), samples_per_size=50, seed=3)
        b = gaussianity_study(r, windows=(64,), samples_per_size=50, seed=3)
        assert a.acceptance_rate(64) == b.acceptance_rate(64)


class TestVoltageHistograms:
    def test_membound_spikes_at_nominal(self):
        # Figure 11: high-L2-miss benchmarks pile mass at ~1.0 V.
        net = calibrated_supply(150)
        r_mem = simulate_benchmark("mcf", cycles=16384)
        r_cpu = simulate_benchmark("gzip", cycles=16384)
        h_mem = benchmark_voltage_histogram(net, r_mem)
        h_cpu = benchmark_voltage_histogram(net, r_cpu)
        assert h_mem.spike_ratio(1.0, 0.004) > 2 * h_cpu.spike_ratio(1.0, 0.004)

    def test_histogram_sums_to_100(self):
        net = calibrated_supply(150)
        r = simulate_benchmark("gzip", cycles=8192)
        h = benchmark_voltage_histogram(net, r)
        assert h.percent.sum() == pytest.approx(100.0)


class TestL2MissReport:
    def test_report_fields_consistent(self):
        net = calibrated_supply(150)
        rep = l2_miss_report(net, "swim", cycles=16384)
        assert rep.name == "swim"
        assert rep.l2_mpki > 1.0
        assert 0.0 <= rep.gaussian_rate <= 1.0
        assert rep.l2_outstanding_fraction > 0.3

    def test_groups_separate(self):
        net = calibrated_supply(150)
        low = l2_miss_report(net, "eon", cycles=16384)
        high = l2_miss_report(net, "art", cycles=16384)
        assert high.l2_mpki > 10 * max(low.l2_mpki, 0.01)
        assert high.spike_ratio > low.spike_ratio
