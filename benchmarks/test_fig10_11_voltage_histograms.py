"""Figures 10 and 11: voltage histograms by L2-miss behaviour.

Figure 10: benchmarks with few L2 misses (gzip, mesa, crafty, eon) show
approximately Gaussian voltage distributions.  Figure 11: benchmarks with
many L2 misses (swim, lucas, mcf, art) instead spike at the nominal 1.0 V
— long stalls pin the machine at its idle current.  This bench prints
both sets of histograms and separates the groups by their nominal-voltage
spike mass and a chi-squared Gaussianity test on the voltage itself.
"""

import numpy as np

from repro.experiments import HIGH_L2_MISS, LOW_L2_MISS, figures10_11
from repro.stats import chi_square_gaussian_test


def _voltage_gaussian_rate(net, result) -> float:
    """Gaussianity of the *whole-run* voltage distribution.

    Figures 10/11 compare run-level histograms, so the test draws random
    subsamples of the full trace (a 64-cycle window of a memory-bound
    benchmark is locally flat and trivially Gaussian — the spike only
    shows at run scale).
    """
    from repro.power import ConvolutionVoltageSimulator

    sim = ConvolutionVoltageSimulator(net)
    v = sim.voltage(result.current)[sim.taps :]
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(40):
        sample = rng.choice(v, size=256, replace=False)
        hits += chi_square_gaussian_test(sample).accepted
    return hits / 40


def test_fig10_11_voltage_histograms(benchmark, net150, traces):
    result = benchmark.pedantic(
        figures10_11, args=(net150, traces), rounds=1, iterations=1
    )
    hists = result.histograms
    spikes = result.spike_ratios

    for group, names in (("Fig 10 (few L2 misses)", LOW_L2_MISS),
                         ("Fig 11 (many L2 misses)", HIGH_L2_MISS)):
        print(f"\n--- {group}: voltage histograms ---")
        for name in names:
            h = hists[name]
            peak_v, peak_pct = h.peak_bin()
            top = h.percent.max()
            bars = "".join(
                "#" if p > top / 2 else ("+" if p > top / 8 else ".")
                for p in h.percent
            )
            print(f"  {name:7s} [{bars}] peak {peak_pct:4.1f}% at "
                  f"{peak_v:.3f} V, spike ratio {spikes[name]:5.1f}")

    # Shape claim 1: every high-miss benchmark spikes harder at nominal
    # voltage than every low-miss benchmark.
    worst_low = max(spikes[n] for n in LOW_L2_MISS)
    best_high = min(spikes[n] for n in HIGH_L2_MISS)
    assert best_high > worst_low, (
        f"nominal-voltage spike does not separate the groups "
        f"({best_high:.1f} vs {worst_low:.1f})"
    )

    # Shape claim 2: low-miss voltage is the more Gaussian of the two.
    low_rate = np.mean(
        [_voltage_gaussian_rate(net150, traces[n]) for n in LOW_L2_MISS]
    )
    high_rate = np.mean(
        [_voltage_gaussian_rate(net150, traces[n]) for n in HIGH_L2_MISS]
    )
    print(f"\n  run-level voltage subsamples accepted as Gaussian: "
          f"low-miss {low_rate * 100:.0f}%, high-miss {high_rate * 100:.0f}%")
    assert low_rate > high_rate
