"""Host-speed probe: a fixed reference workload timed next to the program.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes.  The timed figures of the
end-to-end metrics are therefore reported at a fixed reference speed:
each raw time is multiplied by ``PROBE_REF_S / probe_s``, where
``probe_s`` is the time this probe took right next to the program work
it scales.  The probe mixes the two kinds of work the program does,
interpreted Python loops (simulator, controller, imports) and NumPy FFT
round trips (voltage convolution, kernels), and takes the median of a
few short repetitions of each, so a single preemption does not move it.

The probe is benchmark code only: no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

#: Probe time that defines the reference speed (a 2-vCPU x86 VM).
PROBE_REF_S = 0.04
REPS = 7
_LOOP = 200_000
_FFT_N = 1 << 16

_signal = None


def _python_loop() -> int:
    total = 0
    for i in range(_LOOP):
        total += (i * i) % 7
    return total


def _fft_round_trip() -> float:
    import numpy as np

    global _signal
    if _signal is None:
        _signal = np.random.default_rng(0).standard_normal(_FFT_N)
    return float(np.fft.irfft(np.fft.rfft(_signal), _FFT_N)[0])


def probe_once() -> float:
    """Seconds of one reference unit of work (about 40 ms)."""
    _fft_round_trip()  # the first call builds the signal; keep it untimed
    t0 = time.perf_counter()
    _python_loop()
    for _ in range(8):
        _fft_round_trip()
    return time.perf_counter() - t0


def probe() -> float:
    """Median of ``REPS`` reference units, back to back."""
    return statistics.median(probe_once() for _ in range(REPS))


def scale(probes: list[float]) -> float:
    """Factor that takes a raw time measured next to ``probes`` to the
    reference speed (below 1 when the host ran slow)."""
    return PROBE_REF_S / statistics.median(probes)
