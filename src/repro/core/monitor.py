"""The online wavelet-based voltage monitor (§5.1) and extensions.

Because the periodized DWT is orthonormal, the convolution sample
``v(t) = <history, h>`` equals ``<DWT(history), DWT(h)>``; keeping only
the K largest-magnitude coefficients of ``DWT(h)`` gives a monitor whose
hardware cost is K multiply-accumulates instead of hundreds (Figure 13).
Equivalently, the truncated monitor is an FIR filter with the *compressed
kernel* ``IDWT(truncate(DWT(h)))`` — the form used for fast offline
evaluation, while :mod:`repro.core.hardware` implements the same
computation the way Figure 14 builds it (shift registers and running
sums) and is tested to agree cycle-for-cycle.

Beyond the paper, two extensions share the same machinery:

* any orthogonal basis (``wavelet="db4"`` etc.) — the paper notes "there
  is no way to know a priori which wavelet basis is the best match", so
  the basis is a constructor argument and an ablation bench compares
  term-efficiency across bases;
* :class:`PacketVoltageMonitor` — choose the subband tree *adaptively*
  with Coifman–Wickerhauser best-basis on the impulse response, packing
  the kernel's energy into even fewer coefficients.
"""

from __future__ import annotations

import numpy as np

from ..power import PowerSupplyNetwork, default_tap_count, impulse_response
from ..power.simulate import fft_convolve
from ..wavelets import (
    WaveletConvolver,
    WaveletPacketTree,
    best_basis,
    next_pow2,
)

__all__ = [
    "WaveletVoltageMonitor",
    "PacketVoltageMonitor",
    "coefficient_error_curve",
    "recommended_margin",
]


class _CompressedKernelMonitor:
    """Common streaming/batch evaluation over a compressed FIR kernel.

    Warm-up semantics (pinned by ``tests/kernels/test_golden.py`` and
    the monitor tests): a fresh (or :meth:`reset`) monitor starts from
    an all-zero history, which is exactly the zero-extension convention
    of causal convolution — so for the first ``taps`` cycles and beyond,
    streaming :meth:`observe` agrees with batch :meth:`estimate_trace`
    to float round-off.  :meth:`estimate_trace` always answers for a
    freshly-reset monitor: it neither reads nor advances the streaming
    history, so interleaving the two interfaces is safe.
    """

    network: PowerSupplyNetwork
    taps: int
    compressed_kernel: np.ndarray

    def _init_history(self) -> None:
        self._history = np.zeros(self.taps)

    # -- streaming interface ---------------------------------------------------

    def observe(self, current: float) -> float:
        """Feed one cycle's current; returns the estimated voltage."""
        self._history[1:] = self._history[:-1]
        self._history[0] = current
        droop = float(np.dot(self._history, self.compressed_kernel))
        return self.network.vdd - droop

    def reset(self) -> None:
        """Forget the current history."""
        self._history[:] = 0.0

    # -- batch interface ---------------------------------------------------------

    def estimate_trace(self, current: np.ndarray) -> np.ndarray:
        """Estimated voltage for every cycle of a trace, from zero history.

        Dispatches through the ``monitor_estimate_trace`` kernel: one
        whole-trace FIR convolution on the vectorized backend, the
        replayed ``observe`` loop on the reference backend.
        """
        from ..kernels import get_kernel

        return get_kernel("monitor_estimate_trace")(self, current)

    def max_error_on(self, current: np.ndarray) -> float:
        """Worst |exact - estimated| voltage over a trace (Figure 13)."""
        i = np.asarray(current, dtype=float)
        exact_kernel = impulse_response(self.network, self.taps)
        exact = self.network.vdd - fft_convolve(i, exact_kernel)[: len(i)]
        return float(np.max(np.abs(exact - self.estimate_trace(i))))


class WaveletVoltageMonitor(_CompressedKernelMonitor):
    """Truncated wavelet-convolution voltage estimator for one network.

    Parameters
    ----------
    network:
        The supply model whose impulse response is being compressed.
    terms:
        Number of wavelet coefficient terms kept (the paper's K); ``None``
        keeps all (exact convolution).
    taps:
        Impulse-response length; defaults to the ring-down-covering power
        of two.
    wavelet:
        Orthogonal basis; the paper uses Haar (whose square pulses give
        the cheap Figure-14 hardware), but any ``repro.wavelets`` basis
        works mathematically.
    """

    def __init__(
        self,
        network: PowerSupplyNetwork,
        terms: int | None = None,
        taps: int | None = None,
        wavelet: str = "haar",
    ) -> None:
        self.network = network
        self.taps = next_pow2(taps or default_tap_count(network))
        kernel = impulse_response(network, self.taps)
        self.convolver = WaveletConvolver(kernel, wavelet, keep=terms)
        self.terms = self.convolver.keep
        self.wavelet = wavelet
        # The truncated monitor is linear; its action equals an FIR filter
        # with the compressed kernel (reconstruction of the kept terms).
        self.compressed_kernel = self.convolver.compressed_fir()
        self._init_history()


class PacketVoltageMonitor(_CompressedKernelMonitor):
    """Best-basis wavelet-packet variant (extension beyond the paper).

    Decomposes the impulse response over the minimum-entropy packet cover
    instead of the fixed dyadic tree, then keeps the K largest
    coefficients of that cover.  Because any disjoint packet cover is an
    orthonormal transform, the same inner-product identity holds; the
    adaptive cover concentrates kernel energy harder, so for a given K
    the error is typically at or below the DWT monitor's.
    """

    def __init__(
        self,
        network: PowerSupplyNetwork,
        terms: int | None = None,
        taps: int | None = None,
        wavelet: str = "haar",
        depth: int | None = None,
    ) -> None:
        self.network = network
        self.taps = next_pow2(taps or default_tap_count(network))
        kernel = impulse_response(network, self.taps)
        tree = WaveletPacketTree(kernel, wavelet, depth)
        self._tree = tree
        self._cover = best_basis(tree)
        flat: list[tuple[tuple[int, int], int, float]] = []
        for node, coeffs in self._cover.items():
            flat.extend((node, k, float(v)) for k, v in enumerate(coeffs))
        flat.sort(key=lambda t: -abs(t[2]))
        self.total_terms = len(flat)
        if terms is None:
            terms = self.total_terms
        if not 0 <= terms <= self.total_terms:
            raise ValueError(f"terms must be in [0, {self.total_terms}]")
        self.terms = terms
        kept = flat[:terms]
        truncated = {
            node: np.zeros_like(coeffs) for node, coeffs in self._cover.items()
        }
        for node, k, value in kept:
            truncated[node][k] = value
        self.compressed_kernel = tree.reconstruct_from(truncated)
        self._init_history()

    @property
    def cover_size(self) -> int:
        """Number of packet nodes in the chosen best basis."""
        return len(self._cover)


def coefficient_error_curve(
    network: PowerSupplyNetwork,
    current: np.ndarray,
    term_counts: list[int] | range,
    taps: int | None = None,
    monitor_cls=WaveletVoltageMonitor,
    **monitor_kwargs,
) -> dict[int, float]:
    """Max estimation error vs. number of wavelet terms (Figure 13).

    Evaluates the truncated monitor over ``current`` for each K; errors
    trend downward in K and scale linearly with the target impedance
    percentage.  ``monitor_cls`` selects the monitor flavour (DWT or
    packet best-basis) for ablation studies.
    """
    out: dict[int, float] = {}
    for k in term_counts:
        mon = monitor_cls(network, terms=k, taps=taps, **monitor_kwargs)
        out[k] = mon.max_error_on(current)
    return out


def recommended_margin(
    network: PowerSupplyNetwork,
    terms: int,
    calibration_trace: np.ndarray,
    sensor_delay_cycles: int = 1,
    slack: float = 0.002,
) -> float:
    """A safe control-threshold tolerance for a K-term monitor.

    Ties Figure 13 to Figure 15: the control margin must cover (a) the
    monitor's worst estimation error on a stressing calibration trace,
    (b) how far the voltage can move during the sensor-to-actuator delay,
    and (c) a small fixed slack.  Using this margin, the controller of
    §5.2 engages before the true voltage can reach the fault level.
    """
    if sensor_delay_cycles < 0:
        raise ValueError("sensor delay cannot be negative")
    if slack < 0:
        raise ValueError("slack cannot be negative")
    monitor = WaveletVoltageMonitor(network, terms=terms)
    estimation = monitor.max_error_on(calibration_trace)
    # Worst per-cycle voltage slew observed on the calibration trace.
    kernel = impulse_response(network, monitor.taps)
    i = np.asarray(calibration_trace, dtype=float)
    v = network.vdd - fft_convolve(i, kernel)[: len(i)]
    worst_slew = float(np.max(np.abs(np.diff(v)))) if len(v) > 1 else 0.0
    return estimation + sensor_delay_cycles * worst_slew + slack
