"""Voltage simulation: Eq. 6 applied to per-cycle current traces.

Two equivalent engines:

* :class:`ConvolutionVoltageSimulator` — the offline "truth" used for all
  characterization experiments: FFT convolution of the whole current trace
  with the finite impulse-response kernel, exactly the direct application
  of Eq. 6 the paper uses to simulate voltage levels.  It keeps its
  kernel's spectrum for the last FFT size it used, so a trace costs two
  transforms (its own and the inverse), bit-identical to
  :func:`fft_convolve`.  Building one also keeps the heap those
  transforms free mapped, process-wide (:func:`_keep_freed_heap`).
* :class:`StreamingVoltageModel` — the same second-order system as a
  two-pole recursion advanced one cycle at a time, used inside the online
  control loop where the controller's stall/no-op decisions feed back into
  the current stream.

Both are derived from the same biquad coefficients and agree to machine
precision (tested), so offline characterization and online control see the
same physics.
"""

from __future__ import annotations

import bisect
import ctypes
import functools

import numpy as np

from .impulse import biquad_coefficients, default_tap_count, impulse_response
from .network import PowerSupplyNetwork

__all__ = [
    "ConvolutionVoltageSimulator",
    "fft_convolve",
    "StreamingVoltageModel",
    "simulate_voltage",
    "count_emergencies",
    "emergency_fraction",
]


@functools.cache
def _smooth_sizes(limit: int) -> tuple[int, ...]:
    """Every 5-smooth integer ``2**a * 3**b * 5**c`` up to ``limit``, ascending."""
    sizes = []
    f5 = 1
    while f5 <= limit:
        f = f5
        while f <= limit:
            x = f
            while x <= limit:
                sizes.append(x)
                x *= 2
            f *= 3
        f5 *= 5
    return tuple(sorted(sizes))


def next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer ``>= n`` (``n >= 1``).

    pocketfft's good size for a real transform, the value of
    ``scipy.fft.next_fast_len(n, real=True)``.
    """
    sizes = _smooth_sizes(1 << (n - 1).bit_length())
    return sizes[bisect.bisect_left(sizes, n)]


def fft_convolve(x: np.ndarray, h: np.ndarray, axis: int = -1) -> np.ndarray:
    """Full linear convolution of real ``x`` and ``h`` along ``axis``.

    The same transforms, FFT size and products as
    ``scipy.signal.fftconvolve(x, h, axes=axis)`` for real input, so the
    result is bit-identical to it, without importing SciPy: since NumPy
    2.0, ``numpy.fft`` runs the same C++ pocketfft as ``scipy.fft``.
    ``h`` broadcasts against ``x`` on every other axis.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.size == 0 or h.size == 0:
        return np.array([])
    if x.shape[axis] == 1 or h.shape[axis] == 1:
        # a length-1 operand is a plain product, as SciPy computes it
        return x * h
    n = x.shape[axis] + h.shape[axis] - 1
    size = next_fast_len(n)
    spectrum = np.fft.rfft(x, size, axis=axis) * np.fft.rfft(h, size, axis=axis)
    out = np.fft.irfft(spectrum, size, axis=axis)
    return out[(slice(None),) * (axis % out.ndim) + (slice(n),)]


#: glibc ``mallopt`` parameter numbers (``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _libc():
    """The loaded C library, or ``None`` where ``ctypes`` cannot open it."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


@functools.cache
def _keep_freed_heap() -> None:
    """Keep large freed buffers on this process's heap, once per process.

    By default glibc serves every block above its mmap threshold with a
    fresh ``mmap`` and hands freed heap above its trim threshold back to
    the kernel.  A 1M-sample :meth:`ConvolutionVoltageSimulator.droop`
    frees about 34 MB (the padded trace, both transform outputs and
    pocketfft's scratch), so the next trace mapped and zeroed all of it
    again: some 8 100 minor page faults per trace.  This sets the mmap
    threshold to 32 MiB, glibc's own 64-bit ceiling for its dynamic
    threshold, and the trim threshold to 64 MiB, above what one such
    call frees.  The allocator does no arithmetic, so every result is
    unchanged.  Where the C library has no ``mallopt`` (not glibc) this
    does nothing, and a refused setting is ignored.

    It is called by the engine's constructor only, never at import:
    a process that builds no engine keeps glibc's defaults.
    """
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


class ConvolutionVoltageSimulator:
    """Offline whole-trace voltage computation (Eq. 6).

    :meth:`droop` is ``fft_convolve(current, kernel)[:n]`` bit for bit,
    with the same transforms, FFT size and product, but it transforms
    only the trace: the kernel's spectrum at the last FFT size used is
    kept (one entry, so an engine holds at most one spectrum), and a
    trace of ``n`` samples costs one forward and one inverse transform
    of ``next_fast_len(n + taps - 1)`` points.  The first engine of a
    process sets its allocator to keep those transforms' freed buffers
    (:func:`_keep_freed_heap`), so the next trace reuses them instead of
    faulting them in again.

    Parameters
    ----------
    network:
        The supply model.
    taps:
        Kernel length; defaults to a power of two covering the ring-down.
    """

    def __init__(self, network: PowerSupplyNetwork, taps: int | None = None) -> None:
        self.network = network
        self.taps = default_tap_count(network) if taps is None else taps
        self.kernel = impulse_response(network, self.taps)
        self._kept: tuple[int, np.ndarray] | None = None
        _keep_freed_heap()

    def _kernel_spectrum(self, size: int) -> np.ndarray:
        """``rfft(kernel, size)``, computed once per change of ``size``."""
        kept = self._kept
        if kept is None or kept[0] != size:
            kept = (size, np.fft.rfft(np.asarray(self.kernel, dtype=float), size))
            self._kept = kept
        return kept[1]

    def droop(self, current: np.ndarray) -> np.ndarray:
        """Voltage droop ``(h * i)(t)`` for each cycle of ``current``."""
        i = np.asarray(current)
        if i.ndim != 1:
            raise ValueError("current trace must be 1-D")
        n = len(i)
        if n == 0:
            return np.empty(0)
        if n == 1 or self.taps == 1:
            # a length-1 operand is a plain product, as fft_convolve
            # computes it
            return fft_convolve(i, self.kernel)[:n]
        size = next_fast_len(n + self.taps - 1)
        # the one float64 copy of the trace, already zero-padded, so
        # the transform makes no padded copy of its own
        padded = np.zeros(size)
        padded[:n] = i
        spectrum = np.fft.rfft(padded)
        del padded  # freed before irfft allocates its output
        spectrum *= self._kernel_spectrum(size)
        return np.fft.irfft(spectrum, size)[:n]

    def voltage(self, current: np.ndarray) -> np.ndarray:
        """Per-cycle supply voltage ``vdd - droop``."""
        droop = self.droop(current)
        # droop is this call's own buffer, so it takes the result
        return np.subtract(self.network.vdd, droop, out=droop)


class StreamingVoltageModel:
    """Cycle-by-cycle voltage evolution for closed-loop control.

    Uses the biquad recursion directly (infinite impulse response), so it
    matches the convolution engine up to the kernel truncation tail.
    """

    def __init__(self, network: PowerSupplyNetwork) -> None:
        self.network = network
        self._bq = biquad_coefficients(network)
        self._x1 = 0.0
        self._x2 = 0.0
        self._y1 = 0.0
        self._y2 = 0.0

    def step(self, current: float) -> float:
        """Advance one cycle with the given current draw; returns voltage."""
        bq = self._bq
        y = (
            bq.b0 * current
            + bq.b1 * self._x1
            + bq.b2 * self._x2
            - bq.a1 * self._y1
            - bq.a2 * self._y2
        )
        self._x2, self._x1 = self._x1, current
        self._y2, self._y1 = self._y1, y
        return self.network.vdd - y

    def run(self, current: np.ndarray) -> np.ndarray:
        """Vectorized batch run (scipy ``lfilter``), same recursion."""
        from scipy.signal import lfilter

        i = np.asarray(current, dtype=float)
        bq = self._bq
        droop = lfilter([bq.b0, bq.b1, bq.b2], [1.0, bq.a1, bq.a2], i)
        return self.network.vdd - droop

    def reset(self) -> None:
        """Clear filter state (history of a previous trace)."""
        self._x1 = self._x2 = self._y1 = self._y2 = 0.0


def simulate_voltage(
    network: PowerSupplyNetwork, current: np.ndarray, taps: int | None = None
) -> np.ndarray:
    """One-shot convenience: voltage trace for a current trace (Eq. 6)."""
    return ConvolutionVoltageSimulator(network, taps).voltage(current)


def count_emergencies(network: PowerSupplyNetwork, voltage: np.ndarray) -> int:
    """Cycles outside the safe band (voltage faults, §3)."""
    v = np.asarray(voltage, dtype=float)
    return int(np.sum((v < network.v_min) | (v > network.v_max)))


def emergency_fraction(network: PowerSupplyNetwork, voltage: np.ndarray) -> float:
    """Fraction of cycles in voltage-fault territory."""
    v = np.asarray(voltage, dtype=float)
    if v.size == 0:
        return 0.0
    return count_emergencies(network, v) / v.size
