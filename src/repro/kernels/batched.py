"""Batched backend: fused multi-trace characterization + FFT convolution.

Two ideas define the tier above ``vectorized``:

* the §4.1 chain (wavedec → window stats → scale factors → Gaussian
  tail) is **row-local end to end**, so the windows of N traces can be
  stacked into one ``(N * W, window)`` matrix and pushed through a
  single strided-Haar pass — every per-trace Python/NumPy dispatch is
  amortized over the whole stack, and each row's result is bit-identical
  to characterizing its trace alone (which is what lets the pipeline
  split block results back into per-trace cache entries);
* whole-trace convolution switches from ``scipy.signal.convolve``'s
  generic auto mode to an explicit :func:`convolution_plan` crossover —
  direct for tiny problems, overlap-add (``oaconvolve``) when the trace
  dwarfs the compressed FIR (the common case: 32k-cycle traces against
  a few-hundred-tap kernel), one big FFT otherwise.

The numerically exact single-trace kernels (``wavedec``, ``waverec``,
``window_stats``, ``gaussian_prob_below``) are shared with the
vectorized backend: this tier changes how traces are *grouped* and how
convolutions are *planned*, not the per-window math.  The FFT paths are
the only kernels here that differ from ``vectorized`` beyond float
round-off (~1e-12 relative).

All batched math runs in float64: a float32 trace stack is upcast once
(exactly), so store-backed float32 traces produce the same bits as the
per-trace float64 path.
"""

from __future__ import annotations

import numpy as np

from . import register_kernel
from .reference import check_traces_matrix
from .vectorized import (
    gaussian_prob_below,
    wavedec,
    waverec,
    window_stats,
)

__all__ = ["convolution_plan"]

#: Below this ``n * m`` work product a direct convolution wins — the
#: FFT's setup cost dominates tiny problems.
DIRECT_LIMIT = 1 << 15

#: When one operand is at least this many times longer than the other,
#: overlap-add beats one big FFT by keeping each segment's transform at
#: ``O(m log m)`` instead of ``O(n log n)``.
OVERLAP_RATIO = 8


def convolution_plan(n: int, m: int) -> str:
    """The crossover heuristic: ``"direct"``, ``"fft"`` or ``"overlap_add"``.

    ``n`` and ``m`` are the operand lengths (order irrelevant).  Pure
    and deterministic so the choice is testable and shows up in docs
    rather than being buried in SciPy's auto mode.
    """
    if n <= 0 or m <= 0:
        return "direct"
    if n * m <= DIRECT_LIMIT:
        return "direct"
    if max(n, m) >= OVERLAP_RATIO * min(n, m):
        return "overlap_add"
    return "fft"


def _planned_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    from scipy.signal import convolve, fftconvolve, oaconvolve

    plan = convolution_plan(len(x), len(h))
    if plan == "direct":
        return convolve(x, h, method="direct")
    if plan == "overlap_add":
        return oaconvolve(x, h)
    return fftconvolve(x, h)


# Single-trace kernels shared with the vectorized backend verbatim.
register_kernel("wavedec", "batched")(wavedec)
register_kernel("waverec", "batched")(waverec)
register_kernel("window_stats", "batched")(window_stats)
register_kernel("gaussian_prob_below", "batched")(gaussian_prob_below)


@register_kernel("characterize_block", "batched")
def characterize_block(estimator, traces, threshold: float):
    """The §4.1 chain fused into one pass over an ``(N, cycles)`` stack.

    Tiles every trace's full windows into a single
    ``(N * W, window)`` matrix, runs one strided-Haar ``window_stats``
    pass, one factor lookup and one Gaussian-tail evaluation over all
    rows, then splits back per trace.  Returns ``(probs, terms)`` of
    shapes ``(N, W)`` and ``(N, levels, W)``; every reduction is
    row-local, so row ``k`` is bit-identical to the per-trace path.
    """
    t = check_traces_matrix(traces)
    n_traces, cycles = t.shape
    window = estimator.window
    count = cycles // window
    if count == 0:
        raise ValueError(f"traces shorter than one {window}-cycle window")
    stacked = t[:, : count * window].reshape(n_traces * count, window)
    stats = window_stats(stacked, estimator.levels)
    mean_v, v_var = estimator.voltage_params_from(stats)
    probs = gaussian_prob_below(mean_v, v_var, threshold)
    terms = estimator.contribution_terms_from(stats)
    return (
        probs.reshape(n_traces, count),
        np.ascontiguousarray(
            terms.reshape(estimator.levels, n_traces, count).swapaxes(0, 1)
        ),
    )


@register_kernel("convolver_apply", "batched")
def convolver_apply(convolver, x) -> np.ndarray:
    """K-term subband convolution via the planned FFT/overlap-add path."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return np.empty(0)
    fir = convolver.compressed_fir()
    return _planned_convolve(x, fir)[: len(x)]


@register_kernel("monitor_estimate_trace", "batched")
def monitor_estimate_trace(monitor, current) -> np.ndarray:
    """Whole-trace voltage estimate via the planned convolution."""
    i = np.asarray(current, dtype=float)
    if i.size == 0:
        return np.empty(0)
    droop = _planned_convolve(i, monitor.compressed_kernel)[: len(i)]
    return monitor.network.vdd - droop
