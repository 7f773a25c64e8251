"""Cross-backend equivalence battery and backend resolution.

Every registered kernel runs under both backends over a grid of dtypes
and lengths — including non-power-of-two and length-1 signals — and the
vectorized output must match the reference oracle to ``rtol=1e-9``.  A
kernel registered in only one backend fails loudly here, before any
numerical comparison.  The last tests pin the three-step backend
resolution order of :class:`~repro.kernels.KernelConfig`.
"""

import os

import numpy as np
import pytest

from repro import kernels
from repro.core import WaveletVoltageMonitor, calibrated_supply
from repro.kernels import (
    KernelConfig,
    available_backends,
    available_kernels,
    get_kernel,
    resolve_backend,
)
from repro.power import impulse_response
from repro.wavelets import WaveletConvolver

RTOL = 1e-9
ATOL = 1e-9

DTYPES = (np.float64, np.float32, np.int64)
#: Trace/window lengths: length-1, power-of-two, and two non-powers.
LENGTHS = (1, 2, 12, 100, 256)


@pytest.fixture(scope="module")
def network():
    return calibrated_supply(150)


@pytest.fixture(scope="module")
def monitor(network):
    return WaveletVoltageMonitor(network, terms=13)


@pytest.fixture(scope="module")
def convolver(network, monitor):
    return WaveletConvolver(
        impulse_response(network, monitor.taps), "haar", keep=13
    )


def _trace(n: int, dtype, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed * 1000 + n)
    x = rng.normal(40.0, 5.0, n)
    if np.issubdtype(np.dtype(dtype), np.integer):
        return np.round(x).astype(dtype)
    return x.astype(dtype)


def _dyadic_depth(n: int) -> int:
    """Largest L with n divisible by 2**L (the window_stats level)."""
    return (n & -n).bit_length() - 1


def _case(name: str, n: int, dtype, monitor, convolver):
    """(args, kwargs) exercising kernel ``name`` at one grid point."""
    x = _trace(n, dtype)
    if name == "wavedec":
        return (x, "haar"), {}
    if name == "waverec":
        coeffs = get_kernel("wavedec", backend="reference")(x, "haar")
        return (coeffs, "haar"), {}
    if name == "window_stats":
        windows = np.stack([_trace(n, dtype, seed=s) for s in range(3)])
        return (windows, _dyadic_depth(n)), {}
    if name == "gaussian_prob_below":
        rng = np.random.default_rng(n)
        means = (1.0 - rng.uniform(0.0, 0.06, n)).astype(dtype)
        variances = rng.uniform(0.0, 4e-4, n).astype(dtype)
        variances[::3] = 0  # degenerate windows must agree too
        return (means, variances, 0.97), {}
    if name == "convolver_apply":
        return (convolver, x), {}
    if name == "monitor_estimate_trace":
        return (monitor, x), {}
    raise AssertionError(
        f"no equivalence case for kernel {name!r} — a new kernel must be "
        "added to this battery"
    )


def _assert_close(ref, vec):
    if isinstance(ref, (list, tuple)):
        assert len(ref) == len(vec)
        for r, v in zip(ref, vec):
            np.testing.assert_allclose(v, r, rtol=RTOL, atol=ATOL)
        return
    if isinstance(ref, np.ndarray):
        np.testing.assert_allclose(vec, ref, rtol=RTOL, atol=ATOL)
        return
    # WindowStats
    np.testing.assert_allclose(vec.means, ref.means, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(
        vec.variances, ref.variances, rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        vec.correlations, ref.correlations, rtol=RTOL, atol=ATOL
    )


def test_every_kernel_registered_in_every_backend():
    """A one-sided kernel registration is a hard error, not a skip."""
    assert available_kernels(), "no kernels registered at all"
    for backend in available_backends():
        assert available_kernels(backend) == available_kernels(), (
            f"backend {backend!r} is missing kernels: "
            f"{set(available_kernels()) - set(available_kernels(backend))}"
        )
    for name in available_kernels():
        for backend in available_backends():
            assert callable(get_kernel(name, backend=backend))


def test_every_kernel_has_an_equivalence_case(monitor, convolver):
    for name in available_kernels():
        _case(name, 2, np.float64, monitor, convolver)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("name", available_kernels())
def test_backends_agree(name, n, dtype, monitor, convolver):
    args, kwargs = _case(name, n, dtype, monitor, convolver)
    ref = get_kernel(name, backend="reference")(*args, **kwargs)
    vec = get_kernel(name, backend="vectorized")(*args, **kwargs)
    _assert_close(ref, vec)


def test_unknown_kernel_and_backend_raise():
    with pytest.raises(ValueError, match="unknown kernel"):
        get_kernel("no_such_kernel")
    with pytest.raises(ValueError, match="unknown backend"):
        get_kernel("wavedec", backend="cuda")


# -- backend resolution: explicit > innermost context > default -------------


def test_available_backends_are_the_oracle_and_production():
    assert available_backends() == ("reference", "vectorized")
    assert kernels.DEFAULT_BACKEND == "vectorized"


def test_kernel_config_resolution_order():
    assert resolve_backend() == kernels.DEFAULT_BACKEND
    with KernelConfig(backend="reference"):
        assert resolve_backend() == "reference"  # context beats default
        with KernelConfig(backend="vectorized"):
            assert resolve_backend() == "vectorized"  # innermost wins
        with KernelConfig():
            assert resolve_backend() == "reference"  # None inherits
        assert resolve_backend() == "reference"
    assert resolve_backend() == kernels.DEFAULT_BACKEND  # context popped


@pytest.fixture()
def probe_kernel():
    """A throwaway kernel whose result names the backend that ran it."""
    name = "_probe_backend"
    for backend in available_backends():
        kernels.register_kernel(name, backend)(lambda b=backend: b)
    try:
        yield name
    finally:
        kernels._REGISTRY.pop(name, None)
        kernels._dispatcher.cache_clear()


def test_explicit_backend_beats_context(probe_kernel):
    dynamic = get_kernel(probe_kernel)  # fetched before the context
    pinned = get_kernel(probe_kernel, backend="vectorized")
    assert dynamic() == "vectorized"
    with KernelConfig(backend="reference"):
        assert resolve_backend(explicit="vectorized") == "vectorized"
        assert pinned() == "vectorized"
        assert dynamic() == "reference"  # re-resolved on every call
    assert dynamic() == "vectorized"


def test_kernel_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        KernelConfig(backend="cuda")
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend(explicit="cuda")


def test_os_env_not_leaked_by_config():
    before = dict(os.environ)
    with KernelConfig(backend="reference"):
        assert dict(os.environ) == before
    assert dict(os.environ) == before
