"""Kernel-dispatch layer: one name, two interchangeable backends.

The paper's online monitor (§5) exists because per-cycle convolution is
too expensive; this package is the software mirror of that concern.  The
hot numerical inner loops of the reproduction — the Haar transform, the
per-window wavelet statistics of §4.1, the Gaussian emergency-fraction
evaluation, and the truncated subband convolution of §5.1 — exist in
two tiers:

* ``reference`` — the slow, obviously-correct scalar implementations
  (per-window loops, per-cycle dot products), kept as the oracle;
* ``vectorized`` — NumPy block implementations (strided reshape-and-sum
  wavelet transforms, one 2-D pass over every window of a trace, FIR/FFT
  convolution over whole traces), the production backend.

Call sites go through :func:`get_kernel`, so the backends stay
plug-compatible and ``tests/kernels/test_equivalence.py`` can assert
they agree on every registered kernel.

Backend selection
-----------------
Resolution order (first hit wins):

1. an explicit ``backend=`` argument to :func:`get_kernel` /
   :func:`resolve_backend`;
2. the innermost active ``with KernelConfig(backend=...):`` context;
3. :data:`DEFAULT_BACKEND` (``vectorized``).

Every kernel is registered in both backends (the equivalence battery
fails on a one-sided registration), so resolution never falls back.

Kernel contract
---------------
A kernel is a pure function of its arguments registered under the same
name in **every** backend.  The registered signatures:

``wavedec(x, wavelet="haar", level=None)``
    Multilevel periodized DWT, ``[aJ, dJ, ..., d1]``.
``waverec(coeffs, wavelet="haar")``
    Inverse of ``wavedec``.
``window_stats(windows, level)``
    Per-row mean, per-scale wavelet variance and adjacent-coefficient
    correlation for a ``(W, N)`` matrix of current windows.
``gaussian_prob_below(means, variances, threshold)``
    Per-window Gaussian emergency fraction (§4.1 step 5).
``convolver_apply(convolver, x)``
    A :class:`~repro.wavelets.convolution.WaveletConvolver` run over a
    whole trace (truncated K-term subband convolution).
``monitor_estimate_trace(monitor, current)``
    A compressed-kernel voltage monitor run over a whole trace.

With observability on (``--obs``), every dispatched call is timed under
a ``kernel.<name>`` span tagged with the backend used, so
``--obs summary`` attributes hot-path time kernel by kernel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..obs import trace as obs

__all__ = [
    "DEFAULT_BACKEND",
    "KernelConfig",
    "WindowStats",
    "available_backends",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "resolve_backend",
]

#: Backend chosen when nothing else selects one.
DEFAULT_BACKEND = "vectorized"

_BACKENDS = ("reference", "vectorized")

#: name -> backend -> implementation
_REGISTRY: dict[str, dict[str, object]] = {}


def available_backends() -> tuple[str, ...]:
    """The backend names kernels can register under."""
    return _BACKENDS


def available_kernels(backend: str | None = None) -> tuple[str, ...]:
    """Sorted kernel names; with ``backend``, only that backend's."""
    if backend is None:
        return tuple(sorted(_REGISTRY))
    _check_backend(backend)
    return tuple(
        sorted(n for n, impls in _REGISTRY.items() if backend in impls)
    )


def _check_backend(backend: str) -> None:
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {_BACKENDS}"
        )


def register_kernel(name: str, backend: str):
    """Decorator registering one backend's implementation of ``name``."""
    _check_backend(backend)

    def wrap(func):
        impls = _REGISTRY.setdefault(name, {})
        if backend in impls:
            raise ValueError(f"kernel {name!r} already has a {backend} impl")
        impls[backend] = func
        return func

    return wrap


@dataclass(frozen=True)
class KernelConfig:
    """A scoped backend override.

    ``backend=None`` means "inherit" — entering such a config changes
    nothing.  Use as a context manager::

        with KernelConfig(backend="reference"):
            ...  # dynamically dispatched kernels use the oracle

    Resolution order: explicit ``backend=`` argument > innermost active
    context > :data:`DEFAULT_BACKEND`.
    """

    backend: str | None = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            _check_backend(self.backend)

    def __enter__(self) -> KernelConfig:
        _STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _STACK.pop()
        return False


_STACK: list[KernelConfig] = []


def resolve_backend(explicit: str | None = None) -> str:
    """The backend the next dynamic dispatch would use.

    Applies the documented resolution order; raises ``ValueError`` on an
    unknown explicit name.
    """
    if explicit is not None:
        _check_backend(explicit)
        return explicit
    for config in reversed(_STACK):
        if config.backend is not None:
            return config.backend
    return DEFAULT_BACKEND


def get_kernel(name: str, backend: str | None = None):
    """A callable for kernel ``name``.

    With ``backend=None`` (the normal call-site form) the returned
    callable re-resolves the active backend on **every call**, so
    :class:`KernelConfig` contexts affect kernels fetched earlier.  With
    an explicit backend it is pinned to that implementation.  Either way
    the call is wrapped in a ``kernel.<name>`` tracing span when
    observability is enabled.
    """
    impls = _kernel_impls(name)
    if backend is not None:
        _check_backend(backend)
        return _spanned(name, backend, impls[backend])
    return _dispatcher(name)


def _kernel_impls(name: str) -> dict[str, object]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; available: {list(available_kernels())}"
        ) from None


def _spanned(name: str, backend: str, impl):
    @functools.wraps(impl)
    def call(*args, **kwargs):
        if obs.ENABLED:
            with obs.span(f"kernel.{name}", backend=backend):
                return impl(*args, **kwargs)
        return impl(*args, **kwargs)

    return call


@functools.lru_cache(maxsize=None)
def _dispatcher(name: str):
    impls = _REGISTRY[name]

    def call(*args, **kwargs):
        backend = resolve_backend()
        impl = impls[backend]
        if obs.ENABLED:
            with obs.span(f"kernel.{name}", backend=backend):
                return impl(*args, **kwargs)
        return impl(*args, **kwargs)

    call.__name__ = call.__qualname__ = f"kernel:{name}"
    return call


# Importing the backends registers every kernel; WindowStats is part of
# the public window_stats contract.
from .reference import WindowStats  # noqa: E402
from . import reference, vectorized  # noqa: E402,F401
