"""repro: a reproduction of "Wavelet Analysis for Microprocessor Design:
Experiences with Wavelet-Based dI/dt Characterization" (HPCA 2004).

Subpackages
-----------
``repro.wavelets``
    From-scratch discrete wavelet transform library (Haar/Daubechies,
    subbands, scalograms, wavelet variance, subband convolution).
``repro.power``
    Second-order power-delivery-network model, impulse/frequency
    responses, voltage simulation, target-impedance calibration.
``repro.uarch``
    Out-of-order superscalar simulator (Table 1 machine) with
    Wattch-style activity-based power accounting.
``repro.workloads``
    Synthetic SPEC CPU2000 workload models and the dI/dt stressmark.
``repro.stats``
    Gaussian models, chi-squared Gaussianity testing, windowed statistics.
``repro.core``
    The paper's contribution: offline wavelet-variance voltage
    characterization and the online truncated wavelet-convolution
    voltage monitor with closed-loop dI/dt control, plus baselines.
``repro.pipeline``
    Parallel batch-characterization pipeline: declarative job specs, a
    stage registry, a multiprocessing executor and a content-addressed
    on-disk result cache.
"""

import time as _time

# Wall and CPU clocks when this package began to import: the start of
# the ``process.import`` span that ``repro.cli.main`` emits.
_IMPORT_STARTED = (_time.perf_counter(), _time.process_time())

# Version first: repro.pipeline folds it into cache keys at import time.
__version__ = "1.0.0"

__all__ = [
    "core",
    "errors",
    "pipeline",
    "power",
    "stats",
    "uarch",
    "wavelets",
    "workloads",
]


def __getattr__(name: str):
    # Subpackages load on first use, so a command imports only what it
    # runs: ``repro control`` never loads ``repro.pipeline``.
    if name in __all__:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
