"""Programmatic access to every evaluation experiment in the paper.

Each ``figure*``/``table*`` function computes one figure or table's data
and returns a typed result; the benches under ``benchmarks/`` are thin
wrappers that print these results and assert the paper's shape claims.
Downstream users can regenerate any experiment directly:

    from repro.experiments import simulate_suite, figure9
    nets = {150: calibrated_supply(150)}
    traces = simulate_suite(cycles=32768)
    fig9 = figure9(calibrated_supply(150), traces)
    print(fig9.rms_error)

The heavy sweeps all route through :mod:`repro.pipeline`: every function
that simulates or runs closed-loop control takes ``jobs`` (worker
processes) and ``cache_dir`` (on-disk result cache) keyword arguments,
so a 26-benchmark figure parallelizes across cores and re-runs only
recompute invalidated jobs.  ``characterize_suite`` is the pipeline-
native Figure 9: benchmark names in, estimate-vs-truth out.

All functions are deterministic for fixed inputs and seeds, with or
without workers and caching.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .core import (
    AnalogVoltageSensor,
    FullConvolutionMonitor,
    PipelineDampingController,
    ShiftRegisterMonitor,
    TracePrediction,
    WaveletVoltageEstimator,
    benchmark_voltage_histogram,
    coefficient_error_curve,
    gaussianity_study,
    predict_trace,
)
from .kernels import resolve_backend
from .obs import trace as obs
from .pipeline import (
    BatchOptions,
    JobSpec,
    build_characterization_jobs,
    build_control_jobs,
    control_results_from,
    predictions_from,
    submit,
)
from .power import PowerSupplyNetwork
from .stats import VoltageHistogram, study_windows
from .uarch import SimulationResult
from .workloads import SPEC2000, SPEC_INT

__all__ = [
    "PROBLEMATIC",
    "QUIET",
    "LOW_L2_MISS",
    "HIGH_L2_MISS",
    "ExperimentResult",
    "ExperimentResultBase",
    "simulate_suite",
    "characterize_suite",
    "Figure6Result",
    "figure6",
    "Figure7Result",
    "figure7",
    "Figure8Result",
    "figure8",
    "Figure9Result",
    "figure9",
    "Figure1011Result",
    "figures10_11",
    "Figure12Result",
    "figure12",
    "figure13",
    "Figure15Result",
    "figure15",
    "Table2Row",
    "table2",
]

@runtime_checkable
class ExperimentResult(Protocol):
    """What every figure/table result can do, regardless of its shape.

    The CLI, the JSONL observability writer and any future service layer
    serialize results through this one surface instead of knowing each
    dataclass: ``to_dict()`` is the full JSON-ready payload,
    ``summary()`` the flat dict of headline scalars.
    """

    def to_dict(self) -> dict: ...

    def summary(self) -> dict: ...


def _jsonify(value):
    """Recursively convert a result payload to JSON-ready types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return fields
    if isinstance(value, dict):
        return {_json_key(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, range):
        return list(value)
    return value


def _json_key(key) -> str:
    """Dict keys as JSON strings; tuple keys join with ``:``."""
    if isinstance(key, tuple):
        return ":".join(str(k) for k in key)
    return str(key)


class ExperimentResultBase:
    """Shared :class:`ExperimentResult` implementation for the frozen
    per-figure dataclasses below."""

    def to_dict(self) -> dict:
        """The whole result as one JSON-ready dict."""
        return {
            "experiment": type(self).__name__,
            **_jsonify(self),
        }

    def summary(self) -> dict:
        """Headline scalars only; subclasses override with their own."""
        return {"experiment": type(self).__name__}


#: The paper's benchmark groupings (§4.2 and Figures 10/11).
PROBLEMATIC = ("mgrid", "gcc", "galgel", "apsi")
QUIET = ("vpr", "mcf", "equake", "gap")
LOW_L2_MISS = ("gzip", "mesa", "crafty", "eon")
HIGH_L2_MISS = ("swim", "lucas", "mcf", "art")


def _suite_of(name: str) -> str:
    return "int" if name in SPEC_INT else "fp"


def simulate_suite(
    cycles: int = 24576,
    names: tuple[str, ...] | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> dict[str, SimulationResult]:
    """Current traces for the whole (or a subset of the) SPEC2000 suite.

    Runs through the batch pipeline: ``jobs`` worker processes simulate
    in parallel, and with ``cache_dir`` set the traces persist across
    processes and sessions.
    """
    names = tuple(SPEC2000) if names is None else names
    specs = [
        JobSpec(name, cycles=cycles, stages=("simulate",)) for name in names
    ]
    with obs.span(
        "experiment.simulate_suite", benchmarks=len(names), cycles=cycles
    ):
        batch = submit(specs, BatchOptions(jobs=jobs, cache_dir=cache_dir))
    return {
        o.spec.benchmark: o.artifacts["simulate"] for o in batch.outcomes
    }


def characterize_suite(
    network: PowerSupplyNetwork,
    names: tuple[str, ...] | None = None,
    cycles: int = 32768,
    threshold: float = 0.97,
    jobs: int = 1,
    cache_dir: str | None = None,
    seed: int | None = None,
) -> Figure9Result:
    """Figure 9 end to end through the pipeline: names in, result out.

    Equivalent to ``figure9(network, simulate_suite(cycles, names))`` but
    declarative — simulation, convolution truth and wavelet estimate run
    as cacheable pipeline stages across ``jobs`` workers.
    """
    names = tuple(SPEC2000) if names is None else names
    specs = build_characterization_jobs(
        names, network, cycles=cycles, threshold=threshold, seed=seed
    )
    with obs.span(
        "experiment.characterize_suite",
        benchmarks=len(names),
        cycles=cycles,
        threshold=threshold,
        kernel_backend=resolve_backend(),
    ):
        batch = submit(specs, BatchOptions(jobs=jobs, cache_dir=cache_dir))
    return Figure9Result(
        threshold=threshold, predictions=predictions_from(batch)
    )


# -- Figure 6 -----------------------------------------------------------------


@dataclass(frozen=True)
class Figure6Result(ExperimentResultBase):
    """Gaussian-window acceptance rates by suite and window size."""

    windows: tuple[int, ...]
    rates: dict[str, dict[int, float]]  # suite ("int"/"fp"/"all") -> size -> rate

    def summary(self) -> dict:
        return {
            "experiment": "figure6",
            **{
                f"acceptance_all_w{w}": self.rates["all"][w]
                for w in self.windows
            },
        }


def figure6(
    traces: dict[str, SimulationResult],
    windows: tuple[int, ...] = (32, 64, 128),
    samples_per_size: int = 80,
    seed: int = 7,
) -> Figure6Result:
    """χ² Gaussianity acceptance of random current windows (§4.1)."""
    per_suite: dict[str, dict[int, list[float]]] = {
        "int": {w: [] for w in windows},
        "fp": {w: [] for w in windows},
    }
    for name, result in traces.items():
        study = gaussianity_study(
            result, windows=windows, samples_per_size=samples_per_size,
            seed=seed,
        )
        for w in windows:
            per_suite[_suite_of(name)][w].append(study.acceptance_rate(w))
    rates: dict[str, dict[int, float]] = {}
    for suite in ("int", "fp"):
        rates[suite] = {
            w: float(np.mean(per_suite[suite][w])) for w in windows
        }
    rates["all"] = {
        w: float(np.mean(per_suite["int"][w] + per_suite["fp"][w]))
        for w in windows
    }
    return Figure6Result(windows=windows, rates=rates)


# -- Figure 7 -----------------------------------------------------------------


@dataclass(frozen=True)
class Figure7Result(ExperimentResultBase):
    """(non-Gaussian, overall) mean window variance per group and size."""

    windows: tuple[int, ...]
    rows: dict[int, dict[str, tuple[float, float]]]

    def summary(self) -> dict:
        out = {"experiment": "figure7"}
        for w in self.windows:
            non_gauss, overall = self.rows[w]["all"]
            out[f"variance_ratio_w{w}"] = (
                non_gauss / overall if overall else 0.0
            )
        return out


def figure7(
    traces: dict[str, SimulationResult],
    windows: tuple[int, ...] = (32, 64, 128),
    samples_per_size: int = 80,
    seed: int = 17,
) -> Figure7Result:
    """Current variance of non-Gaussian windows vs. overall (§4.1)."""
    rows: dict[int, dict[str, tuple[float, float]]] = {}
    for w in windows:
        rng = np.random.default_rng(seed)
        groups: dict[str, dict[str, list[float]]] = {
            key: {"non_gauss": [], "overall": []}
            for key in ("all", "non_resonant", "int", "fp")
        }
        for name, result in traces.items():
            study = study_windows(result.current, w, samples_per_size, rng)
            keys = ["all", _suite_of(name)]
            if name not in PROBLEMATIC:
                keys.append("non_resonant")
            for key in keys:
                groups[key]["overall"].append(study.overall_variance)
                if study.total > study.gaussian:
                    groups[key]["non_gauss"].append(
                        study.non_gaussian_variance
                    )
        rows[w] = {
            key: (
                float(np.mean(g["non_gauss"])) if g["non_gauss"] else 0.0,
                float(np.mean(g["overall"])),
            )
            for key, g in groups.items()
        }
    return Figure7Result(windows=windows, rows=rows)


# -- Figure 8 -----------------------------------------------------------------


@dataclass(frozen=True)
class Figure8Result(ExperimentResultBase):
    """Per-benchmark level-truncation errors."""

    variance_error: dict[str, float]  # relative error of the variance
    estimate_shift: dict[str, float]  # abs shift of the Fig-9 estimate
    kept_levels: dict[str, list[int]]

    def summary(self) -> dict:
        return {
            "experiment": "figure8",
            "benchmarks": len(self.variance_error),
            "max_variance_error": max(self.variance_error.values(), default=0.0),
            "max_estimate_shift": max(self.estimate_shift.values(), default=0.0),
        }


def figure8(
    network: PowerSupplyNetwork,
    traces: dict[str, SimulationResult],
    keep: int = 4,
    threshold: float = 0.97,
) -> Figure8Result:
    """Estimating voltage variance with ``keep`` of 8 levels (§4.1)."""
    full = WaveletVoltageEstimator(network)
    variance_error, estimate_shift, kept_levels = {}, {}, {}
    for name, result in traces.items():
        trace = result.current
        kept = full.top_levels_for(trace, keep)
        truncated = WaveletVoltageEstimator(
            network, keep_levels=kept, factors=full.factors
        )
        v_full = full.estimate_voltage_variance(trace)
        v_trunc = truncated.estimate_voltage_variance(trace)
        variance_error[name] = (
            abs(v_full - v_trunc) / v_full if v_full > 0 else 0.0
        )
        f_full = full.estimate_fraction_below(trace, threshold)
        f_trunc = truncated.estimate_fraction_below(trace, threshold)
        estimate_shift[name] = abs(f_full - f_trunc)
        kept_levels[name] = sorted(kept)
    return Figure8Result(
        variance_error=variance_error,
        estimate_shift=estimate_shift,
        kept_levels=kept_levels,
    )


# -- Figure 9 -----------------------------------------------------------------


@dataclass(frozen=True)
class Figure9Result(ExperimentResultBase):
    """Estimated vs. observed emergency exposure for the whole suite."""

    threshold: float
    predictions: dict[str, TracePrediction]

    def summary(self) -> dict:
        out = {
            "experiment": "figure9",
            "benchmarks": len(self.predictions),
            "threshold": self.threshold,
            "rms_error": self.rms_error,
        }
        if len(self.predictions) > 1:  # rank needs two points to mean anything
            out["rank_correlation"] = self.rank_correlation
        return out

    @property
    def rms_error(self) -> float:
        """Root-mean-square estimation error across benchmarks."""
        errs = np.array([p.error for p in self.predictions.values()])
        return float(np.sqrt(np.mean(errs**2)))

    @property
    def rank_correlation(self) -> float:
        """Spearman-style rank agreement between estimate and truth."""
        est = np.array([p.estimated for p in self.predictions.values()])
        obs = np.array([p.observed for p in self.predictions.values()])
        return float(
            np.corrcoef(
                np.argsort(np.argsort(est)), np.argsort(np.argsort(obs))
            )[0, 1]
        )


def figure9(
    network: PowerSupplyNetwork,
    traces: dict[str, SimulationResult],
    threshold: float = 0.97,
) -> Figure9Result:
    """The headline offline result (§4.2)."""
    estimator = WaveletVoltageEstimator(network)
    predictions = {
        name: predict_trace(network, result.current, threshold, name, estimator)
        for name, result in traces.items()
    }
    return Figure9Result(threshold=threshold, predictions=predictions)


# -- Figures 10/11 -------------------------------------------------------------


@dataclass(frozen=True)
class Figure1011Result(ExperimentResultBase):
    """Voltage histograms and nominal-voltage spikes per benchmark."""

    histograms: dict[str, VoltageHistogram]
    spike_ratios: dict[str, float]

    def summary(self) -> dict:
        return {
            "experiment": "figures10_11",
            "benchmarks": len(self.histograms),
            "max_spike_ratio": max(self.spike_ratios.values(), default=0.0),
        }


def figures10_11(
    network: PowerSupplyNetwork,
    traces: dict[str, SimulationResult],
    names: tuple[str, ...] = LOW_L2_MISS + HIGH_L2_MISS,
    bins: int = 30,
) -> Figure1011Result:
    """Voltage distributions by L2-miss class (§4.3)."""
    histograms = {
        name: benchmark_voltage_histogram(network, traces[name], bins=bins)
        for name in names
    }
    spikes = {
        name: hist.spike_ratio(network.vdd, 0.004)
        for name, hist in histograms.items()
    }
    return Figure1011Result(histograms=histograms, spike_ratios=spikes)


# -- Figure 12 -----------------------------------------------------------------


@dataclass(frozen=True)
class Figure12Result(ExperimentResultBase):
    """Per-benchmark 64-cycle current Gaussianity and L2 pressure."""

    rates: dict[str, float]
    l2_mpki: dict[str, float]

    def summary(self) -> dict:
        out = {"experiment": "figure12", "benchmarks": len(self.rates)}
        if len(self.rates) > 1:
            out["rank_correlation"] = self.rank_correlation
        return out

    @property
    def rank_correlation(self) -> float:
        """Rank correlation between L2 MPKI and Gaussianity (negative)."""
        m = np.array([self.l2_mpki[n] for n in self.rates])
        r = np.array([self.rates[n] for n in self.rates])
        return float(
            np.corrcoef(np.argsort(np.argsort(m)), np.argsort(np.argsort(r)))[
                0, 1
            ]
        )


def figure12(
    traces: dict[str, SimulationResult],
    samples_per_size: int = 120,
    seed: int = 7,
) -> Figure12Result:
    """Gaussianity vs. L2 misses across the suite (§4.3)."""
    rates, mpki = {}, {}
    for name, result in traces.items():
        study = gaussianity_study(
            result, windows=(64,), samples_per_size=samples_per_size,
            seed=seed,
        )
        rates[name] = study.acceptance_rate(64)
        mpki[name] = result.stats.l2_mpki
    return Figure12Result(rates=rates, l2_mpki=mpki)


# -- Figure 13 -----------------------------------------------------------------


def figure13(
    networks: dict[float, PowerSupplyNetwork],
    trace: np.ndarray,
    term_counts: list[int] | range = range(1, 31),
) -> dict[float, dict[int, float]]:
    """Monitor max error vs. wavelet term count per impedance (§5.1)."""
    return {
        pct: coefficient_error_curve(net, trace, term_counts)
        for pct, net in networks.items()
    }


# -- Figure 15 -----------------------------------------------------------------


@dataclass(frozen=True)
class Figure15Result(ExperimentResultBase):
    """Per-(impedance, benchmark) control outcomes."""

    results: dict[tuple[float, str], object]
    names: tuple[str, ...]

    def summary(self) -> dict:
        percents = sorted({pct for pct, _ in self.results})
        return {
            "experiment": "figure15",
            "benchmarks": len(self.names),
            **{
                f"mean_slowdown_{pct:g}pct": self.mean_slowdown(pct)
                for pct in percents
            },
        }

    def mean_slowdown(self, percent: float) -> float:
        """Average slowdown at one impedance point."""
        return float(
            np.mean(
                [self.results[(percent, n)].slowdown for n in self.names]
            )
        )


#: Figure-13-informed term counts per impedance point.
TERMS_FOR_PERCENT = {125.0: 9, 150.0: 13, 200.0: 20}


def figure15(
    networks: dict[float, PowerSupplyNetwork],
    names: tuple[str, ...],
    cycles: int = 10240,
    margin: float = 0.012,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> Figure15Result:
    """Closed-loop wavelet control over the suite (§5.3).

    Every (impedance, benchmark) cell is an independent pipeline control
    job, so the sweep parallelizes across ``jobs`` workers.
    """
    specs, cells = [], []
    for pct, net in networks.items():
        terms = TERMS_FOR_PERCENT.get(pct, 13)
        specs.extend(
            build_control_jobs(
                names,
                net,
                scheme="wavelet",
                cycles=cycles,
                impedance=pct,
                terms=terms,
                margin=margin,
            )
        )
        cells.extend((pct, name) for name in names)
    with obs.span("experiment.figure15", cells=len(cells), cycles=cycles):
        batch = submit(specs, BatchOptions(jobs=jobs, cache_dir=cache_dir))
    results = dict(zip(cells, control_results_from(batch)))
    return Figure15Result(results=results, names=tuple(names))


# -- Table 2 -------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row(ExperimentResultBase):
    """Quantified Table-2 columns for one scheme."""

    scheme: str
    mean_slowdown: float
    max_slowdown: float
    false_positive_rate: float
    fault_reduction: float
    ops_per_cycle: int

    def summary(self) -> dict:
        return {
            "experiment": "table2",
            "scheme": self.scheme,
            "mean_slowdown": self.mean_slowdown,
            "fault_reduction": self.fault_reduction,
            "ops_per_cycle": self.ops_per_cycle,
        }


def table2(
    network: PowerSupplyNetwork,
    workloads: tuple[str, ...] = ("mgrid", "gcc", "gzip"),
    cycles: int = 10240,
    margin: float = 0.012,
    damping_delta: float = 6.0,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> dict[str, Table2Row]:
    """All four dI/dt schemes, closed loop, side by side (§6).

    The scheme x workload grid runs as one pipeline batch; the
    controller for each cell is built declaratively inside the worker
    from the spec's ``scheme`` params.
    """
    schemes: dict[str, tuple[dict, int]] = {
        "analog": (
            {"scheme": "analog", "sensor_delay": 2, "margin": margin},
            AnalogVoltageSensor(network).ops_per_cycle,
        ),
        "full_conv": (
            {"scheme": "fullconv", "margin": margin},
            FullConvolutionMonitor(network).ops_per_cycle,
        ),
        "damping": (
            {
                "scheme": "damping",
                "damping_delta": damping_delta,
                "damping_window": 8,
            },
            PipelineDampingController(network, delta=damping_delta).ops_per_cycle,
        ),
        "wavelet": (
            {"scheme": "wavelet", "terms": 13, "margin": margin},
            ShiftRegisterMonitor(network, terms=13).adds_per_cycle,
        ),
    }
    specs, owners = [], []
    for scheme, (params, _) in schemes.items():
        kind = params["scheme"]
        extra = {k: v for k, v in params.items() if k != "scheme"}
        specs.extend(
            build_control_jobs(
                workloads, network, scheme=kind, cycles=cycles, **extra
            )
        )
        owners.extend(scheme for _ in workloads)
    batch = submit(specs, BatchOptions(jobs=jobs, cache_dir=cache_dir))
    per_scheme: dict[str, list] = {s: [] for s in schemes}
    for scheme, result in zip(owners, control_results_from(batch)):
        per_scheme[scheme].append(result)
    rows: dict[str, Table2Row] = {}
    for scheme, (_, ops) in schemes.items():
        slowdowns, fp_rates, fault_cuts = [], [], []
        for r in per_scheme[scheme]:
            slowdowns.append(r.slowdown)
            fp_rates.append(r.false_positive_rate)
            if r.baseline_faults:
                fault_cuts.append(1 - r.controlled_faults / r.baseline_faults)
        rows[scheme] = Table2Row(
            scheme=scheme,
            mean_slowdown=float(np.mean(slowdowns)),
            max_slowdown=float(np.max(slowdowns)),
            false_positive_rate=float(np.mean(fp_rates)),
            fault_reduction=float(np.mean(fault_cuts)) if fault_cuts else 1.0,
            ops_per_cycle=ops,
        )
    return rows
