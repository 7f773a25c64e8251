"""Command-line interface: ``python -m repro <command>``.

Four commands cover the repo's main flows:

* ``list`` — the 26 available benchmark models and their suites.
* ``simulate`` — run one benchmark on the Table-1 machine, show run
  statistics and the current waveform.
* ``characterize`` — the paper's offline §4 pipeline: estimated vs.
  observed emergency exposure for one or more benchmarks, optionally
  across ``--jobs`` worker processes with an on-disk result cache.
* ``pipeline`` — the batch-characterization subsystem: ``run`` a whole
  suite through the worker pool with per-job timing and cache-hit
  accounting, ``status``/``clear`` the content-addressed result cache.
* ``control`` — the paper's online §5 pipeline: closed-loop dI/dt control
  with a selectable scheme, reporting slowdown and fault suppression.
* ``phases`` — wavelet-signature phase classification with per-phase
  dI/dt exposure.
* ``breakdown`` — Wattch-style per-unit power breakdown of a benchmark.
* ``sizing`` — the largest target impedance a workload set tolerates.
* ``report`` — the whole evaluation as one text report.
* ``store`` — the zero-copy trace store (``docs/STORE.md``): ``ingest``
  benchmarks or external files into a corpus, ``ls`` it, ``verify``
  integrity, ``gc`` reclaimable bytes; ``pipeline run --store DIR``
  characterizes the stored corpus without re-simulating.
* ``obs`` — observability utilities: ``obs report`` renders a JSONL
  log, ``obs chrome`` converts one to a Perfetto-viewable Chrome trace,
  ``obs serve`` exposes a recorded log over the live HTTP endpoint.
* ``serve`` — the characterization service (``docs/SERVE.md``): an
  asyncio front-end that answers cache hits without a worker, coalesces
  misses into pool batches, enforces per-client quotas and bounded
  admission, streams results as chunked JSONL and drains gracefully on
  SIGTERM.  Binds port 0 by default and prints (and ``--port-file``
  writes) the actual bound address, so nothing ever races on a fixed
  port.
* ``loadgen`` — deterministic constant/Poisson/burst load against a
  live server; prints (and ``--output`` writes as JSON) requests/sec,
  p50/p99 latency and the cache-hit ratio.

Every command accepts the global ``--obs {off,summary,jsonl,prom,chrome}``
flag (before or after the subcommand) selecting the telemetry exporter,
plus ``--obs-path`` for the log location, ``--obs-listen HOST:PORT`` to
serve live ``/metrics``, ``/healthz`` and ``/events`` endpoints while
the command runs, and ``--obs-profile SECONDS`` to start the continuous
resource profiler at that sampling period (supervisor and every pool
worker); see ``docs/OBSERVABILITY.md``.

Exit codes are uniform across commands: 0 — success; 1 — the work ran
but some of it failed (a partial-failure batch, a failed job); 2 — the
invocation itself was wrong (argparse errors, conflicting flags); 3 —
an internal error (a genuine bug; the only case that prints a
traceback).  Job-level failures print the batch's structured failure
report instead of a traceback; see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback

import numpy as np

from .errors import ReproError, SpecError, UsageError

from . import _IMPORT_STARTED, obs, viz
from .core import (
    AnalogVoltageSensor,
    FullConvolutionMonitor,
    PipelineDampingController,
    ThresholdController,
    WaveletVoltageMonitor,
    calibrated_supply,
    run_control_experiment,
)
from .power import default_tap_count
from .uarch import simulate_benchmark
from .wavelets import next_pow2
from .workloads import SPEC2000, SPEC_FP, SPEC_INT

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_PARTIAL",
    "EXIT_USAGE",
    "EXIT_INTERNAL",
]


OBS_MODES = ("off", "summary", "jsonl", "prom", "chrome")

#: Uniform CLI exit codes (see the module docstring).
EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def _window(text: str) -> int:
    """argparse type: a characterization window the §4 estimator accepts."""
    from .core.characterization import _levels_for_window

    window = int(text)
    try:
        _levels_for_window(window)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text}") from None
    return window


def _require_one_window(specs) -> None:
    """Refuse, before any simulation, a job whose trace would be shorter
    than its characterization window: a usage error, not a job failure."""
    for spec in specs:
        if spec.cycles < spec.window:
            raise UsageError(
                f"{spec.benchmark} would run {spec.cycles} cycles, fewer "
                f"than one {spec.window}-cycle characterization window; "
                f"--cycles must be at least {spec.window}"
            )


def _obs_options() -> argparse.ArgumentParser:
    """Shared ``--obs`` options, attachable to any subparser.

    Subparsers default to ``SUPPRESS`` so a flag given after the
    subcommand overrides the root default while its absence leaves the
    root-level value (``repro --obs summary pipeline run`` and
    ``repro pipeline run --obs summary`` both work).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--obs",
        choices=OBS_MODES,
        default=argparse.SUPPRESS,
        help="telemetry exporter: console summary, JSONL log, "
             "Prometheus dump, Chrome trace (default off)",
    )
    parent.add_argument(
        "--obs-path",
        default=argparse.SUPPRESS,
        help="log path for --obs jsonl/chrome (defaults "
             "repro-obs.jsonl / repro-trace.json)",
    )
    parent.add_argument(
        "--obs-listen",
        default=argparse.SUPPRESS,
        metavar="HOST:PORT",
        help="serve live /metrics, /healthz and /events while running "
             "(implies --obs summary when --obs is off)",
    )
    parent.add_argument(
        "--obs-profile",
        type=float,
        default=argparse.SUPPRESS,
        metavar="SECONDS",
        help="continuous resource-profiler sampling period for the "
             "supervisor and every pool worker (default off)",
    )
    parent.add_argument(
        "--obs-port-file",
        default=argparse.SUPPRESS,
        metavar="PATH",
        help="write the bound obs endpoint address as 'host port' "
             "(use with --obs-listen HOST:0 for ephemeral ports)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wavelet-based dI/dt characterization (HPCA 2004 repro)",
    )
    parser.add_argument(
        "--obs",
        choices=OBS_MODES,
        default="off",
        help="telemetry exporter (see docs/OBSERVABILITY.md)",
    )
    parser.add_argument("--obs-path", default=None, help=argparse.SUPPRESS)
    parser.add_argument(
        "--obs-listen",
        default=None,
        metavar="HOST:PORT",
        help="serve live /metrics, /healthz and /events while running",
    )
    parser.add_argument(
        "--obs-profile",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="resource-profiler sampling period (default off)",
    )
    parser.add_argument(
        "--obs-port-file",
        default=None,
        metavar="PATH",
        help="write the bound obs endpoint address as 'host port' "
             "(use with --obs-listen HOST:0 for ephemeral ports)",
    )
    obs_opts = _obs_options()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list available benchmark models", parents=[obs_opts]
    )

    sim = sub.add_parser(
        "simulate", help="simulate one benchmark", parents=[obs_opts]
    )
    sim.add_argument("benchmark", choices=sorted(SPEC2000))
    sim.add_argument("--cycles", type=_positive_int, default=16384)

    char = sub.add_parser(
        "characterize", help="offline §4 characterization",
        parents=[obs_opts],
    )
    # no argparse choices= here: nargs="*" rejects the empty list against
    # them (the --scenario-only form passes no benchmarks); validated in
    # the handler instead
    char.add_argument("benchmarks", nargs="*", metavar="benchmark",
                      help="SPEC2000 benchmark models to characterize")
    char.add_argument("--scenario", action="append", default=None,
                      metavar="NAME",
                      help="also characterize a named scenario, atomic "
                           "stress profile, or schedule expression (see "
                           "'repro scenario ls'); repeatable")
    char.add_argument("--cycles", type=_positive_int, default=32768)
    char.add_argument("--impedance", type=float, default=150.0,
                      help="target impedance percent (default 150)")
    char.add_argument("--threshold", type=float, default=0.97)
    char.add_argument("--jobs", type=int, default=1,
                      help="worker processes (default 1; -1 = all cores)")
    char.add_argument("--cache-dir", default=None,
                      help="on-disk result cache directory (default: none)")

    ctl = sub.add_parser(
        "control", help="closed-loop §5 dI/dt control", parents=[obs_opts]
    )
    ctl.add_argument("benchmark", choices=sorted(SPEC2000))
    ctl.add_argument("--cycles", type=_positive_int, default=12288)
    ctl.add_argument("--impedance", type=float, default=150.0)
    ctl.add_argument("--terms", type=int, default=13,
                     help="wavelet coefficient terms (K)")
    ctl.add_argument("--margin-mv", type=float, default=12.0,
                     help="control threshold tolerance in millivolts")
    ctl.add_argument(
        "--scheme",
        choices=("wavelet", "fullconv", "analog", "damping"),
        default="wavelet",
    )
    ctl.add_argument("--damping-delta", type=float, default=6.0)

    ph = sub.add_parser(
        "phases", help="phase-resolved dI/dt exposure", parents=[obs_opts]
    )
    ph.add_argument("benchmark", choices=sorted(SPEC2000))
    ph.add_argument("--cycles", type=_positive_int, default=32768)
    ph.add_argument("--phases", type=_positive_int, default=3)
    ph.add_argument("--impedance", type=float, default=150.0)

    bd = sub.add_parser(
        "breakdown", help="per-unit power breakdown", parents=[obs_opts]
    )
    bd.add_argument("benchmark", choices=sorted(SPEC2000))
    bd.add_argument("--cycles", type=_positive_int, default=8192)

    sz = sub.add_parser(
        "sizing", help="max tolerable target impedance for a workload set",
        parents=[obs_opts],
    )
    sz.add_argument("benchmarks", nargs="+", choices=sorted(SPEC2000))
    sz.add_argument("--cycles", type=_positive_int, default=16384)
    sz.add_argument("--budget", type=float, default=0.0,
                    help="allowed fraction of fault cycles (default 0)")

    rep = sub.add_parser(
        "report", help="run the evaluation and print a report",
        parents=[obs_opts],
    )
    rep.add_argument("--cycles", type=_positive_int, default=16384)
    rep.add_argument("--full", action="store_true",
                     help="all 26 benchmarks (slow) instead of the quick subset")
    rep.add_argument("--no-control", action="store_true",
                     help="skip the closed-loop Table-2 section")

    pipe = sub.add_parser(
        "pipeline", help="parallel batch characterization with result cache"
    )
    psub = pipe.add_subparsers(dest="pipeline_command", required=True)
    prun = psub.add_parser(
        "run", help="run a characterization batch", parents=[obs_opts]
    )
    prun.add_argument("--suite", choices=("spec2000", "int", "fp"),
                      default=None, help="run a whole benchmark suite")
    prun.add_argument("--benchmarks", nargs="+", choices=sorted(SPEC2000),
                      default=None, metavar="NAME",
                      help="explicit benchmark list (alternative to --suite)")
    prun.add_argument("--jobs", type=int, default=1,
                      help="worker processes (default 1; -1 = all cores)")
    prun.add_argument("--cycles", type=_positive_int, default=32768)
    prun.add_argument("--impedance", type=float, default=150.0)
    prun.add_argument("--threshold", type=float, default=0.97)
    prun.add_argument("--window", type=_window, default=256)
    prun.add_argument("--seed", type=int, default=None)
    prun.add_argument("--cache-dir", default=".repro-cache",
                      help="result cache directory (default .repro-cache)")
    prun.add_argument("--no-cache", action="store_true",
                      help="compute everything fresh, touch no cache")
    prun.add_argument("--resume", action="store_true",
                      help="satisfy fully-cached jobs from disk without "
                           "occupying the pool (pick up an aborted batch)")
    prun.add_argument("--retries", type=int, default=2,
                      help="retry budget per job after the first attempt "
                           "(default 2)")
    prun.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                      help="per-job wall-clock budget; a job over budget is "
                           "killed and requeued (default: none)")
    prun.add_argument("--backoff", type=float, default=0.5, metavar="SECONDS",
                      help="base retry backoff, doubling per attempt with "
                           "deterministic jitter (default 0.5)")
    prun.add_argument("--inject-faults", default=None, metavar="PLAN",
                      help="deterministic fault plan (or a named plan like "
                           "'ci-plan'); see docs/ROBUSTNESS.md")
    prun.add_argument("--store", default=None, metavar="DIR",
                      help="characterize stored traces from this trace-store "
                           "directory (zero-copy attach) instead of "
                           "re-simulating; --benchmarks filters the corpus")
    pstat = psub.add_parser(
        "status", help="show result-cache contents", parents=[obs_opts]
    )
    pstat.add_argument("--cache-dir", default=".repro-cache")
    pclear = psub.add_parser(
        "clear", help="delete every cache entry", parents=[obs_opts]
    )
    pclear.add_argument("--cache-dir", default=".repro-cache")

    scen = sub.add_parser(
        "scenario",
        help="composable stress scenarios (see docs/SCENARIOS.md)",
    )
    scsub = scen.add_subparsers(dest="scenario_command", required=True)
    scsub.add_parser(
        "ls",
        help="list atomic stress profiles and catalog scenarios",
        parents=[obs_opts],
    )
    scshow = scsub.add_parser(
        "show",
        help="describe one scenario, profile or expression",
        parents=[obs_opts],
    )
    scshow.add_argument("name", metavar="NAME",
                        help="catalog scenario, atomic profile, or "
                             "schedule expression")
    scrun = scsub.add_parser(
        "run", help="characterize scenarios through the pipeline",
        parents=[obs_opts],
    )
    scrun.add_argument("scenarios", nargs="+", metavar="NAME",
                       help="catalog scenarios, atomic profiles, or "
                            "schedule expressions")
    scrun.add_argument("--cycles", type=_positive_int, default=None,
                       help="override each scenario's own cycle count")
    scrun.add_argument("--seed", type=int, default=None)
    scrun.add_argument("--warmup-cycles", type=int, default=512)
    scrun.add_argument("--impedance", type=float, default=150.0)
    scrun.add_argument("--threshold", type=float, default=0.97)
    scrun.add_argument("--window", type=_window, default=256)
    scrun.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1; -1 = all cores)")
    scrun.add_argument("--cache-dir", default=None,
                       help="on-disk result cache directory (default: none)")
    scrun.add_argument("--no-cache", action="store_true",
                       help="compute everything fresh, touch no cache")

    storep = sub.add_parser(
        "store", help="zero-copy trace store (see docs/STORE.md)"
    )
    ssub = storep.add_subparsers(dest="store_command", required=True)
    sing = ssub.add_parser(
        "ingest", help="simulate benchmarks (or import a file) into a store",
        parents=[obs_opts],
    )
    # no argparse choices= here: nargs="*" rejects the empty list against
    # them (the --from-file form passes no benchmarks); validated in the
    # handler instead
    sing.add_argument("benchmarks", nargs="*", metavar="benchmark",
                      help="benchmarks to simulate and store")
    sing.add_argument("--store", default=".trace-store", metavar="DIR",
                      help="store directory (default .trace-store)")
    sing.add_argument("--cycles", type=_positive_int, default=32768)
    sing.add_argument("--seed", type=int, default=None)
    sing.add_argument("--warmup-cycles", type=int, default=4096)
    sing.add_argument("--dtype", choices=("float32", "float64"),
                      default=None,
                      help="stored sample dtype (default: the trace's own)")
    sing.add_argument("--from-file", default=None, metavar="PATH",
                      help="ingest an external trace file (.npy/.npz/.csv/"
                           ".txt) instead of simulating; requires a "
                           "benchmark label via --label")
    sing.add_argument("--label", default=None,
                      help="benchmark label for --from-file traces")
    sls = ssub.add_parser("ls", help="list stored traces", parents=[obs_opts])
    sls.add_argument("--store", default=".trace-store", metavar="DIR")
    sver = ssub.add_parser(
        "verify", help="check index/chunk integrity and content hashes",
        parents=[obs_opts],
    )
    sver.add_argument("--store", default=".trace-store", metavar="DIR")
    sgc = ssub.add_parser(
        "gc", help="compact chunks: reclaim removed/orphaned bytes",
        parents=[obs_opts],
    )
    sgc.add_argument("--store", default=".trace-store", metavar="DIR")

    obsp = sub.add_parser("obs", help="observability utilities")
    osub = obsp.add_subparsers(dest="obs_command", required=True)
    orep = osub.add_parser(
        "report", help="render a JSONL observability log"
    )
    orep.add_argument("log", help="path to a run's JSONL log")
    ochrome = osub.add_parser(
        "chrome",
        help="convert a JSONL log to a Chrome trace-event file "
             "(view in Perfetto or chrome://tracing)",
    )
    ochrome.add_argument("log", help="path to a run's JSONL log")
    ochrome.add_argument(
        "--output", default=None,
        help="trace-event JSON path (default repro-trace.json)",
    )
    oserve = osub.add_parser(
        "serve",
        help="serve /metrics, /healthz and /events over HTTP "
             "(from a recorded log, or empty-live for smoke tests)",
    )
    oserve.add_argument(
        "--listen", default="127.0.0.1:9100", metavar="HOST:PORT",
        help="bind address (default %(default)s; port 0 = ephemeral)",
    )
    oserve.add_argument(
        "--log", default=None,
        help="serve this recorded JSONL log's metrics and events",
    )
    oserve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop after this long (default: run until interrupted)",
    )
    oserve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the actual bound 'host port' here once listening "
             "(for scripts/CI using an ephemeral port)",
    )

    serve = sub.add_parser(
        "serve",
        help="characterization service (see docs/SERVE.md)",
        parents=[obs_opts],
    )
    serve.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="bind address (default %(default)s; port 0 = ephemeral, "
             "the real address is printed once bound)",
    )
    serve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the actual bound 'host port' here once listening",
    )
    serve.add_argument("--jobs", type=int, default=1,
                       help="pipeline worker processes (default 1)")
    serve.add_argument("--cache-dir", default=".repro-cache",
                       help="content-addressed result cache the fast "
                            "path answers from (default .repro-cache)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache (every request "
                            "computes; for benchmarking the miss path)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="trace-store directory served for "
                            "by-reference (trace_id) requests")
    serve.add_argument("--spool", default=None, metavar="DIR",
                       help="store directory inline uploads are "
                            "ingested into (default: a temp spool)")
    serve.add_argument("--quota-rate", type=float, default=0.0,
                       metavar="PER_S",
                       help="per-client token refill rate; 0 disables "
                            "quotas (default 0)")
    serve.add_argument("--quota-burst", type=float, default=8.0,
                       help="per-client token bucket depth (default 8)")
    serve.add_argument("--max-pending", type=int, default=32,
                       help="bounded admission: max unique jobs queued "
                            "or in flight before 503 (default 32)")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="max unique jobs per pool batch (default 8)")
    serve.add_argument("--retries", type=int, default=0,
                       help="per-job retry budget (default 0)")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock budget (forces the "
                            "supervised pool; default none)")
    serve.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="drain and exit after this long (default: "
                            "run until SIGTERM/SIGINT)")

    loadgen = sub.add_parser(
        "loadgen",
        help="deterministic load generation against a live `repro serve`",
        parents=[obs_opts],
    )
    loadgen.add_argument("--target", required=True, metavar="HOST:PORT",
                         help="the server's bound address (as printed "
                              "by `repro serve` / its --port-file)")
    loadgen.add_argument("--pattern", choices=("constant", "poisson",
                                               "burst"),
                         default="poisson",
                         help="arrival pattern (default poisson)")
    loadgen.add_argument("--rate", type=float, default=20.0,
                         help="offered load, requests/second "
                              "(default 20)")
    loadgen.add_argument("--count", type=int, default=40,
                         help="total requests (default 40)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="PRNG seed: same seed + knobs replays the "
                              "identical request sequence (default 0)")
    loadgen.add_argument("--burst-size", type=int, default=4,
                         help="arrivals per group for --pattern burst "
                              "(default 4)")
    loadgen.add_argument("--cycles", type=int, default=2048,
                         help="cycles per requested characterization "
                              "(default 2048)")
    loadgen.add_argument("--quick", action="store_true",
                         help="CI-smoke sizes (8 requests, small "
                              "cycles); marks the summary quick")
    loadgen.add_argument("--output", default=None, metavar="PATH",
                         help="also write the summary as JSON to PATH")
    return parser


def _cmd_list() -> str:
    lines = ["SPECint2000:"]
    lines += [f"  {name}" for name in SPEC_INT]
    lines.append("SPECfp2000:")
    lines += [f"  {name}" for name in SPEC_FP]
    return "\n".join(lines)


def _cmd_simulate(args) -> str:
    result = simulate_benchmark(args.benchmark, cycles=args.cycles)
    s = result.stats
    lines = [
        f"{args.benchmark}: {result.cycles} cycles, "
        f"{s.committed} instructions (IPC {s.ipc:.2f})",
        f"  branches     : {s.branches} "
        f"({s.misprediction_rate * 100:.1f}% mispredicted)",
        f"  L1D/L2 misses: {s.l1d_misses}/{s.l2_misses} "
        f"({s.l2_mpki:.1f} L2 MPKI)",
        f"  current      : {result.mean_current:.1f} A mean, "
        f"{result.current.std():.1f} A std",
        "",
        viz.line_plot(result.current[:4096], title="current (A), first 4K cycles"),
    ]
    return "\n".join(lines)


def _cmd_characterize(args) -> str:
    from .pipeline import (
        BatchOptions,
        build_characterization_jobs,
        build_scenario_jobs,
        prediction_from_outcome,
        submit,
    )

    unknown = sorted(set(args.benchmarks) - set(SPEC2000))
    if unknown:
        raise UsageError(
            f"unknown benchmark(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(SPEC2000))}"
        )
    scenarios = args.scenario or []
    if not args.benchmarks and not scenarios:
        raise UsageError("give benchmarks to characterize, or --scenario")
    net = calibrated_supply(args.impedance)
    specs = build_characterization_jobs(
        args.benchmarks,
        net,
        cycles=args.cycles,
        threshold=args.threshold,
        impedance=args.impedance,
    )
    if scenarios:
        # Unknown scenario names are a usage error (exit 2), not a
        # pipeline failure: surface the valid-name list on stderr.
        try:
            specs += build_scenario_jobs(
                scenarios,
                net,
                cycles=args.cycles,
                threshold=args.threshold,
                impedance=args.impedance,
            )
        except SpecError as exc:
            raise UsageError(str(exc)) from None
    _require_one_window(specs)
    batch = submit(
        specs, BatchOptions(jobs=args.jobs, cache_dir=args.cache_dir)
    )
    if len(batch.outcomes) == 1:
        outcome = batch.outcomes[0]
        p = prediction_from_outcome(outcome)
        contributions = outcome.artifacts["characterize"][
            "level_contributions"
        ]
        lines = [
            f"{p.name} at {args.impedance:.0f}% target impedance:",
            f"  estimated % cycles < {args.threshold} V : "
            f"{p.estimated * 100:.2f}%",
            f"  observed  % cycles < {args.threshold} V : "
            f"{p.observed * 100:.2f}%",
            f"  error                         : {p.error * 100:+.2f}%",
            "",
            viz.bar_chart(
                {
                    f"level {lvl}": v * 1e6
                    for lvl, v in contributions.items()
                },
                title="per-scale voltage-variance contribution (uV^2)",
                fmt="{:10.2f}",
            ),
        ]
        return "\n".join(lines)
    rows = {}
    for outcome in batch.outcomes:
        p = prediction_from_outcome(outcome)
        rows[p.name] = [
            p.estimated * 100,
            p.observed * 100,
            p.error * 100,
            outcome.elapsed,
        ]
    table = viz.table(
        rows,
        headers=["est %", "obs %", "err %", "secs"],
        title=f"{len(rows)} benchmarks at {args.impedance:.0f}% impedance "
              f"(threshold {args.threshold} V)",
    )
    return "\n".join(
        [
            table,
            "",
            _batch_footer(batch),
        ]
    )


def _batch_footer(batch) -> str:
    """Shared telemetry line: workers, stage runs, cache hits, wall time."""
    s = batch.summary()
    line = (
        f"{s['jobs']} jobs via {s['workers']} worker(s) in "
        f"{s['wall_s']:.2f}s: {s['stage_runs']} stage runs, "
        f"{s['cache_hits']} cache hits / {s['cache_misses']} misses"
    )
    if s["retries"]:
        line += f", {s['retries']} retries"
    if s["resumed"]:
        line += f", {s['resumed']} resumed"
    if s["errors"]:
        line += f", {s['errors']} errors"
    return line


def _cmd_pipeline_run(args) -> int:
    from .experiments import Figure9Result
    from .pipeline import (
        BatchOptions,
        build_characterization_jobs,
        build_store_jobs,
        faults,
        predictions_from,
        submit,
        suite_names,
    )

    if args.suite and args.benchmarks:
        raise UsageError("give either --suite or --benchmarks, not both")
    if args.suite and args.store:
        raise UsageError(
            "--store runs the stored corpus; --suite selects simulations "
            "— give one or the other (--benchmarks filters either)"
        )
    if args.retries < 0:
        raise UsageError("--retries must be non-negative")
    if args.inject_faults:
        faults.parse_plan(args.inject_faults)  # reject bad plans up front
    names = suite_names(args.suite or "spec2000")
    if args.benchmarks:
        names = tuple(args.benchmarks)
    cache_dir = None if args.no_cache else args.cache_dir
    if args.resume and not cache_dir:
        raise UsageError("--resume needs a cache (drop --no-cache)")
    options = BatchOptions(
        jobs=args.jobs,
        cache_dir=cache_dir,
        retries=args.retries,
        timeout_s=args.timeout,
        backoff_s=args.backoff,
        resume=args.resume,
        raise_on_error=False,  # degrade gracefully: report, don't raise
        store=args.store or None,
        fault_plan=args.inject_faults or None,
    )
    net = calibrated_supply(args.impedance)
    if args.store:
        from .store import TraceStore

        specs = build_store_jobs(
            TraceStore(args.store),
            net,
            benchmarks=tuple(args.benchmarks) if args.benchmarks else None,
            threshold=args.threshold,
            window=args.window,
            impedance=args.impedance,
        )
    else:
        specs = build_characterization_jobs(
            names,
            net,
            cycles=args.cycles,
            threshold=args.threshold,
            window=args.window,
            seed=args.seed,
            impedance=args.impedance,
        )
        _require_one_window(specs)

    def progress(outcome):
        if not outcome.ok:
            f = outcome.failure()
            print(
                f"  {outcome.spec.benchmark:<10} FAILED "
                f"({f['kind']}, {f['attempts']} attempts)",
                flush=True,
            )
            return
        stages = "  ".join(
            f"{name} {outcome.timings[name]:6.2f}s"
            f"[{'hit ' if hit else 'miss'}]"
            for name, hit in outcome.cache_hits.items()
        )
        retried = f"  (attempt {outcome.attempts})" if outcome.attempts > 1 else ""
        print(f"  {outcome.spec.benchmark:<10} {stages}{retried}", flush=True)

    print(
        f"pipeline: {len(specs)} jobs x {' > '.join(specs[0].stages)}, "
        f"{args.jobs} worker(s), cache "
        f"{cache_dir if cache_dir else 'disabled'}",
        flush=True,
    )
    # submit() exports the fault plan to the environment for pool
    # workers, restoring it after.
    batch = submit(specs, options, progress=progress)
    lines = ["", _batch_footer(batch)]
    predictions = predictions_from(batch)
    if predictions:
        fig9 = Figure9Result(
            threshold=args.threshold, predictions=predictions
        )
        obs.event("experiment_result", **fig9.summary())
        lines.append(f"figure9 rms error        : {fig9.rms_error!r}")
        if len(predictions) > 1:  # rank needs two benchmarks to mean anything
            lines.append(
                f"figure9 rank correlation : {fig9.rank_correlation:.4f}"
            )
        worst = max(predictions.values(), key=lambda p: abs(p.error))
        lines.append(
            f"worst benchmark          : {worst.name} "
            f"(error {worst.error * 100:+.2f}%)"
        )
    if not batch.ok:
        lines += ["", batch.describe_failures()]
    print("\n".join(lines))
    return EXIT_OK if batch.ok else EXIT_PARTIAL


def _cmd_pipeline_status(args) -> str:
    from .pipeline import CACHE_SALT, ResultCache

    stats = ResultCache(args.cache_dir).on_disk_stats()
    lines = [
        f"cache directory : {stats.root}",
        f"code salt       : {CACHE_SALT}",
        f"entries         : {stats.entries}",
        f"total size      : {stats.total_bytes / 1e6:.2f} MB",
    ]
    for kind in sorted(stats.by_kind):
        lines.append(f"  {kind:<14}: {stats.by_kind[kind]}")
    return "\n".join(lines)


def _cmd_pipeline_clear(args) -> str:
    from .pipeline import ResultCache

    removed = ResultCache(args.cache_dir).clear()
    return f"removed {removed} cache entries from {args.cache_dir}"


def _cmd_scenario_ls() -> str:
    from .scenarios import SCENARIOS, STRESS_PROFILES

    lines = ["atomic stress profiles:"]
    for name in sorted(STRESS_PROFILES):
        profile = STRESS_PROFILES[name]
        lines.append(f"  {name:<18} {profile.description}")
    lines += ["", "catalog scenarios:"]
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]
        lines.append(
            f"  {name:<18} {len(scenario.cores)} core(s) x "
            f"{scenario.cycles} cycles — {scenario.description}"
        )
    lines += [
        "",
        "compose profiles with seq(a, b, ...), overlay(a, b, ...), "
        "repeat(x, n), ramp(x, start, stop)",
    ]
    return "\n".join(lines)


def _cmd_scenario_show(args) -> str:
    from .scenarios import resolve_scenario, scenario_param

    try:
        scenario = resolve_scenario(args.name)
    except SpecError as exc:
        raise UsageError(str(exc)) from None
    lines = [
        f"{scenario.name}: {scenario.description}",
        f"  default cycles : {scenario.cycles}",
        f"  cores          : {len(scenario.cores)}",
    ]
    for index, core in enumerate(scenario.cores):
        lines.append(f"  core {index}: {core.schedule}")
        if core.phase_offset:
            lines.append(
                f"    phase offset : {core.phase_offset:.3f} of the interval"
            )
        if core.gain != 1.0:
            lines.append(f"    gain         : {core.gain}")
        for event in core.dvfs:
            kind = "clock-gate" if event.scale == 0.0 else "dvfs step"
            lines.append(
                f"    {kind} @ {event.at:.3f}: scale -> {event.scale}"
            )
    lines.append(f"  identity       : {scenario_param(scenario)}")
    return "\n".join(lines)


def _cmd_scenario_run(args) -> int:
    from .pipeline import (
        BatchOptions,
        build_scenario_jobs,
        prediction_from_outcome,
        submit,
    )

    if args.no_cache and args.cache_dir:
        raise UsageError("give --cache-dir or --no-cache, not both")
    net = calibrated_supply(args.impedance)
    try:
        specs = build_scenario_jobs(
            args.scenarios,
            net,
            cycles=args.cycles,
            threshold=args.threshold,
            window=args.window,
            seed=args.seed,
            warmup_cycles=args.warmup_cycles,
            impedance=args.impedance,
        )
    except SpecError as exc:
        raise UsageError(str(exc)) from None
    _require_one_window(specs)
    cache_dir = None if args.no_cache else args.cache_dir
    batch = submit(
        specs,
        BatchOptions(
            jobs=args.jobs, cache_dir=cache_dir, raise_on_error=False
        ),
    )
    rows = {}
    for outcome in batch.outcomes:
        if not outcome.ok:
            continue
        p = prediction_from_outcome(outcome)
        rows[outcome.spec.benchmark] = [
            p.estimated * 100,
            p.observed * 100,
            p.error * 100,
            outcome.elapsed,
        ]
    lines = []
    if rows:
        lines.append(
            viz.table(
                rows,
                headers=["est %", "obs %", "err %", "secs"],
                title=f"{len(rows)} scenario(s) at "
                      f"{args.impedance:.0f}% impedance "
                      f"(threshold {args.threshold} V)",
            )
        )
    lines += ["", _batch_footer(batch)]
    if not batch.ok:
        lines += ["", batch.describe_failures()]
    print("\n".join(lines))
    return EXIT_OK if batch.ok else EXIT_PARTIAL


def _cmd_control(args) -> str:
    net = calibrated_supply(args.impedance)
    minimum = next_pow2(default_tap_count(net))  # the monitor's kernel length
    if args.cycles < minimum:
        raise UsageError(
            f"--cycles must be at least {minimum}, the monitor's kernel length "
            f"at {args.impedance:g}% impedance, got {args.cycles}"
        )
    margin = args.margin_mv / 1000.0

    def factory():
        if args.scheme == "wavelet":
            return ThresholdController(
                WaveletVoltageMonitor(net, terms=args.terms), net, margin
            )
        if args.scheme == "fullconv":
            return ThresholdController(FullConvolutionMonitor(net), net, margin)
        if args.scheme == "analog":
            return ThresholdController(
                AnalogVoltageSensor(net, delay=2), net, margin
            )
        return PipelineDampingController(net, delta=args.damping_delta)

    result = run_control_experiment(args.benchmark, net, factory,
                                    cycles=args.cycles)
    return "\n".join(
        [
            f"{args.scheme} control of {args.benchmark} at "
            f"{args.impedance:.0f}% impedance:",
            f"  slowdown        : {result.slowdown * 100:.2f}%",
            f"  faults          : {result.baseline_faults} -> "
            f"{result.controlled_faults}",
            f"  interventions   : {result.stall_cycles} stalls, "
            f"{result.boost_cycles} boosts",
            f"  false positives : {result.false_positive_rate * 100:.0f}%",
        ]
    )


def _cmd_phases(args) -> str:
    from .core import WaveletPhaseClassifier
    from .core.characterization import WINDOW

    minimum = args.phases * WINDOW
    if args.cycles < minimum:
        raise UsageError(
            f"--cycles must be at least {minimum} for {args.phases} phases "
            f"(one {WINDOW}-cycle window per phase), got {args.cycles}"
        )
    net = calibrated_supply(args.impedance)
    result = simulate_benchmark(args.benchmark, cycles=args.cycles)
    clf = WaveletPhaseClassifier(phases=args.phases).fit(result.current)
    rows = {}
    for s in clf.summarize(net):
        rows[f"phase {s.phase}"] = [
            s.fraction * 100,
            s.mean_current,
            float(s.dominant_level),
            (s.emergency_probability or 0.0) * 100,
        ]
    return viz.table(
        rows,
        headers=["% windows", "mean A", "top level", "% < 0.97V"],
        title=f"{args.benchmark}: wavelet-signature phases "
              f"({args.impedance:.0f}% impedance)",
    )


def _measure_breakdown(
    benchmark: str, cycles: int
) -> tuple[dict[str, float], float]:
    """Per-unit mean current and total mean current over ``cycles``
    cycles that follow 2048 unmeasured warm-up cycles."""
    from .uarch.simulator import _run_cycles, _warm_pipeline

    pipe = _warm_pipeline(benchmark, 2048, track_breakdown=True)
    current, _ = _run_cycles(pipe, cycles)
    return pipe.power_breakdown, float(np.mean(current))


def _cmd_breakdown(args) -> str:
    breakdown, total = _measure_breakdown(args.benchmark, args.cycles)
    breakdown = dict(sorted(breakdown.items(), key=lambda kv: -kv[1]))
    chart = viz.bar_chart(
        {name: amps for name, amps in breakdown.items() if amps > 0.01},
        title=f"{args.benchmark}: mean per-unit current (A), "
              f"total {total:.1f} A",
        fmt="{:7.2f}",
    )
    return chart


def _cmd_sizing(args) -> str:
    from .power import max_tolerable_impedance
    from .power.sizing import SETTLE

    if args.cycles <= SETTLE:
        raise UsageError(
            f"--cycles must be at least {SETTLE + 1}: the first {SETTLE} "
            f"cycles are the supply's settle window, got {args.cycles}"
        )
    base = calibrated_supply(100)
    traces = {
        name: simulate_benchmark(name, cycles=args.cycles).current
        for name in args.benchmarks
    }
    pct = max_tolerable_impedance(base, traces, budget=args.budget)
    lines = [
        f"workloads: {', '.join(args.benchmarks)}",
        f"fault budget: {args.budget * 100:.2f}% of cycles",
        f"max tolerable target impedance (uncontrolled): {pct:.0f}%",
        "",
        "anything above this needs microarchitectural dI/dt control",
        "(see `repro control` for the closed-loop experiment).",
    ]
    return "\n".join(lines)


def _cmd_store_ingest(args) -> str:
    from .store import TraceStore

    if args.from_file and args.benchmarks:
        raise UsageError(
            "give benchmarks to simulate or --from-file, not both"
        )
    if not args.from_file and not args.benchmarks:
        raise UsageError("give benchmarks to simulate, or --from-file")
    unknown = sorted(set(args.benchmarks) - set(SPEC2000))
    if unknown:
        raise UsageError(
            f"unknown benchmark(s) {', '.join(unknown)}; "
            "see `repro list`"
        )
    store = TraceStore(args.store, mode="a")
    lines = []
    if args.from_file:
        from .uarch.traceio import import_current_trace

        result = import_current_trace(args.from_file, name=args.label)
        record = store.ingest(
            result.current, args.label or result.name, dtype=args.dtype
        )
        lines.append(
            f"  {record.trace_id}  {record.benchmark:<12} "
            f"{record.cycles:>9} samples  {record.dtype}"
        )
    else:
        for name in args.benchmarks:
            result = simulate_benchmark(
                name,
                cycles=args.cycles,
                seed=args.seed,
                warmup_cycles=args.warmup_cycles,
            )
            record = store.ingest(
                result.current,
                name,
                dtype=args.dtype,
                generator={
                    "benchmark": name,
                    "cycles": args.cycles,
                    "seed": args.seed,
                    "warmup_cycles": args.warmup_cycles,
                },
            )
            lines.append(
                f"  {record.trace_id}  {record.benchmark:<12} "
                f"{record.cycles:>9} samples  {record.dtype}"
            )
    s = store.stats()
    lines.append(
        f"store {s['root']}: {s['traces']} traces, "
        f"{s['live_bytes'] / 1e6:.1f} MB live"
    )
    return "\n".join(lines)


def _cmd_store_ls(args) -> str:
    from .store import TraceStore

    store = TraceStore(args.store)
    records = store.records()
    if not records:
        return f"store {store.root}: empty"
    lines = [
        f"{'trace id':<18} {'benchmark':<12} {'samples':>9} "
        f"{'dtype':<8} {'src':<9} sha256"
    ]
    for r in records:
        lines.append(
            f"{r.trace_id:<18} {r.benchmark:<12} {r.cycles:>9} "
            f"{r.dtype:<8} {'simulate' if r.generator else 'external':<9} "
            f"{r.sha256[:12]}"
        )
    s = store.stats()
    lines.append(
        f"{s['traces']} traces, {s['cycles']} samples, "
        f"{s['live_bytes'] / 1e6:.1f} MB live in {s['chunk_files']} "
        f"chunk(s) ({s['reclaimable_bytes'] / 1e6:.1f} MB reclaimable)"
    )
    return "\n".join(lines)


def _cmd_store_verify(args) -> int:
    from .store import TraceStore

    store = TraceStore(args.store)
    problems = store.verify()
    count = len(store.records())
    if not problems:
        print(f"store {store.root}: {count} traces intact")
        return EXIT_OK
    print(f"store {store.root}: {len(problems)} problem(s):")
    for p in problems:
        detail = ", ".join(
            f"{k}={v}" for k, v in p.items() if k != "problem"
        )
        print(f"  {p['problem']:<16} {detail}")
    return EXIT_PARTIAL


def _cmd_store_gc(args) -> str:
    from .store import TraceStore

    result = TraceStore(args.store, mode="a").gc()
    return (
        f"store {args.store}: {result['live']} live traces, "
        f"reclaimed {result['reclaimed_bytes'] / 1e6:.1f} MB"
    )


def _log_file(path: str) -> str:
    """``path``, or a usage error naming it when no such file exists."""
    if not os.path.isfile(path):
        raise UsageError(f"no such log file: {path}")
    return path


def _cmd_obs_report(args) -> str:
    return obs.render_report(_log_file(args.log))


def _cmd_obs_chrome(args) -> str:
    from .obs.trace import DEFAULT_CHROME_PATH

    records, skipped = obs.scan_records(_log_file(args.log))
    output = args.output or DEFAULT_CHROME_PATH
    count = obs.write_chrome_trace(records, output)
    line = (
        f"chrome trace: {output} ({count} events from "
        f"{len(records)} records) — open in Perfetto "
        f"(https://ui.perfetto.dev) or chrome://tracing"
    )
    if skipped:
        line += f"\nskipped {skipped} malformed line(s) in {args.log}"
    return line


def _cmd_obs_serve(args) -> int:
    import time as _time

    try:
        host, port = obs.parse_listen(args.listen)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    registry = None
    records: list = []
    skipped = 0
    if args.log:
        records, skipped = obs.scan_records(_log_file(args.log))
        registry = obs.registry_from_records(records)
    server = obs.ObsServer(
        host, port, registry=registry, subscribe=args.log is None
    )
    if records:
        server.feed(records)
    server.start()
    source = f"log {args.log}" if args.log else "live process registry"
    print(
        f"obs endpoint {server.url} — /metrics /healthz /events "
        f"(serving {source}"
        + (f", {skipped} malformed line(s) skipped" if skipped else "")
        + ")",
        flush=True,
    )
    if args.port_file:
        _write_port_file(args.port_file, server.host, server.port)
    try:
        if args.duration is not None:
            _time.sleep(args.duration)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def _write_port_file(path: str, host: str, port: int) -> None:
    """Publish the actual bound address for scripts waiting on it.

    Written atomically (temp + rename), so a reader polling the path
    never sees a half-written line.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"{host} {port}\n")
    os.replace(tmp, path)


def _cmd_serve(args) -> int:
    import asyncio as _asyncio

    from .serve import ServeConfig, ServeServer

    try:
        host, port = obs.parse_listen(args.listen)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    config = ServeConfig(
        host=host,
        port=port,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        store_dir=args.store,
        spool_dir=args.spool,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        retries=args.retries,
        timeout_s=args.timeout,
    )

    async def run() -> dict:
        server = await ServeServer(config).start()
        print(f"serve listening on {server.url}", flush=True)
        if args.port_file:
            _write_port_file(args.port_file, server.host, server.port)
        await server.serve_until_shutdown(duration=args.duration)
        return server.snapshot_stats()

    stats = _asyncio.run(run())
    print(
        f"serve drained: {stats['requests']} requests "
        f"({stats['ok']} ok, {stats['errors']} failed, "
        f"{stats['cache_fastpath']} from cache, "
        f"{stats['dispatched_jobs']} jobs dispatched)",
        flush=True,
    )
    return EXIT_OK


def _cmd_loadgen(args) -> int:
    import asyncio as _asyncio

    from .serve import loadgen as lg

    try:
        host, port = obs.parse_listen(args.target)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    count = min(args.count, 8) if args.quick else args.count
    cycles = min(args.cycles, 1024) if args.quick else args.cycles
    try:
        run = _asyncio.run(
            lg.run_loadgen(
                host,
                port,
                pattern=args.pattern,
                rate=args.rate,
                count=count,
                seed=args.seed,
                burst_size=args.burst_size,
                cycles=cycles,
            )
        )
    except (ConnectionError, OSError) as exc:
        raise UsageError(
            f"cannot reach server at {args.target}: {exc}"
        ) from None
    doc = lg.summarize(run, quick=args.quick)
    summary = doc["loadgen"]
    if args.output:
        lg.write_bench(doc, args.output)
    print(
        f"loadgen {summary['pattern']} x{summary['requests']} "
        f"(seed {run['seed']}): "
        f"{summary['requests_per_s']:.1f} req/s, "
        f"p50 {summary['latency_p50_s'] * 1000:.1f} ms, "
        f"p99 {summary['latency_p99_s'] * 1000:.1f} ms, "
        f"cache-hit {summary['cache_hit_ratio'] * 100:.0f}%, "
        f"{summary['rejected']} rejected"
        + (f"\nwrote {args.output}" if args.output else "")
    )
    failed = summary["accepted"] - summary["ok"]
    return EXIT_PARTIAL if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    obs_mode = getattr(args, "obs", "off")
    obs_listen = getattr(args, "obs_listen", None)
    obs_profile = float(getattr(args, "obs_profile", 0.0) or 0.0)
    if obs_mode == "off" and (
        obs_listen or obs_profile > 0 or args.command == "serve"
    ):
        # a live endpoint or profiler without an exporter still needs
        # the telemetry plane on (as do the serve command's /metrics
        # and /events routes); summary is the cheapest exporter
        obs_mode = "summary"
    server = None
    if obs_mode != "off":
        obs.enable(
            obs_mode,
            getattr(args, "obs_path", None),
            profile_interval=obs_profile,
        )
        (t0, cpu0), (t1, cpu1, modules) = _IMPORT_STARTED, _IMPORTED
        obs.past_span("process.import", t0, t1, cpu1 - cpu0, modules=modules)
        if obs_listen:
            try:
                host, port = obs.parse_listen(obs_listen)
            except ValueError as exc:
                print(f"repro: usage error: {exc}", file=sys.stderr)
                obs.disable()
                return EXIT_USAGE
            server = obs.ObsServer(host, port).start()
            print(
                f"obs endpoint {server.url} — /metrics /healthz /events",
                flush=True,
            )
            port_file = getattr(args, "obs_port_file", None)
            if port_file:
                _write_port_file(port_file, server.host, server.port)
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"repro: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as exc:
        # Structured failure from the pipeline/analysis layer — report it
        # without the traceback noise; details carry the context.
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        for key, value in exc.details.items():
            if key == "failures" and isinstance(value, list):
                for f in value:
                    print(
                        f"repro:   job {f.get('job')} stage={f.get('stage')} "
                        f"kind={f.get('kind')} attempts={f.get('attempts')}",
                        file=sys.stderr,
                    )
            else:
                print(f"repro:   {key}: {value}", file=sys.stderr)
        return EXIT_PARTIAL
    except Exception:  # a genuine bug: full traceback, distinct code
        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        if server is not None:
            server.stop()
        if obs_mode != "off":
            tail = obs.finish()
            if tail:
                print(tail)


def _dispatch(args) -> int:
    """Route parsed arguments to their command handler."""
    if args.command == "list":
        print(_cmd_list())
    elif args.command == "simulate":
        print(_cmd_simulate(args))
    elif args.command == "characterize":
        print(_cmd_characterize(args))
    elif args.command == "control":
        print(_cmd_control(args))
    elif args.command == "phases":
        print(_cmd_phases(args))
    elif args.command == "breakdown":
        print(_cmd_breakdown(args))
    elif args.command == "sizing":
        print(_cmd_sizing(args))
    elif args.command == "pipeline":
        if args.pipeline_command == "run":
            return _cmd_pipeline_run(args)
        elif args.pipeline_command == "status":
            print(_cmd_pipeline_status(args))
        elif args.pipeline_command == "clear":
            print(_cmd_pipeline_clear(args))
    elif args.command == "scenario":
        if args.scenario_command == "ls":
            print(_cmd_scenario_ls())
        elif args.scenario_command == "show":
            print(_cmd_scenario_show(args))
        elif args.scenario_command == "run":
            return _cmd_scenario_run(args)
    elif args.command == "store":
        if args.store_command == "ingest":
            print(_cmd_store_ingest(args))
        elif args.store_command == "ls":
            print(_cmd_store_ls(args))
        elif args.store_command == "verify":
            return _cmd_store_verify(args)
        elif args.store_command == "gc":
            print(_cmd_store_gc(args))
    elif args.command == "obs":
        if args.obs_command == "report":
            print(_cmd_obs_report(args))
        elif args.obs_command == "chrome":
            print(_cmd_obs_chrome(args))
        elif args.obs_command == "serve":
            return _cmd_obs_serve(args)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "loadgen":
        return _cmd_loadgen(args)
    elif args.command == "report":
        from .report import QUICK_SUBSET, generate_report

        print(
            generate_report(
                cycles=args.cycles,
                names=None if args.full else QUICK_SUBSET,
                include_control=not args.no_control,
            )
        )
    return EXIT_OK


# The end of this module's import, with the module count it left: the
# ``process.import`` span that ``main`` emits runs from the top of
# ``repro/__init__`` to here.
_IMPORTED = (time.perf_counter(), time.process_time(), len(sys.modules))
