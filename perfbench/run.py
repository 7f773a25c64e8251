#!/usr/bin/env python3
"""End-to-end benchmark of the repro stack, with layer spans from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md``): ``sweep_cold``,
``store_rescan``, ``serve_mixed`` and ``control_loop``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries
the per-layer metrics, and the lines above it hold the attribution
report.  Each program phase runs in a fresh interpreter with
``PYTHONPATH=src`` and a fresh cache under ``.perfbench-tmp/``; a traced
run also writes its spans to ``.perfbench-out/``.  Timed end-to-end
figures are scaled to a reference host speed by the probe in
``hostspeed.py``.

``--write-expected`` recomputes ``perfbench/expected.json``, the output
oracle for the sweep and control workloads.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory source-only
import hostspeed  # noqa: E402
import loadclient  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
PROGRAM = HERE / "program.py"
EXPECTED = HERE / "expected.json"

#: Child processes that run longer than this are killed; the run fails.
CHILD_TIMEOUT_S = 150.0

IMPEDANCE = 150.0
#: Fresh processes per run of the batch workloads, at least.
MIN_ITERATIONS = 3
#: A sweep process yields one throughput sample, so take more of them.
SWEEP_MIN_ITERATIONS = 4

#: Figure 9 extremes (PROBLEMATIC: mgrid, gcc; QUIET: vpr, mcf) mixed
#: with the L2-quiet (gzip) and L2-miss-heavy (swim, mcf) groups.
SWEEP_SUBSET = ("mgrid", "gcc", "vpr", "mcf", "gzip", "swim")
SWEEP_CYCLES = 32768
SWEEP_JOBS = 2
PAPER_RMS_ERROR_PCT = 0.94

STORE_TRACES = 6
STORE_SAMPLES = 1 << 20
STORE_ROUNDS = 3
THRESHOLD = 0.97
WINDOW = 256

CONTROL_BENCHMARKS = ("mgrid", "gzip")
CONTROL_CYCLES = 12288
CONTROL_TERMS = 13

SWEEP_CONFIG = {
    "benchmarks": list(SWEEP_SUBSET),
    "cycles": SWEEP_CYCLES,
    "jobs": SWEEP_JOBS,
    "impedance": IMPEDANCE,
}
CONTROL_CONFIG = {
    "benchmarks": list(CONTROL_BENCHMARKS),
    "cycles": CONTROL_CYCLES,
    "warmup_cycles": 4096,
    "terms": CONTROL_TERMS,
    "margin": 0.012,
    "impedance": IMPEDANCE,
}

SERVE_RATE = 4.0  # offered requests per second (Poisson)
SERVE_MIN_REQUESTS = 100
SERVE_COLD_SHARE = 0.6
#: Extra server starts per run that only sample set-up time.
SERVE_SETUP_ONLY = 2
SERVE_LIMIT_S = 2.0  # latency limit of serve goodput
#: The hot set: repeated digests, the same in every run.
SERVE_HOT = (("gzip", 11), ("gcc", 12), ("vpr", 13), ("mgrid", 14))
#: Cold requests simulate this model under a fresh seed each, so every
#: cold job costs about the same and only the schedule varies.
SERVE_COLD_BENCHMARK = "gzip"
SERVE_REQUEST = {"cycles": 1024, "warmup_cycles": 0, "window": 64}
SERVE_MAX_INFLIGHT = os.cpu_count() or 2


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program output miss)."""


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def median_of_medians(groups) -> float:
    """Median over samples of each sample's median operation latency, so
    a mix of short and long operations cannot put the median in the gap
    between them."""
    return median([median(g) for g in groups if g])


class Run:
    """One benchmark run: temp root, child spawning and the checks."""

    def __init__(self, args) -> None:
        self.args = args
        base = ROOT / ".perfbench-tmp"
        base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(self.tmp)  # any temp file stays in the checkout
        self.problems: list[str] = []
        #: every host-speed probe of the run (see hostspeed.py)
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._dirs = 0

    def fresh_dir(self, name: str) -> Path:
        """A new, empty directory under the run's temp root."""
        self._dirs += 1
        path = self.tmp / f"{self._dirs:03d}-{name}"
        if path.exists():
            raise BenchError(f"{path} already exists")
        path.mkdir()
        return path

    def spawn(self, mode: str, cfg: dict) -> tuple[dict, float, float]:
        """Run ``program.py MODE`` in a fresh interpreter; returns its
        report, spawn time and exit time."""
        work = self.fresh_dir(mode)
        cfg = {**cfg, "out": str(work / "report.json")}
        cfg["t_spawn"] = t_spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(PROGRAM), mode, json.dumps(cfg)],
            cwd=work,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
        t_exit = time.perf_counter()
        if proc.returncode != 0:
            raise BenchError(
                f"program.py {mode} exited {proc.returncode}:\n"
                + proc.stderr.decode(errors="replace")[-4000:]
            )
        return json.loads(Path(cfg["out"]).read_text()), t_spawn, t_exit

    def check(self, ok: bool, message: str) -> bool:
        """Record one output check; a miss fails the run's output check
        and one operation."""
        if not ok:
            self.problems.append(message)
            self.failed += 1
        return ok

    def op(self, *checks: tuple[bool, str]) -> bool:
        """One attempted operation and its output checks; any miss fails
        the operation once."""
        self.attempted += 1
        misses = [message for ok, message in checks if not ok]
        self.problems += misses
        self.failed += bool(misses)
        return not misses

    def speed(self) -> float:
        """Factor that takes the run's raw times to the reference host
        speed, from every probe of the run.  One factor for the whole run:
        it follows the host's drift from run to run, and averaging the
        probes keeps their own second-to-second noise out."""
        return hostspeed.scale(self.probes)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# -- per-layer figures from spans ------------------------------------------------


def span_figures(spans: list[dict], roots: list[tuple[float, float]]) -> dict:
    """Layer numbers of one traced program run.

    ``roots`` are the intervals that make up the cold run's wall
    (set-up and timed phases, without the benchmark's own bookkeeping);
    ``unattributed_share`` is the part of them no layer span covers.
    """
    def total(name):
        return tracing.total_time(spans, name)

    def samples(name):
        return sum(s.get("samples", 0) for s in spans if s["name"] == name)

    roots = tracing.merge_intervals(roots)
    wall = sum(end - start for start, end in roots)
    covered = sum(
        tracing.union_length(
            [(s["start"], s["end"]) for s in spans], start, end
        )
        for start, end in roots
    )
    gets = [s for s in spans if s["name"] == "pipeline.cache.get"]
    ingest_bytes = sum(
        s.get("bytes", 0) for s in spans if s["name"] == "store.ingest"
    )
    return {
        "cli.import_s": total("cli.import"),
        "core.setup.calibrated_supply_s": total("core.setup.calibrated_supply"),
        "core.calibration.calibrate_s": total("core.calibration.calibrate"),
        "core.calibration.calls": tracing.count(
            spans, "core.calibration.calibrate"
        ),
        "uarch.simulate_s": tracing.self_times(spans).get("uarch", 0.0),
        "power.voltage_s": total("power.voltage"),
        "power.voltage_msamples_per_s": rate(
            samples("power.voltage") / 1e6, total("power.voltage")
        ),
        "kernels.characterize_s": total("kernels.characterize"),
        "kernels.characterize_msamples_per_s": rate(
            samples("kernels.characterize") / 1e6,
            total("kernels.characterize"),
        ),
        "pipeline.cache.get_s": total("pipeline.cache.get"),
        "pipeline.cache.put_s": total("pipeline.cache.put"),
        "pipeline.cache.bytes_written": sum(
            s.get("bytes", 0) for s in spans if s["name"] == "pipeline.cache.put"
        ),
        "pipeline.cache.hit_ratio": rate(
            sum(1 for s in gets if s.get("hit")), len(gets)
        ),
        "store.ingest_s": total("store.ingest"),
        "store.ingest_mb_per_s": rate(ingest_bytes / 1e6, total("store.ingest")),
        "store.attach_s": total("store.attach"),
        "core.controller.update_s": total("core.controller.update"),
        "core.controller.updates": sum(
            s.get("count", 0)
            for s in spans
            if s["name"] == "core.controller.update"
        ),
        "unattributed_share": 1.0 - rate(covered, wall),
    }


def submit_figures(spans: list[dict], rep: dict, workers: int) -> dict:
    """Pipeline numbers of one timed ``submit`` (one ``pipeline.submit``
    span and the ``pipeline.job`` spans under it)."""
    lo, hi = rep["t_submit"], rep["t_done"]
    own = tracing.span_self_times(spans)
    self_s = sum(
        own[s["id"]]
        for s in spans
        if s["name"] == "pipeline.submit" and s["start"] <= hi and s["end"] >= lo
    )
    busy = sum(
        min(s["end"], hi) - max(s["start"], lo)
        for s in spans
        if s["name"] == "pipeline.job" and s["end"] > lo and s["start"] < hi
    )
    return {
        "pipeline.submit_self_s": self_s,
        "pipeline.first_result_s": rep["first_result"] - lo,
        "pipeline.worker_busy_share": rate(busy, workers * (hi - lo)),
    }


def merge_layers(samples: list[dict]) -> dict:
    """Median of each figure over the traced samples of a run."""
    keys = {k for sample in samples for k in sample}
    return {k: median([s.get(k, 0.0) for s in samples]) for k in keys}


def attribution_lines(spans: list[dict], figures: dict) -> list[str]:
    """Per-layer self times of the traced run, largest first."""
    totals = tracing.self_times(spans)
    grand = sum(totals.values()) or 1.0
    lines = [
        "  layer self time, summed over the traced program runs and "
        "their processes:"
    ]
    for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"    {layer:<22} {seconds:9.3f} s  {100 * seconds / grand:5.1f} %"
        )
    share = figures.get("unattributed_share", 0.0)
    lines.append(
        f"  unattributed_share {share:.3f}"
        + ("  (above the 10 % target)" if share > 0.10 else "")
    )
    lines.append(f"  trace.overhead_pct {figures.get('trace.overhead_pct', 0.0):.2f}")
    return lines


# -- workloads ---------------------------------------------------------------------


def is_traced(run: Run, index: int) -> bool:
    """Which program runs are traced: none in an untraced run; every
    second one (untraced first) in a traced run, so the overhead
    compares like with like."""
    return bool(run.args.trace) and index % 2 == 1


def fresh_processes(run: Run, mode: str, cfg: dict, least: int = MIN_ITERATIONS):
    """Run ``program.py MODE`` in fresh processes, each with a fresh
    cache, until the untraced ones have used the run's time (at least
    ``least`` of them, and as many traced ones in a traced run).

    Yields ``(traced, report, t_spawn, span_dir)``.
    """
    done = {False: [], True: []}
    index = 0
    while not (
        sum(done[False]) >= run.args.seconds
        and len(done[False]) >= least
        and (not run.args.trace or len(done[True]) >= least)
    ):
        with_trace = is_traced(run, index)
        index += 1
        span_dir = run.fresh_dir("spans")
        report, t_spawn, t_exit = run.spawn(
            mode,
            {
                **cfg,
                "cache_dir": str(run.fresh_dir("cache")),
                "trace": with_trace,
                "span_dir": str(span_dir),
            },
        )
        done[with_trace].append(t_exit - t_spawn)
        yield with_trace, report, t_spawn, span_dir


def load_expected() -> dict:
    if not EXPECTED.is_file():
        raise BenchError(f"{EXPECTED} is missing; run with --write-expected")
    return json.loads(EXPECTED.read_text())


def sweep_cold(run: Run) -> dict:
    """§4 chain over the subset via ``submit(jobs=2)`` in fresh processes."""
    expected = load_expected()["sweep"]
    plain, traced, layer_samples = [], [], []
    spans_all: list[dict] = []
    errors_pct = None
    for with_trace, rep, t_spawn, span_dir in fresh_processes(
        run, "sweep", SWEEP_CONFIG, SWEEP_MIN_ITERATIONS
    ):
        wall = rep["t_done"] - rep["t_submit"]
        errors = []
        for o in rep["outcomes"]:
            name = o["benchmark"]
            want = expected[name]
            if o["ok"]:
                errors.append(o["estimated"] - o["observed"])
            run.op(
                (o["ok"], f"sweep {name} failed: {o['error']}"),
                (
                    o["cache_hits"] == 0,
                    f"sweep {name}: {o['cache_hits']} cache hits in a cold run",
                ),
                (
                    (o.get("estimated"), o.get("observed"))
                    == (want["estimated"], want["observed"]),
                    f"sweep {name}: prediction "
                    f"({o.get('estimated')}, {o.get('observed')}) != expected "
                    f"({want['estimated']}, {want['observed']})",
                ),
                (
                    o.get("stats") == want["stats"],
                    f"sweep {name}: simulated stats {o.get('stats')} != "
                    f"{want['stats']}",
                ),
            )
        if len(errors) == len(SWEEP_SUBSET):
            errors_pct = 100 * (statistics.fmean(e * e for e in errors)) ** 0.5
        run.probes += rep["probes"]
        sample = {
            "wall": wall,
            "setup": rep["t_ready"] - t_spawn,
            "rss_mb": max(rep["rss_self_kb"], rep["rss_children_kb"]) / 1024,
            "latencies": [o["done_at"] - rep["t_submit"] for o in rep["outcomes"]],
            "stats": [o.get("stats", {}) for o in rep["outcomes"]],
        }
        if not with_trace:
            plain.append(sample)
            continue
        traced.append(sample)
        spans = tracing.load_spans(span_dir)
        spans_all += spans
        figures = span_figures(
            spans, [(t_spawn, rep["t_ready"]), (rep["t_submit"], rep["t_done"])]
        )
        run.check(
            figures["core.calibration.calls"] == SWEEP_JOBS,
            f"sweep: {figures['core.calibration.calls']} calibrations, "
            f"expected one per worker ({SWEEP_JOBS})",
        )
        figures.update(submit_figures(spans, rep, SWEEP_JOBS))
        stats = [s for s in sample["stats"] if s]
        cycles = sum(s["cycles"] for s in stats)
        insts = sum(s["committed"] for s in stats)
        figures.update(
            {
                "uarch.sim_cycles": cycles,
                "uarch.committed_insts": insts,
                "uarch.l2_misses": sum(s["l2_misses"] for s in stats),
                "uarch.stall_cycles": sum(s["stall_cycles"] for s in stats),
                "uarch.kcycles_per_s": rate(cycles / 1e3, figures["uarch.simulate_s"]),
                "uarch.kinsts_per_s": rate(insts / 1e3, figures["uarch.simulate_s"]),
            }
        )
        layer_samples.append(figures)

    speed = run.speed()
    raw_throughput = median([rate(len(SWEEP_SUBSET), s["wall"]) for s in plain])
    throughput = raw_throughput / speed
    result = {
        "e2e": {
            "setup_s": speed * median([s["setup"] for s in plain]),
            "peak_rss_mb": median([s["rss_mb"] for s in plain]),
            "ops_per_s": throughput,
            "op_latency_p50_s": speed
            * median_of_medians(s["latencies"] for s in plain),
        },
        "lines": [
            f"  subset {', '.join(SWEEP_SUBSET)} at {SWEEP_CYCLES} cycles, "
            f"jobs={SWEEP_JOBS}, {len(plain)} cold processes",
            f"  sweep_traces_per_s {throughput:.4f} traces/s "
            f"({raw_throughput:.4f} unscaled)",
            f"  estimate_rms_error_pct {errors_pct} % "
            f"(paper: {PAPER_RMS_ERROR_PCT} % over all 26 benchmarks)",
        ],
        "workload": {
            "sweep_traces_per_s": throughput,
            "estimate_rms_error_pct": errors_pct or 0.0,
        },
    }
    if run.args.trace:
        layers = merge_layers(layer_samples)
        layers["trace.overhead_pct"] = 100 * (
            median([s["wall"] for s in traced]) / median([s["wall"] for s in plain])
            - 1
        )
        for a, b in zip(plain, traced):
            run.check(
                a["stats"] == b["stats"],
                "sweep: simulated stats differ between traced and untraced runs",
            )
        result["layers"] = layers
        result["spans"] = spans_all
    return result


def store_rescan(run: Run) -> dict:
    """Cold rescans of a seeded 1M-sample corpus through a fresh store."""
    rounds = STORE_ROUNDS + (1 if run.args.trace else 0)
    plain_reps, traced_reps, setups, rss, layer_samples = [], [], [], [], []
    spans_all: list[dict] = []
    outputs: dict[bool, dict] = {}
    for index in range(rounds):
        with_trace = is_traced(run, index)
        span_dir = run.fresh_dir("spans")
        report, t_spawn, _ = run.spawn(
            "store",
            {
                "seed": run.args.seed,
                "traces": STORE_TRACES,
                "samples": STORE_SAMPLES,
                "threshold": THRESHOLD,
                "window": WINDOW,
                "impedance": IMPEDANCE,
                "store_dir": str(run.fresh_dir("store")),
                "cache_root": str(run.fresh_dir("cache")),
                "seconds": run.args.seconds / (2 * STORE_ROUNDS),
                "min_reps": 2,
                "trace": with_trace,
                "span_dir": str(span_dir),
            },
        )
        gen_start, gen_end = report["t_gen"]
        setup = report["t_ready"] - t_spawn - (gen_end - gen_start)
        reference = report["reference"]
        for rep in report["reps"]:
            for o in rep["outcomes"]:
                tid = o.get("trace_id")
                want = reference[tid]
                got = (o.get("estimated"), o.get("observed"))
                run.op(
                    (o["ok"], f"rescan {tid} failed: {o['error']}"),
                    (
                        o["cache_hits"] == 0,
                        f"rescan {tid}: {o['cache_hits']} cache hits in a "
                        "cold rescan",
                    ),
                    (
                        got == (want["estimated"], want["observed"]),
                        f"rescan {tid}: {got} != reference "
                        f"({want['estimated']}, {want['observed']})",
                    ),
                )
                outputs.setdefault(with_trace, {})[tid] = got
        run.probes += report["probes"]
        walls = [
            {
                "wall": rep["t_done"] - rep["t_submit"],
                "samples": sum(o["samples"] for o in rep["outcomes"]),
                "latencies": [o["done_at"] - rep["t_submit"] for o in rep["outcomes"]],
            }
            for rep in report["reps"]
        ]
        if not with_trace:
            plain_reps += walls
            setups.append(setup)
            rss.append(report["rss_self_kb"] / 1024)
            continue
        traced_reps += walls
        spans = tracing.load_spans(span_dir)
        spans_all += spans
        roots = [(t_spawn, gen_start), (gen_end, report["t_ready"])] + [
            (rep["t_submit"], rep["t_done"]) for rep in report["reps"]
        ]
        figures = span_figures(spans, roots)
        run.check(
            figures["core.calibration.calls"] == 1,
            f"rescan: {figures['core.calibration.calls']} calibrations, "
            "expected exactly the set-up warm-up",
        )
        reps = [
            submit_figures(spans, rep, 1) for rep in report["reps"]
        ]
        figures.update(merge_layers(reps))
        per_rep = len(report["reps"])
        for key in (
            "power.voltage_s",
            "kernels.characterize_s",
            "pipeline.cache.get_s",
            "pipeline.cache.put_s",
            "pipeline.cache.bytes_written",
            "store.attach_s",
        ):
            figures[key] /= per_rep  # per rescan, like the other figures
        layer_samples.append(figures)

    speed = run.speed()
    raw_msamples = median([rate(r["samples"] / 1e6, r["wall"]) for r in plain_reps])
    result = {
        "e2e": {
            "setup_s": speed * median(setups),
            "peak_rss_mb": median(rss),
            "ops_per_s": median(
                [rate(STORE_TRACES, r["wall"]) for r in plain_reps]
            ) / speed,
            "op_latency_p50_s": speed
            * median_of_medians(r["latencies"] for r in plain_reps),
        },
        "lines": [
            f"  corpus {STORE_TRACES} x {STORE_SAMPLES} float32 samples, "
            f"{len(plain_reps)} cold rescans in {len(setups)} processes",
            f"  rescan_msamples_per_s {raw_msamples / speed:.4f} Msamples/s "
            f"({raw_msamples:.4f} unscaled)",
        ],
        "workload": {"rescan_msamples_per_s": raw_msamples / speed},
    }
    if run.args.trace:
        layers = merge_layers(layer_samples)
        layers["trace.overhead_pct"] = 100 * (
            median([r["wall"] for r in traced_reps])
            / median([r["wall"] for r in plain_reps])
            - 1
        )
        run.check(
            outputs.get(True) == outputs.get(False),
            "rescan: outputs differ between traced and untraced runs",
        )
        result["layers"] = layers
        result["spans"] = spans_all
    return result


def control_loop(run: Run) -> dict:
    """§5 closed loop per benchmark via ``run_control_experiment``."""
    expected = load_expected()["control"]
    plain, traced, layer_samples = [], [], []
    spans_all: list[dict] = []
    slowdowns = None
    for with_trace, report, t_spawn, span_dir in fresh_processes(
        run, "control", CONTROL_CONFIG
    ):
        experiments = report["experiments"]
        slowdowns = []
        for e in experiments:
            got, want = e["result"], expected[e["benchmark"]]
            if run.op(
                (got == want, f"control {e['benchmark']}: {got} != expected {want}")
            ):
                slowdowns.append(
                    got["controlled_cycles"] / got["baseline_cycles"] - 1
                )
        cycles = sum(
            e["result"]["baseline_cycles"] + e["result"]["controlled_cycles"]
            for e in experiments
        )
        run.probes += report["probes"]
        latencies = [e["t_end"] - e["t_start"] for e in experiments]
        sample = {
            "wall": sum(latencies),  # not the probes between experiments
            "setup": report["t_ready"] - t_spawn,
            "rss_mb": report["rss_self_kb"] / 1024,
            "latencies": latencies,
            "cycles": cycles,
            "results": [e["result"] for e in experiments],
        }
        if not with_trace:
            plain.append(sample)
            continue
        traced.append(sample)
        spans = tracing.load_spans(span_dir)
        spans_all += spans
        figures = span_figures(
            spans,
            [(t_spawn, report["t_ready"])]
            + [(e["t_start"], e["t_end"]) for e in experiments],
        )
        results = sample["results"]
        insts = sum(2 * r["instructions"] for r in results)
        figures.update(
            {
                "uarch.sim_cycles": cycles,
                "uarch.committed_insts": insts,
                "uarch.kcycles_per_s": rate(cycles / 1e3, figures["uarch.simulate_s"]),
                "uarch.kinsts_per_s": rate(insts / 1e3, figures["uarch.simulate_s"]),
                "control.stall_cycles": sum(r["stall_cycles"] for r in results),
                "control.false_positives": sum(r["false_positives"] for r in results),
            }
        )
        layer_samples.append(figures)

    slowdown_pct = (
        100 * statistics.fmean(slowdowns)
        if slowdowns and len(slowdowns) == len(CONTROL_BENCHMARKS)
        else 0.0
    )
    speed = run.speed()
    raw_kcycles = median([rate(s["cycles"] / 1e3, s["wall"]) for s in plain])
    result = {
        "e2e": {
            "setup_s": speed * median([s["setup"] for s in plain]),
            "peak_rss_mb": median([s["rss_mb"] for s in plain]),
            "ops_per_s": median(
                [rate(len(CONTROL_BENCHMARKS), s["wall"]) for s in plain]
            ) / speed,
            "op_latency_p50_s": speed
            * median_of_medians(s["latencies"] for s in plain),
        },
        "lines": [
            f"  {', '.join(CONTROL_BENCHMARKS)} x {CONTROL_CYCLES} cycles, wavelet monitor "
            f"({CONTROL_TERMS} terms) + threshold controller, "
            f"{len(plain)} fresh processes",
            f"  control_kcycles_per_s {raw_kcycles / speed:.4f} kcycles/s "
            f"({raw_kcycles:.4f} unscaled)",
            f"  control_slowdown_pct {slowdown_pct} % (paper: under 1 %)",
        ],
        "workload": {
            "control_kcycles_per_s": raw_kcycles / speed,
            "control_slowdown_pct": slowdown_pct,
        },
    }
    if run.args.trace:
        layers = merge_layers(layer_samples)
        layers["trace.overhead_pct"] = 100 * (
            median([s["wall"] for s in traced]) / median([s["wall"] for s in plain])
            - 1
        )
        for a, b in zip(plain, traced):
            run.check(
                a["results"] == b["results"],
                "control: results differ between traced and untraced runs",
            )
        result["layers"] = layers
        result["spans"] = spans_all
    return result


# -- serve_mixed -------------------------------------------------------------------


def serve_schedule(seed: int, seconds: float):
    """Seeded open-loop schedule: Poisson arrivals at ``SERVE_RATE``
    (conditioned on the request count), a hot set of repeated digests
    and exactly ``SERVE_COLD_SHARE`` unique-seed cold requests at seeded
    positions, so the seed moves the order but not the mix."""
    rng = random.Random(seed)
    count = max(SERVE_MIN_REQUESTS, int(round(SERVE_RATE * seconds)))
    span = count / SERVE_RATE
    offsets = sorted(rng.uniform(0.0, span) for _ in range(count))
    cold = set(rng.sample(range(count), int(round(SERVE_COLD_SHARE * count))))
    schedule = []
    for i, offset in enumerate(offsets):
        if i in cold:
            benchmark = SERVE_COLD_BENCHMARK
            request_seed = (1 << 21) + seed * 4096 + i  # unique per request
        else:
            benchmark, request_seed = rng.choice(SERVE_HOT)
        payload = {
            "kind": "characterize",
            "benchmark": benchmark,
            "seed": request_seed,
            "impedance": IMPEDANCE,
            "client": "perfbench",
            **SERVE_REQUEST,
        }
        schedule.append((offset, f"{benchmark}/{request_seed}", payload))
    return schedule


def _proc_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def serve_lifetime(run: Run, segment, with_trace: bool) -> dict:
    """Start a fresh ``repro serve``, warm it, drive one schedule segment."""
    cache_dir = run.fresh_dir("cache")
    port_file = run.fresh_dir("port") / "port"
    span_dir = run.fresh_dir("spans")
    probes = [hostspeed.probe()]
    argv = [
        "serve",
        "--listen", "127.0.0.1:0",
        "--port-file", str(port_file),
        "--jobs", "1",
        "--cache-dir", str(cache_dir),
        "--spool", str(run.fresh_dir("spool")),
    ]
    t_spawn = time.perf_counter()
    if with_trace:
        cfg = {
            "argv": argv,
            "trace": True,
            "span_dir": str(span_dir),
            "t_spawn": t_spawn,
        }
        cmd = [sys.executable, str(PROGRAM), "serve", json.dumps(cfg)]
    else:
        cmd = [sys.executable, "-m", "repro", *argv]
    log_path = run.fresh_dir("log") / "serve.log"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            cmd, cwd=run.tmp, env=run.env, stdout=log, stderr=log
        )
    try:
        deadline = time.perf_counter() + 90
        while not (port_file.is_file() and port_file.read_text().strip()):
            if proc.poll() is not None or time.perf_counter() > deadline:
                raise BenchError(
                    "repro serve did not start:\n"
                    + log_path.read_text(errors="replace")[-4000:]
                )
            time.sleep(0.01)
        host, port = port_file.read_text().split()
        port = int(port)
        # warm-up: one request per (impedance, window) in the mix, a
        # digest the mix never sends
        warm = {
            "kind": "characterize",
            "benchmark": SERVE_COLD_BENCHMARK,
            "seed": 0,
            "impedance": IMPEDANCE,
            "client": "perfbench-warmup",
            **SERVE_REQUEST,
        }
        _, (reply,) = asyncio.run(
            loadclient.run_schedule(host, port, [(0.0, "warmup", warm)], 1)
        )
        if not reply.ok:
            raise BenchError(f"serve warm-up failed: {reply.error} {reply.events}")
        t_ready = time.perf_counter()
        stats0 = asyncio.run(loadclient.http_get_json(host, port, "/stats"))
        t0, replies = asyncio.run(
            loadclient.run_schedule(
                host,
                port,
                segment,
                SERVE_MAX_INFLIGHT,
                lambda: probes.append(hostspeed.probe_once()),
            )
        )
        stats1 = asyncio.run(loadclient.http_get_json(host, port, "/stats"))
        rss_mb = _proc_hwm_mb(proc.pid)
        probes.append(hostspeed.probe())
    finally:
        _stop(proc)
    run.check(
        stats0.get("cache_fastpath") == 0 and stats0.get("dispatched_jobs") == 1,
        f"serve: timed phase did not start cold: {stats0}",
    )
    spans = tracing.load_spans(span_dir) if with_trace else []
    return {
        "t_spawn": t_spawn,
        "t_ready": t_ready,
        "setup": t_ready - t_spawn,
        "t0": t0,
        "replies": replies,
        "stats": {k: stats1.get(k, 0) - stats0.get(k, 0) for k in stats1
                  if isinstance(stats1.get(k), (int, float))
                  and not isinstance(stats1.get(k), bool)},
        "rss_mb": rss_mb,
        "probes": probes,
        "spans": spans,
    }


def serve_phases(replies) -> dict[str, list[float]]:
    """Wire phases of each finished request."""
    phases = {"admit": [], "queue": [], "compute": [], "stream_tail": []}
    for r in replies:
        accepted, result, done = r.first("accepted"), r.first("result"), r.finished
        if not (r.ok and accepted and result and done):
            continue
        begin = (
            r.first("status", "dispatched")
            or r.first("status", "cached")
            or r.first("status", "coalesced")
            or accepted
        )
        phases["admit"].append(accepted - r.sent)
        phases["queue"].append(begin - accepted)
        phases["compute"].append(result - begin)
        phases["stream_tail"].append(done - result)
    return phases


def serve_mixed(run: Run) -> dict:
    """Open-loop Poisson traffic against fresh ``repro serve --jobs 1``."""
    schedule = serve_schedule(run.args.seed, run.args.seconds)
    starts = [serve_lifetime(run, [], False) for _ in range(SERVE_SETUP_ONLY)]
    plain = serve_lifetime(run, schedule, False)
    for life in starts + [plain]:
        run.probes += life["probes"]
    speed = run.speed()
    setups = [life["setup"] * speed for life in starts + [plain]]
    lives = [plain]
    if run.args.trace:
        traced_life = serve_lifetime(run, schedule, True)
        lives.append(traced_life)

    # reference results for every distinct request, from a fresh process
    payloads = {key: payload for _, key, payload in schedule}
    requests = [
        {"key": key, **{k: p[k] for k in ("benchmark", "seed", *SERVE_REQUEST)}}
        for key, p in payloads.items()
    ]
    report, _, _ = run.spawn(
        "verify",
        {"requests": requests, "impedance": IMPEDANCE, "jobs": 2},
    )
    reference = {r["key"]: r for r in report["reference"]}

    def latencies(replies):
        return [
            (r.finished - r.due) if r.ok and r.finished else float("inf")
            for r in replies
        ]

    for life in lives:
        for r in life["replies"]:
            got = r.result or {}
            want = reference[r.key]
            matches = (got.get("estimated"), got.get("observed")) == (
                want["estimated"],
                want["observed"],
            )
            if not run.op(
                (r.ok, f"serve {r.key}: status {r.status} {r.error or ''}"),
                (
                    matches or not r.ok,
                    f"serve {r.key}: ({got.get('estimated')}, "
                    f"{got.get('observed')}) != reference "
                    f"({want['estimated']}, {want['observed']})",
                ),
            ):
                r.error = r.error or "output mismatch"

    replies = plain["replies"]
    lat = latencies(replies)
    within = sum(1 for x in lat if x <= SERVE_LIMIT_S)
    busy = max((r.finished or r.due) for r in replies) - plain["t0"]
    goodput = rate(within, busy)
    # the latency limit holds on the wire; the reported latencies are
    # at the reference host speed
    raw_p50 = percentile(lat, 0.5)
    lat = [x * speed for x in lat]
    result = {
        "e2e": {
            "setup_s": median(setups),
            "peak_rss_mb": plain["rss_mb"],
            "ops_per_s": goodput,
            "op_latency_p50_s": percentile(lat, 0.5),
        },
        "lines": [
            f"  {len(lat)} requests (Poisson {SERVE_RATE}/s offered, "
            f"{SERVE_COLD_SHARE:.0%} unique cold, hot set of {len(SERVE_HOT)}) "
            f"on a fresh server, <= {SERVE_MAX_INFLIGHT} in flight; "
            f"set-up sampled on {len(setups)} fresh servers",
            f"  serve_p50_s {percentile(lat, 0.5):.4f} s (n={len(lat)}; "
            f"{raw_p50:.4f} unscaled)",
            f"  serve_p90_s {percentile(lat, 0.9):.4f} s "
            f"({sum(1 for x in lat if x > percentile(lat, 0.9))} samples beyond)",
            f"  serve_goodput_rps {goodput:.4f} req/s within {SERVE_LIMIT_S} s",
        ],
        "workload": {
            "serve_p50_s": percentile(lat, 0.5),
            "serve_p90_s": percentile(lat, 0.9),
            "serve_goodput_rps": goodput,
        },
    }
    if run.args.trace:
        figures = serve_figures(traced_life)
        run.check(
            figures["core.calibration.calls"] == 1,
            f"serve: {figures['core.calibration.calls']} calibrations, "
            "expected one for the warm-up's (impedance, window)",
        )

        # wrappers cost only where jobs compute: compare the wire compute
        # phase of dispatched requests, traced against untraced
        def compute(life):
            return median(
                [
                    r.first("result") - r.first("status", "dispatched")
                    for r in life["replies"]
                    if r.ok and r.first("status", "dispatched")
                ]
            )

        figures["trace.overhead_pct"] = 100 * (
            compute(traced_life) / compute(plain) - 1
        )
        result["layers"] = figures
        result["spans"] = traced_life["spans"]
    return result


def serve_figures(life: dict) -> dict:
    """Layer numbers of one traced server lifetime."""
    replies = life["replies"]
    # the wall is set-up plus every request's lifetime on the wire; the
    # server's layer spans say how much of it they explain
    busy = [(r.due, r.finished) for r in replies if r.finished]
    figures = span_figures(
        life["spans"], [(life["t_spawn"], life["t_ready"])] + busy
    )
    phases = serve_phases(replies)
    for name, values in phases.items():
        figures[f"serve.{name}_p50_s"] = percentile(values, 0.5)
        figures[f"serve.{name}_p90_s"] = percentile(values, 0.9)
    stats = life["stats"]
    refused = sum(stats.get(k, 0) for k in ("rejected_429", "rejected_503"))
    figures.update(
        {
            "serve.cache_fastpath": stats.get("cache_fastpath", 0),
            "serve.coalesced": stats.get("coalesced", 0),
            "serve.dispatched_jobs": stats.get("dispatched_jobs", 0),
            "serve.batches": stats.get("batches", 0),
            "serve.refused": refused,
            "serve.cache_hit_ratio": rate(
                stats.get("cache_fastpath", 0), stats.get("submitted", 0)
            ),
            "serve.jobs_per_batch": rate(
                stats.get("dispatched_jobs", 0), stats.get("batches", 0)
            ),
            "loadgen.lateness_p90_s": percentile(
                [r.sent - r.due for r in replies], 0.9
            ),
        }
    )
    return figures


WORKLOADS = {
    "sweep_cold": sweep_cold,
    "store_rescan": store_rescan,
    "serve_mixed": serve_mixed,
    "control_loop": control_loop,
}


# -- entry point --------------------------------------------------------------------


def write_expected(run: Run) -> None:
    """Recompute the sweep and control output oracle from this checkout."""
    sweep, _, _ = run.spawn(
        "sweep", {**SWEEP_CONFIG, "cache_dir": str(run.fresh_dir("cache"))}
    )
    control, _, _ = run.spawn("control", CONTROL_CONFIG)
    expected = {
        "sweep": {
            o["benchmark"]: {
                "estimated": o["estimated"],
                "observed": o["observed"],
                "stats": o["stats"],
            }
            for o in sweep["outcomes"]
        },
        "control": {e["benchmark"]: e["result"] for e in control["experiments"]},
    }
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m for m in spec["end_to_end"]},
        {m["name"]: m for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a repro checkout",
            file=sys.stderr,
        )
        return 2
    if not args.write_expected and args.workload is None:
        parser.error("--workload is required")
    end_to_end, per_layer = metric_specs()
    # byte-compile up front, so no run pays (or skips) compilation
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    run = Run(args)
    try:
        if args.write_expected:
            write_expected(run)
            print(f"wrote {EXPECTED}")
            return 0
        result = WORKLOADS[args.workload](run)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    failed = min(run.failed, run.attempted)  # run-wide check misses included
    e2e = result["e2e"]
    e2e["ok_ratio"] = 1.0 - rate(failed, run.attempted)
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'})")
    for line in result["lines"]:
        print(line)
    print(
        f"  host probe median {median(run.probes):.5f} s over {len(run.probes)} "
        f"probes; timed figures are at the reference speed "
        f"(probe = {hostspeed.PROBE_REF_S} s)"
    )
    for problem in run.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    if args.trace:
        layers = {name: 0.0 for name in per_layer}
        layers.update(
            {k: v for k, v in result["layers"].items() if k in per_layer}
        )
        layers.update(result["workload"])
        layers["host.probe_s"] = median(run.probes)
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(result["spans"]))
        print(f"  spans: {spans_path.relative_to(ROOT)} ({len(result['spans'])})")
        for line in attribution_lines(result["spans"], layers):
            print(line)
        chosen, specs = layers, per_layer
    else:
        chosen, specs = e2e, end_to_end
    for name, spec in specs.items():
        print(f"  {name} = {chosen.get(name, 0.0):.6g} {spec['unit']}")
    metrics = {
        name: {"value": float(chosen.get(name, 0.0)), "unit": spec["unit"]}
        for name, spec in specs.items()
    }
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
