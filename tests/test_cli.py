"""Unit tests for the command-line interface."""

import pytest

from repro.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    build_parser,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "gzip"])
        assert args.benchmark == "gzip"
        assert args.cycles == 16384

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "doom"])

    def test_control_options(self):
        args = build_parser().parse_args(
            ["control", "mgrid", "--scheme", "damping", "--impedance", "200"]
        )
        assert args.scheme == "damping"
        assert args.impedance == 200.0

    def test_characterize_threshold(self):
        args = build_parser().parse_args(
            ["characterize", "gcc", "--threshold", "0.96"]
        )
        assert args.threshold == 0.96


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "apsi" in out
        assert "SPECint2000" in out and "SPECfp2000" in out

    def test_simulate_output(self, capsys):
        assert main(["simulate", "gzip", "--cycles", "3000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "current" in out

    def test_characterize_output(self, capsys):
        assert main(["characterize", "vpr", "--cycles", "8192"]) == 0
        out = capsys.readouterr().out
        assert "estimated % cycles" in out
        assert "level 5" in out

    def test_control_output(self, capsys):
        assert main(
            ["control", "vpr", "--cycles", "3000", "--scheme", "wavelet"]
        ) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert "faults" in out

    def test_control_damping_scheme(self, capsys):
        assert main(
            ["control", "vpr", "--cycles", "3000", "--scheme", "damping"]
        ) == 0
        assert "damping control" in capsys.readouterr().out


class TestExtendedCommands:
    def test_phases_output(self, capsys):
        from repro.cli import main

        assert main(["phases", "applu", "--cycles", "16384"]) == 0
        out = capsys.readouterr().out
        assert "wavelet-signature phases" in out
        assert "phase 0" in out

    def test_breakdown_output(self, capsys):
        from repro.cli import main

        assert main(["breakdown", "gzip", "--cycles", "3000"]) == 0
        out = capsys.readouterr().out
        assert "per-unit current" in out
        assert "clock" in out

    @pytest.mark.parametrize("name", ["mcf", "gzip"])
    def test_breakdown_bars_sum_to_printed_total(
        self, name, capsys, monkeypatch
    ):
        from repro import cli

        charted = {}
        bar_chart = cli.viz.bar_chart

        def capture(data, **kwargs):
            charted.update(data)
            return bar_chart(data, **kwargs)

        monkeypatch.setattr(cli.viz, "bar_chart", capture)
        assert main(["breakdown", name, "--cycles", "4096"]) == 0
        title = capsys.readouterr().out.splitlines()[0]
        # the bars and the title's total cover the same measured cycles
        _, total = cli._measure_breakdown(name, 4096)
        assert f"total {total:.1f} A" in title
        assert sum(charted.values()) == pytest.approx(total, rel=1e-9)

    def test_sizing_output(self, capsys):
        from repro.cli import main

        assert main(["sizing", "gzip", "--cycles", "8192"]) == 0
        out = capsys.readouterr().out
        assert "max tolerable target impedance" in out

    def test_sizing_parser_accepts_many(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sizing", "gzip", "mcf", "mgrid"])
        assert args.benchmarks == ["gzip", "mcf", "mgrid"]


class TestPipelineParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["pipeline", "run"])
        assert args.pipeline_command == "run"
        assert args.jobs == 1
        assert args.cache_dir == ".repro-cache"
        assert args.suite is None and args.benchmarks is None

    def test_run_suite_and_jobs(self):
        args = build_parser().parse_args(
            ["pipeline", "run", "--suite", "spec2000", "--jobs", "4"]
        )
        assert args.suite == "spec2000"
        assert args.jobs == 4

    def test_status_and_clear(self):
        assert build_parser().parse_args(
            ["pipeline", "status"]
        ).pipeline_command == "status"
        assert build_parser().parse_args(
            ["pipeline", "clear"]
        ).pipeline_command == "clear"

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pipeline"])

    def test_characterize_jobs_flag(self):
        args = build_parser().parse_args(
            ["characterize", "gcc", "vpr", "--jobs", "2"]
        )
        assert args.benchmarks == ["gcc", "vpr"]
        assert args.jobs == 2


class TestPipelineCommands:
    def test_run_reports_timings_hits_and_rms(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = [
            "pipeline", "run", "--benchmarks", "vpr", "gzip",
            "--cycles", "4096", "--cache-dir", cache,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "simulate" in first and "[miss]" in first
        assert "figure9 rms error" in first
        assert "0 cache hits / 6 misses" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "[hit ]" in second
        assert "6 cache hits / 0 misses" in second
        # identical figure9 output between fresh and cached runs
        def rms(out):
            return [ln for ln in out.splitlines() if "rms error" in ln][0]

        assert rms(first) == rms(second)

    def test_run_no_cache(self, capsys):
        assert main([
            "pipeline", "run", "--benchmarks", "vpr",
            "--cycles", "4096", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "cache disabled" in out

    def test_status_and_clear(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        main([
            "pipeline", "run", "--benchmarks", "vpr",
            "--cycles", "4096", "--cache-dir", cache,
        ])
        capsys.readouterr()
        assert main(["pipeline", "status", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries         : 3" in out
        assert main(["pipeline", "clear", "--cache-dir", cache]) == 0
        assert "removed 3" in capsys.readouterr().out

    def test_characterize_multiple_benchmarks(self, capsys):
        assert main([
            "characterize", "vpr", "gzip", "--cycles", "4096",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 benchmarks at 150% impedance" in out
        assert "est %" in out
        assert "stage runs" in out


class TestExitCodes:
    """The documented contract: 0 ok, 1 partial, 2 usage, 3 internal."""

    def test_fault_flags_parse(self):
        args = build_parser().parse_args([
            "pipeline", "run", "--resume", "--retries", "3",
            "--timeout", "20", "--backoff", "0.1",
            "--inject-faults", "ci-plan",
        ])
        assert args.resume is True
        assert args.retries == 3
        assert args.timeout == 20.0
        assert args.inject_faults == "ci-plan"

    def test_success_is_zero(self, capsys):
        assert main(["list"]) == EXIT_OK

    def test_conflicting_flags_are_usage_errors(self, capsys):
        code = main([
            "pipeline", "run", "--suite", "int", "--benchmarks", "gzip",
            "--no-cache",
        ])
        assert code == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_bad_fault_plan_is_usage_shaped(self, capsys):
        # parse_plan raises SpecError, surfaced without a traceback
        code = main([
            "pipeline", "run", "--benchmarks", "gzip", "--no-cache",
            "--inject-faults", "simulate:explode",
        ])
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "SpecError" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["obs", "report"],
            ["obs", "chrome"],
            ["obs", "serve", "--duration", "0", "--log"],
        ],
        ids=["report", "chrome", "serve"],
    )
    def test_missing_obs_log_is_usage_error(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "MISSING.jsonl")
        assert main([*argv, missing]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.strip() == f"repro: usage error: no such log file: {missing}"

    def test_resume_without_cache_is_usage_error(self, capsys):
        code = main([
            "pipeline", "run", "--benchmarks", "gzip", "--no-cache",
            "--resume",
        ])
        assert code == EXIT_USAGE

    def test_failing_batch_is_partial_with_report(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        code = main([
            "pipeline", "run", "--benchmarks", "gzip", "--no-cache",
            "--cycles", "2048", "--retries", "0", "--backoff", "0.02",
            "--inject-faults", "simulate@gzip:raise:*",
        ])
        assert code == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "1 of 1 jobs failed" in out
        assert "kind=exception" in out
        assert "Traceback" not in out

    def test_injected_fault_retried_to_success(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        code = main([
            "pipeline", "run", "--benchmarks", "gzip", "--no-cache",
            "--cycles", "2048", "--retries", "2", "--backoff", "0.02",
            "--inject-faults", "simulate@gzip:raise:1",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "1 retries" in out
        assert "(attempt 2)" in out

    def test_internal_errors_print_traceback(self, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_cmd_list", lambda: 1 / 0)
        assert main(["list"]) == EXIT_INTERNAL
        assert "Traceback" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "control", "breakdown"])
    @pytest.mark.parametrize("cycles", ["0", "-5"])
    def test_non_positive_cycles_are_usage_errors(self, capsys, command, cycles):
        # rejected while parsing, before any simulation runs
        with pytest.raises(SystemExit) as exc:
            main([command, "gzip", "--cycles", cycles])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "must be a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["characterize", "gzip"],
            ["phases", "gzip"],
            ["sizing", "gzip"],
            ["report"],
            ["pipeline", "run", "--benchmarks", "gzip", "--no-cache"],
            ["store", "ingest", "gzip"],
            ["scenario", "run", "gzip"],
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    @pytest.mark.parametrize("cycles", ["0", "-5"])
    def test_every_cycles_option_rejects_non_positive(self, capsys, argv, cycles):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cycles", cycles])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "must be a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, minimum",
        [
            (["phases", "gzip"], "768"),  # 3 phases of a 256-cycle window
            (["phases", "gzip", "--phases", "5"], "1280"),
            (["sizing", "gzip"], "1025"),  # past the 1024-cycle settle
        ],
        ids=["phases", "phases-5", "sizing"],
    )
    @pytest.mark.parametrize("cycles", ["64", "767"])
    def test_too_few_cycles_name_the_minimum(self, capsys, argv, minimum, cycles):
        # rejected before any simulation runs
        assert main([*argv, "--cycles", cycles]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"at least {minimum}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "run", "--benchmarks", "gzip", "--no-cache"],
            ["scenario", "run", "cache-thrash", "--no-cache"],
        ],
        ids=["pipeline-run", "scenario-run"],
    )
    @pytest.mark.parametrize("window", ["0", "-8", "100", "2"])
    def test_bad_window_is_rejected_while_parsing(self, capsys, argv, window):
        # the estimator's own rule (a power of two >= 4), before any
        # simulation or retry
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cycles", "4096", "--window", window])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "window must be a power of two >= 4" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("impedance", ["100", "150", "200"])
    @pytest.mark.parametrize("cycles", ["1", "511"])
    def test_control_below_the_monitor_kernel_names_the_minimum(
        self, capsys, monkeypatch, impedance, cycles
    ):
        import repro.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run_control_experiment", never)
        argv = ["control", "gzip", "--impedance", impedance, "--cycles", cycles]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        # the monitor's kernel is next_pow2(default_tap_count(net)) taps
        assert "at least 512" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, window",
        [
            (["characterize", "gzip"], "256"),
            (["characterize", "--scenario", "cache-thrash"], "256"),
            (["pipeline", "run", "--benchmarks", "gzip", "--no-cache"], "256"),
            (["pipeline", "run", "--benchmarks", "gzip", "--no-cache",
              "--window", "1024"], "1024"),
            (["scenario", "run", "cache-thrash", "--no-cache"], "256"),
        ],
        ids=["characterize", "characterize-scenario", "pipeline-run",
             "pipeline-run-1024", "scenario-run"],
    )
    def test_cycles_below_one_window_are_usage_errors(
        self, capsys, monkeypatch, argv, window
    ):
        import repro.pipeline as pipeline

        def no_submit(*args, **kwargs):
            raise AssertionError("submitted a batch that cannot succeed")

        monkeypatch.setattr(pipeline, "submit", no_submit)
        assert main([*argv, "--cycles", "64"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--cycles must be at least {window}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench"],
            ["loadgen", "--target", "127.0.0.1:1", "--compare", "base.json"],
        ],
        ids=["bench", "loadgen-compare"],
    )
    def test_removed_bench_surface_is_a_usage_error(self, capsys, argv):
        # speed is measured by perfbench alone (perfbench/README.md)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE


class TestStoreCommands:
    """The `repro store` group and the store-fed pipeline path."""

    def test_store_parser_defaults(self):
        args = build_parser().parse_args(["store", "ingest", "gzip"])
        assert args.store_command == "ingest"
        assert args.store == ".trace-store"
        assert args.cycles == 32768
        args = build_parser().parse_args(["store", "gc", "--store", "x"])
        assert args.store == "x"

    def test_store_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_pipeline_run_store_flag(self):
        args = build_parser().parse_args(
            ["pipeline", "run", "--store", "corpus"]
        )
        assert args.store == "corpus"

    def test_ingest_ls_verify_gc_round_trip(self, capsys, tmp_path):
        store = str(tmp_path / "corpus")
        code = main([
            "store", "ingest", "gzip", "mcf",
            "--store", store, "--cycles", "2048",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "gzip" in out and "2 traces" in out

        assert main(["store", "ls", "--store", store]) == EXIT_OK
        out = capsys.readouterr().out
        assert "simulate" in out and "mcf" in out

        assert main(["store", "verify", "--store", store]) == EXIT_OK
        assert "intact" in capsys.readouterr().out

        assert main(["store", "gc", "--store", store]) == EXIT_OK
        assert "reclaimed" in capsys.readouterr().out

    def test_ingest_from_file(self, capsys, tmp_path):
        import numpy as np

        trace_path = tmp_path / "probe.txt"
        trace_path.write_text(
            "".join(f"{v}\n" for v in np.linspace(10, 20, 256))
        )
        code = main([
            "store", "ingest", "--from-file", str(trace_path),
            "--label", "probe", "--store", str(tmp_path / "corpus"),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "probe" in out and "256 samples" in out

    def test_ingest_without_input_is_usage_error(self, capsys, tmp_path):
        code = main(["store", "ingest", "--store", str(tmp_path / "c")])
        assert code == EXIT_USAGE

    def test_verify_reports_corruption_as_partial(self, capsys, tmp_path):
        from repro.store import TraceStore

        store_dir = tmp_path / "corpus"
        store = TraceStore(store_dir, mode="a")
        record = store.ingest(
            40.0 + 0.0 * __import__("numpy").arange(64.0), "gzip"
        )
        path = store.chunk_path(record.chunk)
        blob = bytearray(path.read_bytes())
        blob[record.offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        code = main(["store", "verify", "--store", str(store_dir)])
        assert code == EXIT_PARTIAL
        assert "corrupt" in capsys.readouterr().out

    def test_pipeline_run_from_store(self, capsys, tmp_path):
        store = str(tmp_path / "corpus")
        assert main([
            "store", "ingest", "gzip",
            "--store", store, "--cycles", "4096",
        ]) == EXIT_OK
        capsys.readouterr()
        code = main([
            "pipeline", "run", "--store", store, "--no-cache",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "load_trace" in out
        assert "figure9 rms error" in out

    def test_store_with_suite_is_usage_error(self, capsys):
        code = main([
            "pipeline", "run", "--store", "x", "--suite", "int",
            "--no-cache",
        ])
        assert code == EXIT_USAGE

    def test_missing_store_is_partial_not_traceback(self, capsys, tmp_path):
        code = main([
            "pipeline", "run", "--store", str(tmp_path / "nope"),
            "--no-cache",
        ])
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "SpecError" in err and "Traceback" not in err
