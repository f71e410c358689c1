"""Tests for the experiment CLI."""

import json
import os
import time

import pytest

from repro.cli import build_parser, cmd_info, cmd_list, main
from repro.evalx.registry import EXPERIMENTS


class TestCli:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in output

    def test_list_empty_registry(self, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "EXPERIMENTS", {})
        assert main(["list"]) == 0
        assert "no experiments registered" in capsys.readouterr().out

    def test_info_known(self, capsys):
        assert main(["info", "fig2"]) == 0
        output = capsys.readouterr().out
        assert "Figure 2" in output
        assert "benchmarks/test_fig2_entity_linkage.py" in output

    def test_info_unknown(self, capsys):
        assert main(["info", "NOPE"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_unknown(self, capsys):
        assert main(["run", "NOPE"]) == 2

    def test_run_invokes_pytest_on_bench(self, monkeypatch, capsys):
        calls = {}

        def fake_call(command, cwd=None):
            calls["command"] = command
            calls["cwd"] = cwd
            return 0

        import repro.cli as cli

        monkeypatch.setattr(cli.subprocess, "call", fake_call)
        assert main(["run", "FIG2"]) == 0
        assert "--benchmark-only" in calls["command"]
        assert any("test_fig2_entity_linkage.py" in part for part in calls["command"])

    def test_run_all_targets_benchmarks_dir(self, monkeypatch):
        calls = {}

        def fake_call(command, cwd=None):
            calls["command"] = command
            return 0

        import repro.cli as cli

        monkeypatch.setattr(cli.subprocess, "call", fake_call)
        assert main(["run", "all"]) == 0
        assert any(part.endswith("benchmarks") for part in calls["command"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_covers_every_subcommand(self, capsys):
        """`repro --help` must list all subcommands, serving included."""
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0
        output = capsys.readouterr().out
        for subcommand in (
            "list",
            "info",
            "run",
            "trace",
            "report",
            "serve",
            "loadgen",
            "slo",
            "runs",
        ):
            assert subcommand in output, f"--help missing subcommand {subcommand!r}"

    def test_bench_command_is_gone(self, capsys):
        """Performance is measured by `python3 -m bench.run`, not by this CLI."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


#: Every subcommand that takes a shared option group, with the values the
#: group's options must parse to (given, then default).
_RUN_REGISTRY = (
    ["--no-runs", "--runs-dir", "r"],
    {"no_runs": True, "runs_dir": "r"},
    {"no_runs": False, "runs_dir": None},
)
_PROGRESS = (
    ["--progress", "--progress-log", "p.jsonl"],
    {"progress": True, "progress_log": "p.jsonl"},
    {"progress": False, "progress_log": None},
)
_FIXTURE_WORLD = (
    ["--people", "7", "--movies", "5", "--seed", "3"],
    {"people": 7, "movies": 5, "seed": 3},
    {"people": 120, "movies": 80, "seed": 11},
)
_RUNS_DIR = (["--runs-dir", "r"], {"runs_dir": "r"}, {"runs_dir": None})
_QUICK = (["--quick"], {"quick": True}, {"quick": False})
_SHARDS = (["--shards", "4"], {"shards": 4}, {"shards": 1})
_TRAFFIC = (
    ["--concurrency", "2", "--seed", "5"],
    {"concurrency": 2, "seed": 5},
    {"concurrency": 8, "seed": 31},
)
_SHARED_OPTIONS = {
    "trace": (["trace", "X"], [_PROGRESS, _RUN_REGISTRY]),
    "report": (["report", "X"], [_PROGRESS, _RUN_REGISTRY]),
    "build": (["build"], [_FIXTURE_WORLD, _RUN_REGISTRY]),
    "stream": (["stream"], [_FIXTURE_WORLD, _SHARDS, _RUN_REGISTRY]),
    "runs-list": (["runs", "list"], [_RUNS_DIR]),
    "runs-show": (["runs", "show", "r0001"], [_RUNS_DIR]),
    "runs-diff": (["runs", "diff", "r0001", "r0002"], [_RUNS_DIR]),
    "runs-drift": (["runs", "drift"], [_RUNS_DIR]),
    "serve": (["serve", "WORLD"], [_QUICK, _SHARDS]),
    "save": (["save", "WORLD", "-o", "w.rkgs"], [_QUICK]),
    "loadgen": (["loadgen", "WORLD"], [_QUICK, _SHARDS, _TRAFFIC]),
    "slo": (["slo", "WORLD"], [_QUICK, _SHARDS, _TRAFFIC]),
}


class TestSharedOptions:
    """Option groups are declared once (argparse ``parents=``) and must
    parse the same under every subcommand that takes them."""

    @pytest.mark.parametrize("command", sorted(_SHARED_OPTIONS))
    def test_parses_given_and_default(self, command):
        base, groups = _SHARED_OPTIONS[command]
        given = vars(
            build_parser().parse_args(base + [flag for g in groups for flag in g[0]])
        )
        default = vars(build_parser().parse_args(base))
        for _flags, expected, expected_default in groups:
            assert {key: given[key] for key in expected} == expected
            assert {key: default[key] for key in expected} == expected_default


class TestTraceCommand:
    def test_trace_unknown_id(self, capsys):
        assert main(["trace", "NOPE"]) == 2
        assert "no trace workload" in capsys.readouterr().err

    def test_trace_writes_jsonl_and_summary(self, monkeypatch, capsys, tmp_path):
        from repro.core.pipeline import ConstructionPipeline
        from repro.evalx import tracerun

        def tiny_workload():
            pipeline = ConstructionPipeline("tiny")
            pipeline.add_function("alpha", lambda ctx: None)
            pipeline.add_function("beta", lambda ctx: None)
            pipeline.run()

        monkeypatch.setitem(tracerun.TRACE_WORKLOADS, "T-TINY", tiny_workload)
        output = tmp_path / "trace_tiny.jsonl"
        assert main(["trace", "t-tiny", "-o", str(output), "--no-runs"]) == 0

        records = [
            json.loads(line) for line in output.read_text().splitlines() if line
        ]
        span_records = [r for r in records if r["kind"] == "span"]
        names = {r["name"] for r in span_records}
        # One span per pipeline stage, plus pipeline and experiment roots.
        assert {"stage.alpha", "stage.beta", "pipeline.tiny", "experiment.T-TINY"} <= names
        (metrics_record,) = [r for r in records if r["kind"] == "metrics"]
        assert metrics_record["counters"]["pipeline.stage.runs"] == 2.0

        printed = capsys.readouterr().out
        assert "per-span summary" in printed
        assert "stage.alpha" in printed

    def test_trace_leaves_observability_disabled(self, monkeypatch, tmp_path):
        from repro import obs
        from repro.evalx import tracerun

        monkeypatch.setitem(tracerun.TRACE_WORKLOADS, "T-TINY", lambda: None)
        assert not obs.enabled()
        assert main(["trace", "T-TINY", "-o", str(tmp_path / "t.jsonl"), "--no-runs"]) == 0
        assert not obs.enabled()

    def test_trace_registry_ids_are_real(self):
        from repro.evalx.tracerun import TRACE_WORKLOADS

        assert set(TRACE_WORKLOADS) <= set(EXPERIMENTS)

    def test_trace_records_run_in_registry(self, monkeypatch, capsys, tmp_path):
        from repro.evalx import tracerun
        from repro.obs.runs import RunRegistry

        monkeypatch.setitem(tracerun.TRACE_WORKLOADS, "T-TINY", lambda: None)
        runs_dir = tmp_path / "runs"
        assert main(
            [
                "trace", "T-TINY",
                "-o", str(tmp_path / "t.jsonl"),
                "--runs-dir", str(runs_dir),
            ]
        ) == 0
        assert "run r0001 ->" in capsys.readouterr().out
        (record,) = RunRegistry(str(runs_dir)).load()
        assert record.kind == "trace"
        assert record.experiment_id == "T-TINY"
        assert record.resources["peak_rss_kb"] > 0  # rusage rode along


def _tiny_workload():
    from repro.core.pipeline import ConstructionPipeline

    pipeline = ConstructionPipeline("tiny")
    pipeline.add_function("alpha", lambda ctx: None)
    pipeline.run()


@pytest.fixture
def tiny_trace(monkeypatch):
    from repro.evalx import tracerun

    monkeypatch.setitem(tracerun.TRACE_WORKLOADS, "T-TINY", _tiny_workload)


class TestTraceFromFile:
    def test_missing_file_is_one_line_error(self, capsys):
        assert main(["trace", "T-TINY", "--from-file", "/nonexistent/t.jsonl"]) == 1
        err = capsys.readouterr().err
        assert "not found" in err
        assert len(err.strip().splitlines()) == 1  # actionable, not a traceback

    def test_truncated_file_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "span", "name": "root", "span_id": "s1",
                    "parent_id": None, "wall_seconds": 0.1, "cpu_seconds": 0.1,
                }
            )
            + "\n"
            + '{"kind": "span", "name": "chopped'  # a torn final write
        )
        assert main(["trace", "T-TINY", "--from-file", str(path)]) == 1
        err = capsys.readouterr().err
        assert "truncated or corrupt at line 2" in err
        assert len(err.strip().splitlines()) == 1

    def test_round_trip_through_inspection_mode(self, tiny_trace, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main(["trace", "T-TINY", "-o", str(path), "--no-runs"]) == 0
        capsys.readouterr()
        assert main(["trace", "T-TINY", "--from-file", str(path)]) == 0
        output = capsys.readouterr().out
        assert "per-span summary" in output
        assert "stage.alpha" in output


class TestReportErrors:
    def test_corrupt_baseline_is_one_line_error(self, tiny_trace, capsys, tmp_path):
        baseline = tmp_path / "report_bad.json"
        baseline.write_text('{"version": 1, "qual')  # truncated write
        assert main(
            [
                "report", "T-TINY",
                "-o", str(tmp_path),
                "--baseline", str(baseline),
                "--no-runs",
            ]
        ) == 1
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert len(err.strip().splitlines()) == 1

    def test_report_gates_on_registry_drift(self, tiny_trace, capsys, tmp_path):
        """The trajectory gate end-to-end: a seeded history flags this run."""
        from repro.obs.runs import RunRecord, RunRegistry

        runs_dir = tmp_path / "runs"
        registry = RunRegistry(str(runs_dir))
        for _ in range(10):
            registry.append(
                RunRecord(
                    kind="report",
                    experiment_id="T-TINY",
                    metrics={"counter.pipeline.stage.runs": 50.0},
                )
            )
        assert main(
            ["report", "T-TINY", "-o", str(tmp_path), "--runs-dir", str(runs_dir)]
        ) == 1
        err = capsys.readouterr().err
        assert "drifted below the registry trajectory" in err
        assert "counter.pipeline.stage.runs" in err

    def test_report_on_trajectory_passes(self, tiny_trace, capsys, tmp_path):
        assert main(
            ["report", "T-TINY", "-o", str(tmp_path), "--runs-dir", str(tmp_path / "runs")]
        ) == 0
        assert "run r0001 ->" in capsys.readouterr().out


class TestRunsCli:
    def _seed(self, runs_dir, accuracies, experiment_id="SYN"):
        from repro.obs.runs import RunRecord, RunRegistry

        registry = RunRegistry(str(runs_dir))
        for accuracy in accuracies:
            registry.append(
                RunRecord(
                    kind="report",
                    experiment_id=experiment_id,
                    quality=[{"name": "kg", "n_triples": 100, "accuracy": accuracy}],
                )
            )
        return registry

    def test_list_empty_registry(self, capsys, tmp_path):
        assert main(["runs", "list", "--runs-dir", str(tmp_path / "runs")]) == 0
        assert "0 run(s)" in capsys.readouterr().out

    def test_list_shows_runs(self, capsys, tmp_path):
        self._seed(tmp_path / "runs", [0.9, 0.91])
        assert main(["runs", "list", "--runs-dir", str(tmp_path / "runs")]) == 0
        output = capsys.readouterr().out
        assert "r0001" in output and "r0002" in output and "SYN" in output

    def test_show_unknown_run_exits_2(self, capsys, tmp_path):
        self._seed(tmp_path / "runs", [0.9])
        assert main(["runs", "show", "r0042", "--runs-dir", str(tmp_path / "runs")]) == 2
        assert "not in registry" in capsys.readouterr().err

    def test_diff_regression_exits_1(self, capsys, tmp_path):
        self._seed(tmp_path / "runs", [0.95, 0.60])
        assert main(
            ["runs", "diff", "r0001", "r0002", "--runs-dir", str(tmp_path / "runs")]
        ) == 1
        assert "regression" in capsys.readouterr().out

    def test_drift_stable_exits_0(self, capsys, tmp_path):
        self._seed(tmp_path / "runs", [0.950, 0.951, 0.949, 0.950, 0.951, 0.950])
        assert main(["runs", "drift", "--runs-dir", str(tmp_path / "runs")]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_drift_injected_drop_exits_1(self, capsys, tmp_path):
        self._seed(
            tmp_path / "runs",
            [0.950, 0.952, 0.948, 0.951, 0.949, 0.950, 0.953, 0.947, 0.951, 0.949, 0.80],
        )
        assert main(["runs", "drift", "--runs-dir", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert "drifted DOWN" in err
        assert "quality.kg.accuracy" in err


class TestObservabilityFlags:
    def test_slo_parser_defaults(self):
        from repro.cli import cmd_slo

        args = build_parser().parse_args(["slo", "WORLD", "--quick"])
        assert args.func is cmd_slo
        assert args.target == "WORLD"
        assert args.duration == 5.0 and args.concurrency == 8
        assert args.burn_threshold == 1.0
        assert args.fail_on_burn is False

    def test_slo_accepts_a_url_target(self):
        args = build_parser().parse_args(
            ["slo", "http://127.0.0.1:8080", "--fail-on-burn", "--burn-threshold", "2.0"]
        )
        assert args.target == "http://127.0.0.1:8080"
        assert args.fail_on_burn is True and args.burn_threshold == 2.0

    def test_loadgen_obs_compare_flags(self):
        args = build_parser().parse_args(
            ["loadgen", "WORLD", "--obs-compare", "--max-obs-overhead", "0.1"]
        )
        assert args.obs_compare is True and args.max_obs_overhead == 0.1
        defaults = build_parser().parse_args(["loadgen", "WORLD"])
        assert defaults.obs_compare is False and defaults.max_obs_overhead == 0.05

    @pytest.mark.parametrize(
        "flag", [["-o", "x.json"], ["--tolerance", "0.2"], ["--warn-only"]],
        ids=["-o", "--tolerance", "--warn-only"],
    )
    def test_loadgen_trajectory_flags_are_gone(self, flag, capsys):
        """`repro loadgen` drives traffic; it records and gates nothing."""
        with pytest.raises(SystemExit) as excinfo:
            main(["loadgen", "WORLD", "--quick", *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_serve_observability_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "WORLD",
                "--no-obs",
                "--trace-sample", "0.25",
                "--access-log", "/tmp/a.jsonl",
                "--access-log-sample", "0.5",
            ]
        )
        assert args.no_obs is True
        assert args.trace_sample == 0.25
        assert args.access_log == "/tmp/a.jsonl"
        assert args.access_log_sample == 0.5


class TestLoadgenExitCodes:
    """`repro loadgen` exits 1 on any 5xx, 2 when the target is not there."""

    #: The CI serve-smoke invocation.
    _ARGV = ["loadgen", "http://127.0.0.1:1", "--mode", "open", "--rps", "50", "--duration", "1"]

    @pytest.mark.parametrize("status_code, exit_code", [(500, 1), (200, 0)])
    def test_exit_code_follows_5xx(self, monkeypatch, capsys, status_code, exit_code):
        from repro.evalx import loadgen

        def ten_outcomes(client, **kwargs):
            return loadgen.LoadgenReport(
                mode=kwargs["mode"],
                duration_s=1.0,
                target_rps=kwargs["rps"],
                concurrency=kwargs["concurrency"],
                outcomes=[
                    loadgen.RequestOutcome("lookup", status_code, 1.0) for _ in range(10)
                ],
            )

        monkeypatch.setattr(loadgen, "run_loadgen", ten_outcomes)
        assert main(self._ARGV) == exit_code
        captured = capsys.readouterr()
        assert f"5xx {10 if exit_code else 0}" in captured.out
        assert ("10 server error(s) (5xx)" in captured.err) == bool(exit_code)

    def test_unreachable_url_is_one_line_error(self, capsys):
        import socket

        with socket.socket() as probe:  # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["loadgen", f"http://127.0.0.1:{port}", "--duration", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "/stats returned 599" in err
        assert len(err.strip().splitlines()) == 1  # actionable, not a traceback

    def test_slo_fixture_without_stats_is_one_line_error(self, monkeypatch, capsys):
        from repro import obs
        from repro.serve.server import InProcessClient

        monkeypatch.setattr(
            InProcessClient, "stats", lambda self: (503, {"error": "no snapshot"})
        )
        assert main(["slo", "WORLD", "--quick", "--duration", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "/stats returned 503 (no snapshot)" in err
        assert len(err.strip().splitlines()) == 1
        assert not obs.enabled()  # the fixture-mode scope was unwound


class TestStorageCli:
    """`repro save|load|compact` and `repro serve --snapshot`."""

    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("storage") / "world.rkgs"
        assert main(["save", "WORLD", "--quick", "-o", str(path)]) == 0
        return path

    def test_save_writes_snapshot(self, snapshot_path, capsys):
        capsys.readouterr()  # drop the fixture's output
        assert snapshot_path.exists()
        assert snapshot_path.stat().st_size > 0

    def test_save_unknown_fixture(self, tmp_path, capsys):
        assert main(["save", "NOPE", "-o", str(tmp_path / "x.rkgs")]) == 2
        assert "unknown serve fixture" in capsys.readouterr().err

    def test_load_round_trip(self, snapshot_path, capsys):
        assert main(["load", str(snapshot_path)]) == 0
        output = capsys.readouterr().out
        assert "triples" in output and "id terms" in output

    def test_load_legacy_typed_terms_fixture(self, capsys):
        fixture = os.path.join(os.path.dirname(__file__), "data", "typed_terms_v1.rkgs")
        assert main(["load", fixture]) == 0
        assert "6 triples, 3 entities, 11 id terms" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--snapshot", "x.rkgs", "--backend", "columnar"],
            ["load", "x.rkgs", "--backend", "dict"],
            ["compact", "wal-dir", "--backend", "columnar"],
        ],
        ids=["serve", "load", "compact"],
    )
    def test_backend_flag_is_gone(self, argv, capsys):
        """There is one storage layout; the old selector fails loudly."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_load_missing_file(self, tmp_path, capsys):
        assert main(["load", str(tmp_path / "ghost.rkgs")]) == 2
        err = capsys.readouterr().err
        assert err.strip()
        assert "\n" not in err.strip()  # one-line actionable error

    def test_load_corrupt_file(self, snapshot_path, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.rkgs"
        corrupt.write_bytes(snapshot_path.read_bytes()[:40])
        assert main(["load", str(corrupt)]) == 2
        assert "repro save" in capsys.readouterr().err

    def test_compact_folds_wal(self, tmp_path, capsys):
        from repro.core.codec import TripleWAL

        wal_dir = tmp_path / "wal"
        wal = TripleWAL(str(wal_dir))
        wal.append(
            {"op": "entity", "id": "e0", "name": "E0", "class": "Thing", "aliases": []}
        )
        for index in range(25):
            wal.append({"op": "add", "s": "e0", "p": "p", "o": index})
        wal.close()
        assert main(["compact", str(wal_dir)]) == 0
        output = capsys.readouterr().out
        assert "compacted" in output
        assert "25 triples" in output
        assert (wal_dir / "base.rkgs").exists()

    def test_serve_snapshot_boots_and_exits(self, snapshot_path, capsys):
        assert (
            main(
                [
                    "serve",
                    "--snapshot",
                    str(snapshot_path),
                    "--port",
                    "0",
                    "--duration",
                    "0",
                    "--no-obs",
                    "--no-lm",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert f"snapshot:{snapshot_path}" in output
        assert "routes:" in output

    def test_serve_rejects_fixture_plus_snapshot(self, snapshot_path, capsys):
        assert main(["serve", "WORLD", "--snapshot", str(snapshot_path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_serve_requires_fixture_or_snapshot(self, capsys):
        assert main(["serve"]) == 2
        assert "--snapshot" in capsys.readouterr().err

    def test_serve_bad_snapshot_path(self, tmp_path, capsys):
        assert main(["serve", "--snapshot", str(tmp_path / "ghost.rkgs")]) == 2
        assert capsys.readouterr().err.strip()


class TestBuildCli:
    _ARGS = ["--people", "30", "--movies", "20", "--no-runs"]

    def test_build_check_equal_passes(self, capsys):
        assert main(["build", "--partitions", "2", "--check-equal", *self._ARGS]) == 0
        output = capsys.readouterr().out
        assert "byte-identical" in output
        assert "check state: equal" in output

    def test_build_records_run_config(self, tmp_path, capsys):
        assert (
            main(
                ["build", "--partitions", "3", "--runs-dir", str(tmp_path)]
                + self._ARGS[:-1]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["runs", "show", "r0001", "--runs-dir", str(tmp_path)]) == 0
        shown = capsys.readouterr().out
        assert '"partitions": 3' in shown

    def test_build_snapshot_carries_the_build_lineage(self, tmp_path, capsys):
        from repro.cli import _run_partitioned_build, build_parser
        from repro.core.codec import load_graph
        from repro.obs import reset_all
        from repro.obs.lineage import get_ledger

        path = str(tmp_path / "build.rkgs")
        argv = ["build", "--partitions", "2", *self._ARGS]
        assert main([*argv, "-o", path]) == 0
        capsys.readouterr()
        *_, built, _ = _run_partitioned_build(build_parser().parse_args(argv), 2)
        assert built["events"]
        reset_all()
        try:
            load_graph(path, restore_lineage=True)
            assert get_ledger().export_state() == built
        finally:
            reset_all()

    def test_bad_workers_env_is_one_line_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PMAP_WORKERS", "banana")
        assert main(["build", "--partitions", "2", *self._ARGS]) == 2
        err = capsys.readouterr().err
        assert "REPRO_PMAP_WORKERS" in err
        assert "Traceback" not in err

    def test_stream_prints_publish_split(self, tmp_path, capsys, monkeypatch):
        """The stream table sums the publish spans: copy and poll (a publish
        builds no shard replicas, whatever ``--shards`` says).  A poll of
        the ingestor's view takes microseconds, so each is made to last
        1 ms: a sum over a misspelled span name then reads 0 and fails."""
        from repro.stream.publish import WALFollower

        poll = WALFollower.poll

        def slow_poll(follower):
            time.sleep(0.001)
            return poll(follower)

        monkeypatch.setattr(WALFollower, "poll", slow_poll)
        args = ["stream", "--shards", "2", "--wal-dir", str(tmp_path), *self._ARGS]
        assert main(args) == 0
        rows = {
            line.split("  ")[0]: line.split()
            for line in capsys.readouterr().out.splitlines()
        }
        copy_ms, poll_ms = (float(part) for part in rows["publish copy / poll (ms)"][-3::2])
        n_publishes = int(rows["publishes"][-1])
        # Every publish but the one after finalize polls inside the stream.
        assert copy_ms > 0 and poll_ms >= n_publishes - 1 > 0

    def test_stream_reports_the_live_vs_final_gap(self, tmp_path, capsys):
        """The drained live graph against finalize()'s, in the table and in
        the run record: symmetric differences of triples and of entities."""
        from repro.core.partition import fixture_sources
        from repro.obs.runs import RunRegistry
        from repro.stream import StreamIngestor, micro_batches

        runs_dir = tmp_path / "runs"
        args = ["stream", "--wal-dir", str(tmp_path / "wal"), "--batch-size", "7",
                "--order-seed", "3", "--runs-dir", str(runs_dir), *self._ARGS[:-1]]
        assert main(args) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("live vs final (triples / entities)")
        )
        triple_diff, entity_diff = (int(part) for part in row.split()[-3::2])
        (record,) = RunRegistry(str(runs_dir)).load()
        assert record.metrics["live_final_triple_diff"] == triple_diff
        assert record.metrics["live_final_entity_diff"] == entity_diff

        ingestor = StreamIngestor()
        for delta in micro_batches(fixture_sources(30, 20, 11), 7, order_seed=3):
            ingestor.ingest(delta)
        final = ingestor.finalize().graph
        assert triple_diff == len(set(ingestor.graph.query()) ^ set(final.query()))
        assert entity_diff == 0

    def test_stream_removes_its_scratch_wal(self, tmp_path, monkeypatch, capsys):
        """Without --wal-dir the log lives in a temporary directory that is
        gone after the run, and its path is not printed."""
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        for _ in range(2):
            assert main(["stream", *self._ARGS]) == 0
        assert not list(tmp_path.glob("repro-stream-wal-*"))
        assert "repro-stream-wal-" not in capsys.readouterr().out

    def test_stream_keeps_a_given_wal_dir(self, tmp_path, capsys):
        wal_dir = tmp_path / "wal"
        assert main(["stream", "--wal-dir", str(wal_dir), *self._ARGS]) == 0
        assert (wal_dir / "base.rkgs").exists()
        assert str(wal_dir / "base.rkgs") in capsys.readouterr().out

    def test_stream_publishes_a_view_of_the_ingestor(self, tmp_path, capsys):
        """In-process publishes read the ingestor's own graph, not a replica."""
        assert main(["stream", "--wal-dir", str(tmp_path), *self._ARGS]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("follower")
        )
        assert "view of the ingestor's graph" in row
