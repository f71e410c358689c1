"""Command-line interface: list and run the paper's experiments.

Usage::

    python -m repro list                 # the experiment registry
    python -m repro run FIG2             # run one experiment's benchmark
    python -m repro run all              # run the whole benchmark suite
    python -m repro info T-LLMQA         # claim + bench path for one id
    python -m repro trace FIG4           # traced in-process run -> JSONL
    python -m repro report FIG4A         # traced run -> md/json/prom report
    python -m repro runs list            # the persistent run registry
    python -m repro runs drift           # trajectory drift check (median+MAD)
    python -m repro serve WORLD          # publish a fixture KG, serve HTTP
    python -m repro loadgen WORLD        # drive traffic, print latency table

``run`` shells out to pytest with ``--benchmark-only`` so the output is
identical to running the benchmark directly.  ``trace`` instead runs a
compact in-process workload with observability enabled and writes
``results/trace_<id>.jsonl`` (spans plus a final metrics record) next to
a printed per-span summary table.  ``report`` runs the same workload but
writes ``results/report_<id>.md`` / ``.json`` / ``.prom`` — span tree,
metric tables, quality snapshots, lineage samples — and, when a previous
``report_<id>.json`` exists (or ``--baseline`` points at one), diffs the
quality snapshots against it and exits non-zero on regressions.
``trace``, ``report``, ``build``, and ``stream`` each also append one
record (git SHA, per-stage wall/CPU, peak RSS, quality snapshots, flat
metrics) to the persistent run registry under ``results/runs/``, which
``runs [list|show|diff|drift]`` queries — ``drift`` scores the latest run
against the rolling median+MAD trajectory and exits non-zero when a
metric drops off it, and ``report`` applies the same check as a second
regression gate.
``serve`` builds one of the serving fixtures (``WORLD``, ``FIG4A``),
publishes it as an immutable snapshot (``--shards`` only sets the
subject-hash partition ``/stats`` reports), and serves the four-route
JSON API over HTTP until interrupted (or for ``--duration`` seconds).
``loadgen`` drives a running server (pass its URL) or an in-process
service (pass a fixture id) with a deterministic request mix in a closed
or open loop, prints throughput and latency percentiles, and exits 1 on
any 5xx.  Performance itself is measured and
gated outside this CLI, by ``python3 -m bench.run`` and
``python3 -m bench.compare`` (``BENCHMARK.json``, ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import Optional, Sequence

from repro.evalx.registry import EXPERIMENTS


def _repo_root() -> str:
    """The repository root: where DESIGN.md and benchmarks/ live."""
    here = os.path.dirname(os.path.abspath(__file__))
    # src/repro -> src -> repo root
    return os.path.dirname(os.path.dirname(here))


def cmd_list(_args: argparse.Namespace) -> int:
    """Print the experiment registry."""
    if not EXPERIMENTS:
        print("no experiments registered")
        return 0
    width = max(len(experiment_id) for experiment_id in EXPERIMENTS)
    for experiment_id, experiment in sorted(EXPERIMENTS.items()):
        print(f"{experiment_id:<{width}}  {experiment.paper_reference:<24} {experiment.bench_module}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Print one experiment's claim and bench target."""
    experiment = EXPERIMENTS.get(args.experiment_id.upper())
    if experiment is None:
        print(f"unknown experiment id {args.experiment_id!r}; try `list`", file=sys.stderr)
        return 2
    print(f"id:        {experiment.experiment_id}")
    print(f"reference: {experiment.paper_reference}")
    print(f"stage:     {experiment.stage.name.lower()} ({experiment.stage.describe()})")
    print(f"bench:     {experiment.bench_module}")
    print(f"claim:     {experiment.claim}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment's benchmark (or the full suite) via pytest."""
    root = _repo_root()
    if args.experiment_id.lower() == "all":
        target = os.path.join(root, "benchmarks")
    else:
        experiment = EXPERIMENTS.get(args.experiment_id.upper())
        if experiment is None:
            print(f"unknown experiment id {args.experiment_id!r}; try `list`", file=sys.stderr)
            return 2
        target = os.path.join(root, experiment.bench_module)
    command = [
        sys.executable,
        "-m",
        "pytest",
        target,
        "--benchmark-only",
        "-q",
        "-s",
    ]
    print("+ " + " ".join(command))
    return subprocess.call(command, cwd=root)


def _print_trace_summary(result, note: str) -> None:
    """The per-span summary + counters tables both trace paths print."""
    from repro.evalx.tables import render_table

    print(
        render_table(
            title=f"trace {result.experiment_id} - per-span summary",
            columns=["span", "calls", "wall_s", "wall_mean_s", "cpu_s"],
            rows=result.span_summary_rows(),
            note=note,
        )
    )
    counters = result.snapshot.get("counters", {})
    if counters:
        print()
        print(
            render_table(
                title=f"trace {result.experiment_id} - counters",
                columns=["counter", "value"],
                rows=[[name, value] for name, value in counters.items()],
            )
        )


def _append_run_record(args: argparse.Namespace, record) -> None:
    """Append one RunRecord to the persistent registry (unless --no-runs)."""
    from repro.obs import runs

    if getattr(args, "no_runs", False):
        return
    directory = getattr(args, "runs_dir", None) or runs.default_runs_dir(
        os.path.join(_repo_root(), "results")
    )
    registry = runs.RunRegistry(directory)
    registry.append(record)
    print(f"run {record.run_id} -> {registry.path}")


def _traced_run_record(kind: str, result, config):
    """The RunRecord of one ``run_trace`` result (``trace`` and ``report``)."""
    from repro.obs import profiling, runs

    return runs.RunRecord(
        kind=kind,
        experiment_id=result.experiment_id,
        config=config,
        stages=runs.stages_from_spans(result.spans),
        resources=profiling.rusage(),
        quality=[dict(record) for record in result.quality],
        metrics={
            f"counter.{name}": float(value)
            for name, value in result.snapshot.get("counters", {}).items()
        },
    )


def _run_trace(args: argparse.Namespace):
    """``run_trace`` for ``trace`` / ``report``: an unknown id prints
    ``run_trace``'s own message and returns None (the caller exits 2)."""
    from repro.evalx.tracerun import TRACE_WORKLOADS, run_trace

    try:
        return run_trace(
            args.experiment_id,
            progress_log=args.progress_log,
            progress_tty=args.progress,
        )
    except KeyError as exc:
        if args.experiment_id.upper() in TRACE_WORKLOADS:
            raise  # raised inside the workload: a bug, not a bad id
        print(exc.args[0], file=sys.stderr)
        return None


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one experiment in-process with observability on; write the trace."""
    import json

    from repro.evalx.tracerun import TraceResult

    experiment_id = args.experiment_id.upper()

    if args.from_file is not None:
        # Inspection mode: summarize an existing trace file, run nothing.
        from repro.evalx.report import ReportInputError, load_trace_file

        try:
            loaded = load_trace_file(args.from_file)
        except ReportInputError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        snapshot = {
            key: value for key, value in loaded["metrics"].items() if key != "kind"
        }
        result = TraceResult(
            experiment_id=experiment_id, spans=loaded["spans"], snapshot=snapshot
        )
        _print_trace_summary(
            result, note=f"{len(result.spans)} spans <- {args.from_file}"
        )
        return 0

    result = _run_trace(args)
    if result is None:
        return 2

    output_path = args.output
    if output_path is None:
        directory = os.path.join(_repo_root(), "results")
        os.makedirs(directory, exist_ok=True)
        output_path = os.path.join(
            directory, f"trace_{experiment_id.lower().replace('-', '_')}.jsonl"
        )
    else:
        parent = os.path.dirname(os.path.abspath(output_path))
        os.makedirs(parent, exist_ok=True)
    with open(output_path, "w", encoding="utf-8") as handle:
        for record in result.spans:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.write(
            json.dumps({"kind": "metrics", **result.snapshot}, sort_keys=True) + "\n"
        )

    _print_trace_summary(result, note=f"{len(result.spans)} spans -> {output_path}")

    _append_run_record(
        args, _traced_run_record("trace", result, {"output": output_path})
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Traced run -> report artifacts; exit 1 on baseline or drift regressions."""
    from repro.evalx.report import (
        ReportInputError,
        build_report,
        load_baseline,
        write_report,
    )
    from repro.obs.quality import RegressionThresholds

    experiment_id = args.experiment_id.upper()
    directory = args.output_dir or os.path.join(_repo_root(), "results")
    basename = f"report_{experiment_id.lower().replace('-', '_')}"
    baseline_path = args.baseline or os.path.join(directory, f"{basename}.json")
    try:
        baseline = load_baseline(baseline_path)
    except ReportInputError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    result = _run_trace(args)
    if result is None:
        return 2
    thresholds = RegressionThresholds(relative_tolerance=args.relative_tolerance)
    report = build_report(
        result,
        baseline=baseline,
        baseline_path=baseline_path if baseline is not None else None,
        thresholds=thresholds,
    )
    paths = write_report(report, directory, basename=basename)

    print(f"report {experiment_id}:")
    for kind in ("markdown", "json", "prometheus"):
        print(f"  {kind:<10} {paths[kind]}")

    # The second regression gate: this run vs the registry *trajectory*
    # (rolling median + MAD), which catches slow drift the single-baseline
    # diff above cannot see.
    drift_alerts = []
    if not args.no_runs:
        from repro.obs import runs

        runs_dir = args.runs_dir or runs.default_runs_dir(directory)
        registry = runs.RunRegistry(runs_dir)
        record = registry.append(
            _traced_run_record(
                "report",
                result,
                {"baseline": baseline_path if baseline is not None else None},
            )
        )
        print(f"run {record.run_id} -> {registry.path}")
        drift_alerts = registry.drift(
            experiment_id=experiment_id,
            window=args.drift_window,
            threshold=args.drift_threshold,
        )

    exit_code = 0
    if baseline is None:
        print("no baseline found; this run is the new baseline")
    elif report.has_regressions:
        print(
            f"{report.n_regressions} quality regression(s) vs {baseline_path}",
            file=sys.stderr,
        )
        for diff in report.diffs:
            for delta in diff.regressions:
                print(
                    f"  {diff.snapshot_name}: {delta.metric} "
                    f"{delta.baseline} -> {delta.current}",
                    file=sys.stderr,
                )
        exit_code = 1
    else:
        print(f"no regressions vs {baseline_path}")

    drops = [alert for alert in drift_alerts if alert.direction == "drop"]
    if drops:
        print(
            f"{len(drops)} metric(s) drifted below the registry trajectory "
            f"(|z| > {args.drift_threshold:g}):",
            file=sys.stderr,
        )
        for alert in drops:
            print(f"  {alert.describe()}", file=sys.stderr)
        exit_code = 1
    for alert in drift_alerts:
        if alert.direction == "rise":
            print(f"drift (rise, not gating): {alert.describe()}")
    return exit_code


def _graph_public_state(graph):
    """Observable graph state (query answers, provenance, entities) — the
    same surface the equivalence tests pin."""
    return {
        "triples": graph.query(),
        "provenance": graph.provenance(),
        "entities": sorted(
            (e.entity_id, e.name, e.entity_class, tuple(sorted(e.aliases)))
            for e in graph.entities()
        ),
    }


def _run_partitioned_build(args: argparse.Namespace, partitions: int):
    """One partitioned fixture build under a fresh observability scope.

    Returns ``(pipeline, context, wall_s, ledger_state, n_records)`` —
    everything ``cmd_build`` needs for reporting and the ``--check-equal``
    comparison.  Each call resets global observability state so two builds
    in one process (the N-shard run and its single-shard reference) record
    independent, comparable ledgers.
    """
    import time

    from repro.core.partition import (
        build_context,
        fixture_sources,
        partitioned_pipeline,
    )
    from repro.obs import enabled_scope, reset_all
    from repro.obs.lineage import get_ledger

    sources = fixture_sources(
        n_people=args.people, n_movies=args.movies, seed=args.seed
    )
    n_records = sum(len(source) for source in sources)
    reset_all()
    with enabled_scope():
        pipeline, context = partitioned_pipeline(sources, name="build")
        started = time.perf_counter()
        context = pipeline.run(context, partitions=partitions)
        wall_s = time.perf_counter() - started
        ledger_state = get_ledger().export_state()
    return pipeline, context, wall_s, ledger_state, n_records


def _check_equal(
    args: argparse.Namespace, graph, ledger_state, what: str, reference_name: str
) -> bool:
    """``--check-equal``: compare a build against the single-shard reference.

    Re-runs the fixture at ``partitions=1`` and compares observable graph
    state, the lineage ledger and the ``.rkgs`` bytes; prints one line per
    check and the verdict, and returns whether all three are equal.
    """
    import tempfile

    from repro.core import codec

    _, reference, _, reference_ledger, _ = _run_partitioned_build(args, 1)
    reference_graph = reference.artifacts["kg"]

    def snapshot_bytes(g) -> bytes:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "check.rkgs")
            codec.save_graph(g, path, include_lineage=False)
            with open(path, "rb") as handle:
                return handle.read()

    checks = {
        "state": _graph_public_state(graph) == _graph_public_state(reference_graph),
        "lineage": ledger_state == reference_ledger,
        "snapshot_bytes": snapshot_bytes(graph) == snapshot_bytes(reference_graph),
    }
    for name, ok in checks.items():
        print(f"check {name}: {'equal' if ok else 'DIFFERS'}")
    equal = all(checks.values())
    if equal:
        print(f"{what} is byte-identical to {reference_name}")
    else:
        print(f"{what} DIVERGES from {reference_name}", file=sys.stderr)
    return equal


def cmd_build(args: argparse.Namespace) -> int:
    """Partition-parallel fixture build; optionally prove it shard-invariant."""
    from repro.evalx.tables import render_table

    if args.partitions < 1:
        print("--partitions must be a positive integer", file=sys.stderr)
        return 2

    pipeline, context, wall_s, ledger_state, n_records = _run_partitioned_build(
        args, args.partitions
    )
    graph = context.artifacts["kg"]
    outcome = context.artifacts["exchange"]

    rows = []
    for report in pipeline.reports:
        rows.append([report.stage_name, f"{report.seconds:.4f}"])
    print(
        render_table(
            title=f"build --partitions {args.partitions}",
            columns=["stage", "seconds"],
            rows=rows,
            note=(
                f"{n_records} records -> {outcome.stats['n_triples']} triples, "
                f"{outcome.stats['n_entities']} entities in {wall_s:.3f}s "
                f"({n_records / wall_s:.0f} records/s)"
            ),
        )
    )

    equal = None
    if args.check_equal:
        equal = _check_equal(
            args,
            graph,
            ledger_state,
            f"partitions={args.partitions}",
            "the single-shard build",
        )

    if args.out:
        from repro.core import codec
        from repro.obs.lineage import get_ledger

        parent = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(parent, exist_ok=True)
        # The build's observability scope reset the global ledger on exit;
        # replay what the build recorded so the snapshot carries it.
        ledger = get_ledger()
        ledger.reset()
        ledger.merge_state(ledger_state)
        try:
            size = codec.save_graph(graph, args.out, include_lineage=True)
        finally:
            ledger.reset()
        print(f"snapshot -> {args.out} ({size} bytes)")

    from repro.obs import profiling, runs

    snapshot = context.artifacts.get("quality_snapshot")
    metrics = {
        f"exchange.{name}": float(value) for name, value in outcome.stats.items()
    }
    metrics["wall_s"] = round(wall_s, 6)
    metrics["records_per_s"] = round(n_records / wall_s, 3)
    _append_run_record(
        args,
        runs.RunRecord(
            kind="build",
            experiment_id=f"BUILD-P{args.partitions}",
            config={
                "partitions": args.partitions,
                "people": args.people,
                "movies": args.movies,
                "seed": args.seed,
                "check_equal": bool(args.check_equal),
            },
            stages=[
                {"name": report.stage_name, "wall_s": round(report.seconds, 6)}
                for report in pipeline.reports
            ],
            resources=profiling.rusage(),
            quality=[snapshot.to_dict()] if snapshot is not None else [],
            metrics=metrics,
        ),
    )
    if equal is False:
        return 1
    return 0


def _entity_rows(graph) -> set:
    """A graph's entities as ``(id, name, class, aliases)`` rows."""
    return {
        (entity.entity_id, entity.name, entity.entity_class, frozenset(entity.aliases))
        for entity in graph.entities()
    }


def cmd_stream(args: argparse.Namespace) -> int:
    """Continuous construction: drain fixture deltas, publish live, finalize."""
    import tempfile

    if args.batch_size < 1:
        print("--batch-size must be a positive integer", file=sys.stderr)
        return 2
    if args.cadence < 1:
        print("--cadence must be a positive integer", file=sys.stderr)
        return 2
    fixture_id = (args.fixture_id or "WORLD").upper()
    if fixture_id != "WORLD":
        print(
            f"unknown stream fixture {args.fixture_id!r}; streaming drains the "
            "WORLD fixture sources (size via --people/--movies/--seed)",
            file=sys.stderr,
        )
        return 2

    if args.wal_dir:
        return _stream(args, args.wal_dir)
    # Without --wal-dir the log is scratch: removed on exit, success or error.
    with tempfile.TemporaryDirectory(prefix="repro-stream-wal-") as wal_dir:
        return _stream(args, wal_dir)


def _stream(args: argparse.Namespace, wal_dir: str) -> int:
    """``cmd_stream``'s run over the WAL directory ``wal_dir``."""
    import time

    from repro.core.codec import TripleWAL
    from repro.core.partition import fixture_sources
    from repro.evalx.tables import render_table
    from repro.obs import enabled_scope, get_tracer, profiling, reset_all, runs
    from repro.obs.lineage import get_ledger
    from repro.serve.snapshot import SnapshotStore
    from repro.stream import (
        DeltaQueue,
        StreamIngestor,
        StreamPublisher,
        WALFollower,
        enqueue_all,
        micro_batches,
    )

    sources = fixture_sources(
        n_people=args.people, n_movies=args.movies, seed=args.seed
    )
    n_records = sum(len(source) for source in sources)

    server = None
    service = None
    if args.serve:
        from repro.serve.server import start_server
        from repro.serve.service import KGService

        service = KGService(n_shards=args.shards, name="stream")
        server, _thread = start_server(service, host=args.host, port=args.port)
        host, port = server.server_address[:2]
        print(f"serving the live stream on http://{host}:{port}")
    store = service.store if service is not None else SnapshotStore(
        n_shards=args.shards
    )

    reports = []
    reset_all()
    with enabled_scope():
        profiling.enable()
        wal = TripleWAL(wal_dir)
        ingestor = StreamIngestor(wal=wal)
        follower = WALFollower(wal_dir)
        publisher = StreamPublisher(store, follower, snapshot_path=args.out)
        queue = DeltaQueue()
        enqueue_all(queue, micro_batches(sources, args.batch_size, order_seed=args.order_seed))
        # Publish the (empty) WAL head immediately so every serving route
        # is live before the first delta lands.
        publisher.publish(queue_records=queue.pending_records())
        started = time.perf_counter()
        while True:
            delta = queue.get()
            if delta is None:
                break
            reports.append(ingestor.ingest(delta))
            if len(reports) % args.cadence == 0:
                publisher.publish(queue_records=queue.pending_records())
            if args.delta_interval:
                time.sleep(args.delta_interval)
        publisher.publish(queue_records=queue.pending_records())
        stream_wall_s = time.perf_counter() - started
        publish_split = " / ".join(
            f"{1e3 * sum(span_.wall_seconds for span_ in get_tracer().spans(name)):.1f}"
            for name in ("serve.snapshot.copy", "stream.publish.poll")
        )
        follower_mode = (
            "view of the ingestor's graph"
            if follower.is_view
            else f"replica ({follower.n_bootstraps} bootstraps)"
        )

    # Finalize under a fresh observability scope: the canonical exchange
    # over the drained union records the batch build's exact ledger.
    reset_all()
    with enabled_scope():
        profiling.enable()
        finalize_started = time.perf_counter()
        outcome = ingestor.finalize()
        ledger_state = get_ledger().export_state()
        # How far the drained live view is from the canonical build.
        live, final = ingestor.graph, outcome.graph
        triple_diff = len(set(live.query()) ^ set(final.query()))
        entity_diff = len(_entity_rows(live) ^ _entity_rows(final))
        stats = wal.checkpoint(outcome.graph)
        publisher.publish()  # the checkpoint ended the view: replica of the canonical base
        finalize_wall_s = time.perf_counter() - finalize_started

        freshness = publisher.freshness()
        n_rewritten = sum(report.n_rewritten for report in reports)
        rows = [
            ["records", n_records],
            ["deltas", len(reports)],
            ["relinks", ingestor.n_relinks],
            ["fused groups (total)", reports[-1].n_groups_total if reports else 0],
            ["triples rewritten", n_rewritten],
            ["publishes", publisher.n_publishes],
            ["staleness p50/p95 (s)",
             f"{freshness['staleness_p50_s']:.4f} / {freshness['staleness_p95_s']:.4f}"],
            ["catch-up p50/p95 (records)",
             f"{freshness['catchup_p50_records']:.0f} / {freshness['catchup_p95_records']:.0f}"],
            ["stream wall (s)", f"{stream_wall_s:.3f}"],
            ["publish copy / poll (ms)", publish_split],
            ["follower", follower_mode],
            ["finalize wall (s)", f"{finalize_wall_s:.3f}"],
            [
                "live vs final (triples / entities)",
                f"{triple_diff} / {entity_diff}",
            ],
        ]
        print(
            render_table(
                title=f"stream --batch-size {args.batch_size} --cadence {args.cadence}",
                columns=["metric", "value"],
                rows=rows,
                note=(
                    f"{n_records} records -> {stats['n_triples']} triples, "
                    f"{stats['n_entities']} entities; canonical base "
                    + (f"{stats['base_path']} " if args.wal_dir else "")
                    + f"({stats['base_bytes']} bytes)"
                ),
            )
        )
        if args.out:
            print(f"snapshot -> {args.out}")

        equal = None
        if args.check_equal:
            equal = _check_equal(
                args,
                outcome.graph,
                ledger_state,
                f"streamed build (batch-size {args.batch_size})",
                "the one-shot batch build",
            )

        metrics = {
            "wall_s": round(stream_wall_s, 6),
            "finalize_wall_s": round(finalize_wall_s, 6),
            "records_per_s": round(n_records / stream_wall_s, 3)
            if stream_wall_s
            else 0.0,
            "n_deltas": float(len(reports)),
            "n_relinks": float(ingestor.n_relinks),
            "n_rewritten": float(n_rewritten),
            "n_publishes": float(publisher.n_publishes),
            "live_final_triple_diff": float(triple_diff),
            "live_final_entity_diff": float(entity_diff),
        }
        for name, value in freshness.items():
            metrics[f"stream.{name}"] = round(value, 6)
        _append_run_record(
            args,
            runs.RunRecord(
                kind="stream",
                experiment_id=f"STREAM-B{args.batch_size}",
                config={
                    "batch_size": args.batch_size,
                    "cadence": args.cadence,
                    "order_seed": args.order_seed,
                    "people": args.people,
                    "movies": args.movies,
                    "seed": args.seed,
                    "serve": bool(args.serve),
                    "check_equal": bool(args.check_equal),
                },
                stages=[
                    {"name": "stream", "wall_s": round(stream_wall_s, 6)},
                    {"name": "finalize", "wall_s": round(finalize_wall_s, 6)},
                ],
                resources=profiling.rusage(),
                quality=[],
                metrics=metrics,
            ),
        )

        if server is not None:
            if args.linger:
                print(f"lingering for {args.linger:.0f}s (canonical snapshot live)...")
                try:
                    time.sleep(args.linger)
                except KeyboardInterrupt:
                    pass
            server.shutdown()
    if equal is False:
        return 1
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """Query the persistent run registry: list, show, diff, drift."""
    import json
    import time as time_module

    from repro.evalx.tables import render_table
    from repro.obs import runs

    directory = args.runs_dir or runs.default_runs_dir(
        os.path.join(_repo_root(), "results")
    )
    registry = runs.RunRegistry(directory)
    action = args.runs_command

    if action == "list":
        records = registry.load()
        if args.experiment:
            wanted = args.experiment.upper()
            records = [
                record for record in records if record.experiment_id.upper() == wanted
            ]
        note = f"{len(records)} run(s) in {registry.path}"
        if registry.skipped_lines:
            note += f"; {registry.skipped_lines} corrupt line(s) skipped"
        if not records:
            print(note)
            return 0
        print(
            render_table(
                title="run registry",
                columns=[
                    "run", "kind", "experiment", "git_sha", "created", "quality", "metrics",
                ],
                rows=[
                    [
                        record.run_id,
                        record.kind,
                        record.experiment_id,
                        record.git_sha[:12] or "-",
                        time_module.strftime(
                            "%Y-%m-%d %H:%M:%S",
                            time_module.localtime(record.created_unix),
                        ),
                        len(record.quality),
                        len(record.metrics),
                    ]
                    for record in records
                ],
                note=note,
            )
        )
        return 0

    if action == "show":
        record = registry.get(args.run_id)
        if record is None:
            print(
                f"run {args.run_id!r} not in registry {registry.path}", file=sys.stderr
            )
            return 2
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0

    if action == "diff":
        from repro.obs.quality import RegressionThresholds

        try:
            diffs = registry.diff(
                args.run_a,
                args.run_b,
                RegressionThresholds(relative_tolerance=args.relative_tolerance),
            )
        except KeyError as exc:
            print(exc.args[0] if exc.args else str(exc), file=sys.stderr)
            return 2
        if not diffs:
            print("no comparable quality snapshots between the two runs")
            return 0
        n_regressions = 0
        for diff in diffs:
            change_rows = diff.rows(only_changed=True)
            n_regressions += len(diff.regressions)
            print(
                render_table(
                    title=f"quality diff: {diff.snapshot_name} "
                    f"({args.run_a} -> {args.run_b})",
                    columns=["metric", "baseline", "current", "delta", "status"],
                    rows=change_rows
                    or [["(all metrics unchanged)", "-", "-", "-", "ok"]],
                    note=f"{len(diff.regressions)} regression(s)",
                )
            )
        return 1 if n_regressions else 0

    # drift
    alerts = registry.drift(
        experiment_id=args.experiment, window=args.window, threshold=args.threshold
    )
    if not alerts:
        where = f" for {args.experiment.upper()}" if args.experiment else ""
        print(f"no drift beyond |z| > {args.threshold:g}{where} in {registry.path}")
        return 0
    drops = [alert for alert in alerts if alert.direction == "drop"]
    rises = [alert for alert in alerts if alert.direction == "rise"]
    if drops:
        print(f"{len(drops)} metric(s) drifted DOWN off the trajectory:", file=sys.stderr)
        for alert in drops:
            print(f"  {alert.describe()}", file=sys.stderr)
    if rises:
        print(f"{len(rises)} metric(s) drifted up (informational):")
        for alert in rises:
            print(f"  {alert.describe()}")
    return 1 if drops else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Publish a fixture snapshot and serve the JSON API over HTTP."""
    import time

    from repro.core.codec import CodecError
    from repro.obs import profiling
    from repro.serve.context import AccessLog
    from repro.serve.server import start_server
    from repro.serve.service import (
        KGService,
        SERVE_FIXTURES,
        build_fixture_service,
    )

    follow_publisher = None
    if args.follow_wal is not None:
        if args.fixture_id is not None:
            print(
                "pass a fixture id or --follow-wal, not both "
                "(the WAL directory already holds its graph)",
                file=sys.stderr,
            )
            return 2
        from repro.stream import StreamPublisher, WALFollower

        # Enable observability before the boot publish so the follower's
        # staleness/catch-up metrics land on /metrics from version 1.
        if not args.no_obs:
            profiling.enable()
        service = KGService(n_shards=args.shards, name="serve.follow")
        if args.snapshot is not None:
            # Boot instantly from the snapshot; the follower's first
            # publish below replaces it with the WAL head.
            print(f"loading snapshot {args.snapshot}...")
            try:
                service.publish_from_file(args.snapshot)
            except CodecError as exc:
                print(str(exc), file=sys.stderr)
                return 2
        print(f"following WAL {args.follow_wal}...")
        follower = WALFollower(args.follow_wal)
        follow_publisher = StreamPublisher(service.store, follower)
        follow_publisher.publish()
        fixture_id = f"wal:{args.follow_wal}"
    elif args.snapshot is not None:
        if args.fixture_id is not None:
            print(
                "pass a fixture id or --snapshot, not both "
                "(a snapshot file already holds its graph)",
                file=sys.stderr,
            )
            return 2
        service = KGService(n_shards=args.shards, name="serve.snapshot")
        print(f"loading snapshot {args.snapshot}...")
        try:
            service.publish_from_file(args.snapshot)
        except CodecError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        fixture_id = f"snapshot:{args.snapshot}"
    elif args.fixture_id is None:
        print(
            "serve needs a fixture id (WORLD, FIG4A) or --snapshot PATH",
            file=sys.stderr,
        )
        return 2
    else:
        fixture_id = args.fixture_id.upper()
        if fixture_id not in SERVE_FIXTURES:
            print(
                f"unknown serve fixture {args.fixture_id!r}; "
                f"available: {', '.join(sorted(SERVE_FIXTURES))}",
                file=sys.stderr,
            )
            return 2
        scale = "quick" if args.quick else "full"
        print(f"building fixture {fixture_id} ({scale}, {args.shards} shard(s))...")
        service = build_fixture_service(
            fixture_id, n_shards=args.shards, scale=scale, with_lm=not args.no_lm
        )
    # A server someone deliberately started should be observable out of
    # the box: /metrics and /statusz are live surfaces, and head sampling
    # keeps the per-request cost inside the <5% budget.
    if not args.no_obs:
        profiling.enable()
    if args.trace_sample is not None:
        service.trace_sample = args.trace_sample
    if args.access_log:
        service.access_log = AccessLog(args.access_log, sample=args.access_log_sample)
    server, _thread = start_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    snapshot = service.store.current()
    assert snapshot is not None
    print(
        f"serving {fixture_id} snapshot v{snapshot.version} "
        f"({len(snapshot.graph)} triples, {args.shards} shard(s)) "
        f"on http://{host}:{port}"
    )
    if args.access_log:
        print(f"access log -> {args.access_log}")
    print(
        "routes: /lookup /paths /query /ask /stats /statusz /buildz /metrics "
        "/healthz  (Ctrl-C to stop)"
    )
    stop_republish = None
    if follow_publisher is not None:
        import threading

        stop_republish = threading.Event()

        def _republish_loop() -> None:
            while not stop_republish.wait(args.publish_cadence):
                try:
                    follow_publisher.publish_if_changed()
                except Exception as exc:  # keep serving on a torn poll
                    print(f"wal republish error: {exc}", file=sys.stderr)

        threading.Thread(
            target=_republish_loop, name="wal-republish", daemon=True
        ).start()
        print(
            f"republishing from WAL every {args.publish_cadence:g}s "
            "(on change)"
        )
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        if stop_republish is not None:
            stop_republish.set()
        server.shutdown()
        if service.access_log is not None:
            service.access_log.close()
    return 0


def cmd_save(args: argparse.Namespace) -> int:
    """Build a serve fixture's graph and persist it as a binary snapshot."""
    import time

    from repro.core import codec
    from repro.serve.service import SERVE_FIXTURES

    fixture_id = args.fixture_id.upper()
    builder = SERVE_FIXTURES.get(fixture_id)
    if builder is None:
        print(
            f"unknown serve fixture {args.fixture_id!r}; "
            f"available: {', '.join(sorted(SERVE_FIXTURES))}",
            file=sys.stderr,
        )
        return 2
    scale = "quick" if args.quick else "full"
    print(f"building fixture {fixture_id} ({scale})...")
    started = time.perf_counter()
    graph, _model = builder(scale)
    build_s = time.perf_counter() - started
    started = time.perf_counter()
    n_bytes = codec.save_graph(graph, args.output)
    save_s = time.perf_counter() - started
    stats = graph.stats()
    print(
        f"saved {stats['n_triples']} triples / {stats['n_entities']} entities "
        f"({stats['n_id_terms']} id terms) -> {args.output} "
        f"({n_bytes} bytes; build {build_s:.2f}s, save {save_s:.3f}s)"
    )
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    """Load a binary snapshot and print its stats (restore validation)."""
    import time

    from repro.core import codec

    started = time.perf_counter()
    try:
        graph = codec.load_graph(args.path)
    except codec.CodecError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    load_s = time.perf_counter() - started
    stats = graph.stats()
    print(
        f"loaded {args.path} in {load_s:.3f}s: "
        f"{stats['n_triples']} triples, {stats['n_entities']} entities, "
        f"{stats['n_id_terms']} id terms, {stats['n_classes']} classes"
    )
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Fold a WAL directory's segments into its base snapshot."""
    from repro.core import codec

    wal = codec.TripleWAL(args.wal_dir)
    before = wal.stats()
    try:
        _graph, stats = wal.compact(allow_partial=args.allow_partial)
    except codec.CodecError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        wal.close()
    print(
        f"compacted {stats['n_segments_folded']} segment(s) "
        f"({before['wal_bytes']} WAL bytes) -> {stats['base_path']} "
        f"({stats['base_bytes']} bytes, {stats['n_triples']} triples, "
        f"{stats['n_entities']} entities)"
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive traffic at a server (URL) or fixture (id); exit 1 on any 5xx."""
    from repro.evalx import loadgen
    from repro.evalx.tables import render_table
    from repro.serve.server import HTTPClient, InProcessClient

    target = args.target
    if target.startswith("http://") or target.startswith("https://"):
        if args.obs_compare:
            print(
                "--obs-compare needs an in-process fixture target (it must "
                "flip observability on the service it is measuring)",
                file=sys.stderr,
            )
            return 2
        client = HTTPClient(target)
        where = target
    else:
        from repro.serve.service import SERVE_FIXTURES, build_fixture_service

        fixture_id = target.upper()
        if fixture_id not in SERVE_FIXTURES:
            print(
                f"loadgen target must be a URL or a fixture id "
                f"({', '.join(sorted(SERVE_FIXTURES))}); got {target!r}",
                file=sys.stderr,
            )
            return 2
        scale = "quick" if args.quick else "full"
        if args.obs_compare:
            return _loadgen_obs_compare(args, fixture_id, scale)
        print(f"building fixture {fixture_id} ({scale}, {args.shards} shard(s))...")
        service = build_fixture_service(fixture_id, n_shards=args.shards, scale=scale)
        client = InProcessClient(service)
        where = f"in-process {fixture_id}"

    try:
        report = loadgen.run_loadgen(
            client,
            duration_s=args.duration,
            mode=args.mode,
            rps=args.rps,
            concurrency=args.concurrency,
            seed=args.seed,
        )
    except loadgen.TargetUnavailable as exc:
        print(f"loadgen {target}: {exc}", file=sys.stderr)
        return 2

    rows = []
    for route in sorted({outcome.route for outcome in report.outcomes}):
        summary = report.latency_summary(route)
        rows.append(
            [
                route,
                summary["n"],
                f"{summary['n'] / report.duration_s:.1f}",
                f"{summary['p50_ms']:.2f}",
                f"{summary['p95_ms']:.2f}",
                f"{summary['p99_ms']:.2f}",
            ]
        )
    overall = report.latency_summary()
    rows.append(
        [
            "overall",
            report.n_requests,
            f"{report.throughput_rps:.1f}",
            f"{overall['p50_ms']:.2f}",
            f"{overall['p95_ms']:.2f}",
            f"{overall['p99_ms']:.2f}",
        ]
    )
    print(
        render_table(
            title=f"loadgen {args.mode} loop vs {where} ({report.duration_s:.1f}s)",
            columns=["route", "n", "rps", "p50_ms", "p95_ms", "p99_ms"],
            rows=rows,
            note=(
                f"statuses {report.status_counts()} "
                f"degraded {report.degraded_counts() or '{}'} "
                f"5xx {report.n_server_errors}"
            ),
        )
    )

    if report.n_server_errors:
        print(f"{report.n_server_errors} server error(s) (5xx)", file=sys.stderr)
        return 1
    return 0


def _loadgen_obs_compare(args: argparse.Namespace, fixture_id: str, scale: str) -> int:
    """Back-to-back obs-off/obs-on closed loops; gate the p95 overhead."""
    from repro.evalx import loadgen
    from repro.evalx.tables import render_table
    from repro.serve.admission import AdmissionController
    from repro.serve.service import build_fixture_service

    # Wide-open admission: a closed loop saturates the default ladder into
    # ~100% sheds, and sheds are force-sampled by design — that measures
    # the always-on shed-trace path, not the serving overhead the gate is
    # about.
    def build():
        return build_fixture_service(
            fixture_id,
            n_shards=args.shards,
            scale=scale,
            admission=AdmissionController(rate=1_000_000.0, max_concurrent=64),
        )

    # Many short interleaved rounds beat few long ones: single-core VMs
    # jitter in scheduler epochs that span seconds, and fine interleaving
    # spreads each epoch across both labels before pooling.
    rounds = 9
    round_duration = max(0.5, args.duration / 3.0)
    print(
        f"obs-compare: {rounds} interleaved off/on {round_duration:.1f}s "
        f"single-worker closed-loop rounds over HTTP vs fresh {fixture_id} "
        f"({scale}, {args.shards} shard(s))..."
    )
    comparison = loadgen.measure_obs_overhead(
        build,
        duration_s=round_duration,
        seed=args.seed,
        max_p95_overhead=args.max_obs_overhead,
        rounds=rounds,
    )
    rows = []
    for label in ("off", "on"):
        report = comparison[label]
        overall = report.latency_summary()
        rows.append(
            [
                f"obs {label}",
                report.n_requests,
                f"{report.throughput_rps:.1f}",
                f"{overall['p50_ms']:.2f}",
                f"{overall['p95_ms']:.2f}",
                f"{overall['p99_ms']:.2f}",
            ]
        )
    print(
        render_table(
            title=f"loadgen obs-compare vs in-process {fixture_id}",
            columns=["run", "n", "rps", "p50_ms", "p95_ms", "p99_ms"],
            rows=rows,
            note=(
                f"pooled p95 overhead {comparison['p95_overhead']:+.1%} "
                f"(gate {comparison['max_p95_overhead']:.0%}; rounds "
                + ", ".join(f"{o:+.1%}" for o in comparison["round_overheads"])
                + ")"
            ),
        )
    )
    if comparison["passed"]:
        print(
            f"observability overhead within budget: "
            f"{comparison['p95_overhead']:+.1%} p95"
        )
        return 0
    print(
        f"observability overhead {comparison['p95_overhead']:+.1%} p95 exceeds "
        f"the {comparison['max_p95_overhead']:.0%} gate",
        file=sys.stderr,
    )
    return 1


def cmd_slo(args: argparse.Namespace) -> int:
    """Print a serving endpoint's SLO summary; optionally gate on burn."""
    from repro.evalx.tables import render_table

    target = args.target
    if target.startswith("http://") or target.startswith("https://"):
        from repro.serve.server import HTTPClient

        status_code, payload = HTTPClient(target).statusz()
        if status_code != 200:
            print(f"/statusz returned {status_code}: {payload}", file=sys.stderr)
            return 2
        where = target
    else:
        from repro.evalx import loadgen
        from repro.obs import profiling
        from repro.serve.server import InProcessClient
        from repro.serve.service import SERVE_FIXTURES, build_fixture_service

        fixture_id = target.upper()
        if fixture_id not in SERVE_FIXTURES:
            print(
                f"slo target must be a URL or a fixture id "
                f"({', '.join(sorted(SERVE_FIXTURES))}); got {target!r}",
                file=sys.stderr,
            )
            return 2
        scale = "quick" if args.quick else "full"
        print(f"building fixture {fixture_id} ({scale}, {args.shards} shard(s))...")
        service = build_fixture_service(fixture_id, n_shards=args.shards, scale=scale)
        previous_enabled = profiling.enabled()
        profiling.reset_all()
        profiling.enable()
        try:
            print(f"driving {args.duration:.0f}s of traffic to fill the SLO window...")
            loadgen.run_loadgen(
                InProcessClient(service),
                duration_s=args.duration,
                mode="closed",
                concurrency=args.concurrency,
                seed=args.seed,
            )
            payload = service.statusz()
        except loadgen.TargetUnavailable as exc:
            print(f"slo {target}: {exc}", file=sys.stderr)
            return 2
        finally:
            if not previous_enabled:
                profiling.disable()
        where = f"in-process {fixture_id}"

    slo = payload.get("slo", {}) if isinstance(payload, dict) else {}
    routes = slo.get("routes", {}) if isinstance(slo, dict) else {}
    rows = [
        [
            route,
            block.get("requests", 0),
            block.get("rate_rps", 0.0),
            block.get("errors", 0),
            block.get("shed", 0),
            block.get("degraded", 0),
            f"{block.get('p95_ms', 0.0):.2f}",
            f"{block.get('budget_burn_rate', 0.0):.2f}",
            "yes" if block.get("burning") else "no",
        ]
        for route, block in sorted(routes.items())
    ]
    print(
        render_table(
            title=f"slo {where} (window {slo.get('window_s', '?')}s)",
            columns=[
                "route", "req", "rps", "err", "shed", "degr", "p95_ms", "burn", "burning",
            ],
            rows=rows or [["(no routes)", 0, 0, 0, 0, 0, "-", "-", "-"]],
            note=(
                f"degradation level {payload.get('degradation_level', '?')}; "
                f"snapshot v{payload.get('snapshot_version', '?')}; "
                f"worst burn {slo.get('worst_burn_rate', 0.0)}"
            ),
        )
    )
    worst_burn = float(slo.get("worst_burn_rate", 0.0) or 0.0)
    if args.fail_on_burn and worst_burn > args.burn_threshold:
        print(
            f"error budget burning: worst burn rate {worst_burn} exceeds "
            f"threshold {args.burn_threshold}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Generations of Knowledge Graphs' (VLDB 2023)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Options shared by several subcommands are declared once, here, and
    # handed out through argparse's ``parents=``.  A parent's Action object
    # is shared by every parser that takes it, so an option whose default
    # differs per command (--port, --duration) stays with its command.
    runs_dir = argparse.ArgumentParser(add_help=False)
    runs_dir.add_argument(
        "--runs-dir",
        default=None,
        help="run-registry directory (default: results/runs/; for `report`, "
        "runs/ under its output directory)",
    )
    run_registry = argparse.ArgumentParser(add_help=False, parents=[runs_dir])
    run_registry.add_argument(
        "--no-runs",
        action="store_true",
        help="do not record this run in the persistent run registry "
        "(`report` then also skips its trajectory drift gate)",
    )
    progress = argparse.ArgumentParser(add_help=False)
    progress.add_argument(
        "--progress",
        action="store_true",
        help="show a live build-progress line on stderr while running",
    )
    progress.add_argument(
        "--progress-log",
        default=None,
        help="append build-progress heartbeats (JSONL) to this path",
    )
    fixture_world = argparse.ArgumentParser(add_help=False)
    fixture_world.add_argument(
        "--people",
        type=int,
        default=120,
        help="ground-truth people in the fixture world (default: 120)",
    )
    fixture_world.add_argument(
        "--movies",
        type=int,
        default=80,
        help="ground-truth movies in the fixture world (default: 80)",
    )
    fixture_world.add_argument(
        "--seed", type=int, default=11, help="fixture world seed (default: 11)"
    )
    quick = argparse.ArgumentParser(add_help=False)
    quick.add_argument(
        "--quick", action="store_true", help="small fixture scale (CI smoke)"
    )
    shards = argparse.ArgumentParser(add_help=False)
    shards.add_argument(
        "--shards", type=int, default=1, help="subject-hash partitions /stats reports (default: 1)"
    )
    traffic = argparse.ArgumentParser(add_help=False)
    traffic.add_argument(
        "--concurrency", type=int, default=8, help="worker threads (default: 8)"
    )
    traffic.add_argument(
        "--seed", type=int, default=31, help="request-plan seed (default: 31)"
    )

    list_parser = subparsers.add_parser("list", help="list registered experiments")
    list_parser.set_defaults(func=cmd_list)

    info_parser = subparsers.add_parser("info", help="describe one experiment")
    info_parser.add_argument("experiment_id")
    info_parser.set_defaults(func=cmd_info)

    run_parser = subparsers.add_parser("run", help="run an experiment's benchmark")
    run_parser.add_argument("experiment_id", help="an experiment id, or 'all'")
    run_parser.set_defaults(func=cmd_run)

    trace_parser = subparsers.add_parser(
        "trace",
        parents=[progress, run_registry],
        help="run an experiment in-process and write a JSONL trace",
    )
    trace_parser.add_argument("experiment_id", help="a traceable experiment id")
    trace_parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="trace file path (default: results/trace_<id>.jsonl)",
    )
    trace_parser.add_argument(
        "--from-file",
        default=None,
        help="summarize an existing trace JSONL file instead of running",
    )
    trace_parser.set_defaults(func=cmd_trace)

    report_parser = subparsers.add_parser(
        "report",
        parents=[progress, run_registry],
        help="run an experiment and write md/json/prom run reports",
    )
    report_parser.add_argument("experiment_id", help="a traceable experiment id")
    report_parser.add_argument(
        "-o",
        "--output-dir",
        default=None,
        help="directory for report artifacts (default: results/)",
    )
    report_parser.add_argument(
        "--baseline",
        default=None,
        help="baseline report JSON to diff against "
        "(default: the existing report_<id>.json in the output directory)",
    )
    report_parser.add_argument(
        "--relative-tolerance",
        type=float,
        default=0.02,
        help="allowed relative drop in count-like quality metrics (default: 0.02)",
    )
    report_parser.add_argument(
        "--drift-window",
        type=int,
        default=10,
        help="prior runs in the rolling drift window (default: 10)",
    )
    report_parser.add_argument(
        "--drift-threshold",
        type=float,
        default=3.0,
        help="modified z-score that flags trajectory drift (default: 3.0)",
    )
    report_parser.set_defaults(func=cmd_report)

    build_parser = subparsers.add_parser(
        "build",
        parents=[fixture_world, run_registry],
        help="partition-parallel fixture build (shard, link, fuse, stitch)",
    )
    build_parser.add_argument(
        "-p",
        "--partitions",
        type=int,
        default=1,
        help="shard count for the partitioned build (default: 1)",
    )
    build_parser.add_argument(
        "--check-equal",
        action="store_true",
        help="also run single-shard and verify state/lineage/bytes equality",
    )
    build_parser.add_argument(
        "-o",
        "--out",
        default=None,
        help="write the built graph to this .rkgs snapshot path",
    )
    build_parser.set_defaults(func=cmd_build)

    stream_parser = subparsers.add_parser(
        "stream",
        parents=[fixture_world, shards, run_registry],
        help="continuous construction: drain deltas, publish live snapshots",
    )
    stream_parser.add_argument(
        "fixture_id",
        nargs="?",
        default=None,
        help="stream fixture id (WORLD; sized via --people/--movies/--seed)",
    )
    stream_parser.add_argument(
        "--batch-size",
        type=int,
        default=25,
        help="records per delta micro-batch (default: 25)",
    )
    stream_parser.add_argument(
        "--cadence",
        type=int,
        default=2,
        help="publish a fresh serving snapshot every N deltas (default: 2)",
    )
    stream_parser.add_argument(
        "--order-seed",
        type=int,
        default=None,
        help="shuffle delta record order with this seed (default: source order)",
    )
    stream_parser.add_argument(
        "--delta-interval",
        type=float,
        default=0.0,
        help="sleep this many seconds between deltas (pacing for live demos/CI)",
    )
    stream_parser.add_argument(
        "--serve",
        action="store_true",
        help="serve the live snapshots over HTTP while streaming",
    )
    stream_parser.add_argument(
        "--linger",
        type=float,
        default=0.0,
        help="with --serve: keep serving this many seconds after the drain",
    )
    stream_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    stream_parser.add_argument(
        "-p",
        "--port",
        type=int,
        default=8902,
        help="port for --serve (0 = OS-assigned; default: 8902)",
    )
    stream_parser.add_argument(
        "--wal-dir",
        default=None,
        help="WAL directory (default: a fresh temp dir); followable by "
        "`repro serve --follow-wal`",
    )
    stream_parser.add_argument(
        "--check-equal",
        action="store_true",
        help="also run the one-shot batch build and verify "
        "state/lineage/bytes equality",
    )
    stream_parser.add_argument(
        "-o",
        "--out",
        default=None,
        help="write each published snapshot (and the canonical final one) "
        "to this .rkgs path",
    )
    stream_parser.set_defaults(func=cmd_stream)

    runs_parser = subparsers.add_parser(
        "runs", help="query the persistent run registry (results/runs/)"
    )
    runs_subparsers = runs_parser.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_subparsers.add_parser(
        "list", parents=[runs_dir], help="list recorded runs"
    )
    runs_list.add_argument(
        "--experiment", default=None, help="only runs of this experiment id"
    )
    runs_list.set_defaults(func=cmd_runs)

    runs_show = runs_subparsers.add_parser(
        "show", parents=[runs_dir], help="print one run's full record"
    )
    runs_show.add_argument("run_id", help="a run id from `runs list` (e.g. r0004)")
    runs_show.set_defaults(func=cmd_runs)

    runs_diff = runs_subparsers.add_parser(
        "diff",
        parents=[runs_dir],
        help="diff two runs' quality snapshots (exit 1 on regressions)",
    )
    runs_diff.add_argument("run_a", help="baseline run id")
    runs_diff.add_argument("run_b", help="current run id")
    runs_diff.add_argument(
        "--relative-tolerance",
        type=float,
        default=0.02,
        help="allowed relative drop in count-like quality metrics (default: 0.02)",
    )
    runs_diff.set_defaults(func=cmd_runs)

    runs_drift = runs_subparsers.add_parser(
        "drift",
        parents=[runs_dir],
        help="score the latest run(s) vs the rolling trajectory "
        "(exit 1 on drop-direction drift)",
    )
    runs_drift.add_argument(
        "--experiment", default=None, help="only this experiment id (default: all)"
    )
    runs_drift.add_argument(
        "--window",
        type=int,
        default=10,
        help="prior runs in the rolling window (default: 10)",
    )
    runs_drift.add_argument(
        "--threshold",
        type=float,
        default=3.0,
        help="modified z-score that flags drift (default: 3.0)",
    )
    runs_drift.set_defaults(func=cmd_runs)

    serve_parser = subparsers.add_parser(
        "serve",
        parents=[quick, shards],
        help="publish a fixture KG snapshot and serve the JSON API",
    )
    serve_parser.add_argument(
        "fixture_id",
        nargs="?",
        default=None,
        help="a serve fixture id (WORLD, FIG4A); omit with --snapshot",
    )
    serve_parser.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="boot from a `repro save` binary snapshot instead of building a fixture",
    )
    serve_parser.add_argument(
        "--follow-wal",
        default=None,
        metavar="DIR",
        help="tail this WAL directory and republish on change "
        "(combines with --snapshot for an instant boot view)",
    )
    serve_parser.add_argument(
        "--publish-cadence",
        type=float,
        default=1.0,
        help="with --follow-wal: poll/republish interval in seconds (default: 1.0)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "-p", "--port", type=int, default=8901, help="port (0 = OS-assigned; default: 8901)"
    )
    serve_parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds then exit (default: until Ctrl-C)",
    )
    serve_parser.add_argument(
        "--no-lm", action="store_true", help="skip the LM; `ask` answers KG-only"
    )
    serve_parser.add_argument(
        "--no-obs",
        action="store_true",
        help="do not enable observability (spans, SLO windows, /metrics stay empty)",
    )
    serve_parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        help="head-sampling rate for request traces "
        "(default: REPRO_TRACE_SAMPLE env or 0.01)",
    )
    serve_parser.add_argument(
        "--access-log",
        default=None,
        help="write a structured JSONL access log to this path (default: off)",
    )
    serve_parser.add_argument(
        "--access-log-sample",
        type=float,
        default=1.0,
        help="fraction of OK requests logged; shed/error always logged (default: 1.0)",
    )
    serve_parser.set_defaults(func=cmd_serve)

    save_parser = subparsers.add_parser(
        "save",
        parents=[quick],
        help="build a serve fixture and write a binary graph snapshot",
    )
    save_parser.add_argument("fixture_id", help="a serve fixture id (WORLD, FIG4A)")
    save_parser.add_argument(
        "-o",
        "--output",
        required=True,
        help="snapshot file to write (e.g. results/world.rkgs)",
    )
    save_parser.set_defaults(func=cmd_save)

    load_parser = subparsers.add_parser(
        "load", help="load a binary graph snapshot and print its stats"
    )
    load_parser.add_argument("path", help="snapshot file written by `repro save`")
    load_parser.set_defaults(func=cmd_load)

    compact_parser = subparsers.add_parser(
        "compact", help="fold a WAL directory's segments into its base snapshot"
    )
    compact_parser.add_argument("wal_dir", help="WAL directory (base.rkgs + wal-*.log)")
    compact_parser.add_argument(
        "--allow-partial",
        action="store_true",
        help="tolerate corrupt/truncated records (keeps the valid prefix)",
    )
    compact_parser.set_defaults(func=cmd_compact)

    loadgen_parser = subparsers.add_parser(
        "loadgen",
        parents=[quick, shards, traffic],
        help="drive traffic at a serving endpoint; exit 1 on any 5xx",
    )
    loadgen_parser.add_argument(
        "target", help="a server URL (http://...) or a fixture id for in-process"
    )
    loadgen_parser.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed loop (back-to-back workers) or open loop (scheduled arrivals)",
    )
    loadgen_parser.add_argument(
        "--rps", type=float, default=100.0, help="open-loop arrival rate (default: 100)"
    )
    loadgen_parser.add_argument(
        "--duration", type=float, default=10.0, help="seconds to run (default: 10)"
    )
    loadgen_parser.add_argument(
        "--obs-compare",
        action="store_true",
        help="run paired obs-off/obs-on closed loops against fresh fixtures and "
        "gate the p95 latency overhead (in-process targets only)",
    )
    loadgen_parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=0.05,
        help="allowed relative p95 overhead for --obs-compare (default: 0.05)",
    )
    loadgen_parser.set_defaults(func=cmd_loadgen)

    slo_parser = subparsers.add_parser(
        "slo",
        parents=[quick, shards, traffic],
        help="print a serving endpoint's rolling SLO summary",
    )
    slo_parser.add_argument(
        "target", help="a server URL (scrapes /statusz) or a fixture id "
        "(drives in-process traffic first)"
    )
    slo_parser.add_argument(
        "--duration",
        type=float,
        default=5.0,
        help="seconds of traffic to drive for fixture targets (default: 5)",
    )
    slo_parser.add_argument(
        "--fail-on-burn",
        action="store_true",
        help="exit non-zero when the worst burn rate exceeds --burn-threshold",
    )
    slo_parser.add_argument(
        "--burn-threshold",
        type=float,
        default=1.0,
        help="burn-rate threshold for --fail-on-burn (default: 1.0)",
    )
    slo_parser.set_defaults(func=cmd_slo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Configuration errors (bad env vars, unknown workloads, invalid
        # flag combinations) exit with the one-line actionable message
        # they carry — never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `repro runs show ... | head` closing the pipe early is not an
        # error; detach stdout so the interpreter's flush-at-exit stays
        # quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
