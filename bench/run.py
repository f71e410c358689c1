"""The one command: ``python -m bench.run [--workload NAME] [--seed N]
[--seconds S] [--trace [0|1]] [--repeats K] [--smoke] [--aa] [--seeds N]``.

Every ``(workload, repeat)`` runs in a fresh child process of this same
module (``--child``), so peak RSS is that workload's own and no run
inherits another's heap or caches.  The parent prints every metric by name
with its unit, writes one result file per invocation under ``bench/out/``,
prints the driver's one-line JSON result last, and exits non-zero on any
correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from bench import metrics, paths, stats
from bench.calib import Meter
from bench.trace import Tracer

#: Set-up runs this many times per (untraced) run; ``setup_s`` is the median.
SETUP_REPEATS = 3
SMOKE_FACTOR = 1 / 20
#: A run whose load generator was not valid is rerun at most this often.
MAX_INVALID_RERUNS = 2
CHILD_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# the child: one workload, one run, in this process


def run_in_process(name: str, seed: int, factor: float, trace: bool) -> dict:
    from bench.workloads import registry

    os.makedirs(paths.TMP_DIR, exist_ok=True)
    tracer = Tracer(enabled=trace, run_id=f"{name}-seed{seed}")
    with tempfile.TemporaryDirectory(dir=paths.TMP_DIR) as workdir:
        workload = registry()[name](seed, factor, tracer, workdir)
        setup_runs: List[float] = []
        setup_meter = Meter(workload.memory_weight)
        try:
            # The traced run reports no set-up time, so it sets up once.
            for repeat in range(1 if trace else SETUP_REPEATS):
                if repeat:
                    workload.close()
                    setup_meter.refresh()
                with setup_meter, tracer.span("bench.setup"):
                    workload.setup()
                setup_runs.append(setup_meter.last_s)
            with tracer.span("bench.measured"):
                measured = workload.run()
            failures = workload.check(measured)
            layers = workload.layer_metrics(measured) if trace else {}
        finally:
            workload.close()
        peak_rss_kb = workload.peak_rss_kb()
    if failures:
        # A failed end-state check fails every operation of the run.
        measured.failed = measured.attempted
    if measured.latencies_ms is None:
        # A bulk job is its own single operation: its latency is its wall.
        n_samples, p50, p95 = 1, measured.wall_s * 1000.0, measured.wall_s * 1000.0
    else:
        n_samples = len(measured.latencies_ms)
        p50, p95 = latency_percentiles(measured.latencies_ms, measured.latency_slices)
    if trace:
        layers["trace.unexplained_share"] = unexplained_share(
            tracer, tracer.first("bench.measured")
        )
        tracer.write(os.path.join(paths.OUT_DIR, f"trace_{name}.jsonl"))
    return {
        "workload": name,
        "seed": seed,
        "factor": factor,
        "trace": int(trace),
        "setup_runs_s": setup_runs,
        "setup_raw_s": setup_meter.raw_s / len(setup_runs),
        "wall_s": measured.wall_s,
        "raw_wall_s": measured.raw_wall_s,
        "slices": measured.slices,
        "ops": measured.ops,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "failures": failures,
        "invalid": measured.invalid,
        "n_latency_samples": n_samples,
        "p50_ms": p50,
        "p95_ms": p95,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "counts": measured.counts,
        "digest": measured.digest,
        "layers": layers,
    }


def latency_percentiles(latencies: List[float], n_slices: int):
    """(p50, p95): pooled, or — for a phase run as ``n_slices`` slices — the
    median of the per-slice percentiles, which a burst that hits one slice
    cannot move.  Falls back to pooled when a slice is too small for a p95."""
    size = len(latencies) // n_slices
    if n_slices == 1 or size * 5 < 100 * stats.MIN_SAMPLES_BEYOND:
        return stats.median(latencies), stats.percentile(latencies, 95)
    slices = [latencies[first : first + size] for first in range(0, size * n_slices, size)]
    return (
        stats.median([stats.median(values) for values in slices]),
        stats.median([stats.percentile(values, 95) for values in slices]),
    )


def unexplained_share(tracer: Tracer, root: int) -> float:
    """Share of the timed phases spent in no layer's span.

    ``root`` wraps ``Workload.run``; its own self time is untimed
    book-keeping between and after the phases, so it is left out.  What
    remains is layer spans plus the bench's own ``bench.*`` phase spans,
    whose self time (loop overhead between calls) is the unexplained part.
    """
    selves = tracer.self_times()
    _, start, end, _ = tracer.spans[root]
    inside = {root}
    own = 0.0
    for index, (name, _, _, parent) in enumerate(tracer.spans):
        if parent in inside:
            inside.add(index)
            if name.startswith("bench."):
                own += selves[index]
    return own / ((end - start) - selves[root])


# ---------------------------------------------------------------------------
# the parent: spawn children, fold their results


def spawn(name: str, seed: int, factor: float, trace: bool) -> dict:
    """One fresh child process; reruns a run whose load generator was invalid."""
    command = [
        sys.executable, "-m", "bench.run", "--child",
        "--workload", name, "--seed", str(seed),
        "--factor", repr(factor), "--trace", str(int(trace)),
    ]
    for _ in range(1 + MAX_INVALID_RERUNS):
        done = subprocess.run(
            command, cwd=paths.ROOT, env=paths.child_env(), stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
        lines = done.stdout.decode("utf-8").strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{name}: child exited {done.returncode} without a result")
        result = json.loads(lines[-1])
        if not result["invalid"]:
            break
        print(f"  {name}: invalid run ({result['invalid']}); rerunning", file=sys.stderr)
    return result


def run_workload(name: str, seed: int, factor: float, trace: bool, repeats: int) -> dict:
    """A workload's untraced repeats (+ one traced run) folded into metrics."""
    runs = [spawn(name, seed, factor, trace=False) for _ in range(repeats)]
    entry = {"workload": name, "runs": runs, "end_to_end": metrics.median_end_to_end(runs)}
    if trace:
        traced = spawn(name, seed, factor, trace=True)
        untraced_wall = stats.median([run["wall_s"] for run in runs])
        overhead = (traced["wall_s"] - untraced_wall) / untraced_wall
        traced["layers"]["trace.overhead_share"] = overhead
        entry["traced"] = traced
        entry["per_layer"] = traced["layers"]
    return entry


def run_failed(run: dict) -> bool:
    return bool(run["failed"] or run["failures"])


def failed_runs(entry: dict) -> List[dict]:
    runs = entry["runs"] + ([entry["traced"]] if "traced" in entry else [])
    return [run for run in runs if run_failed(run)]


def print_entry(entry: dict, spec: dict) -> None:
    first = entry["runs"][0]
    print(f"\n== {entry['workload']}  seed={first['seed']} factor={first['factor']:g} "
          f"repeats={len(entry['runs'])}  ops={first['ops']}  digest={first['digest']}")
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    units["failed_share"] = "ratio"
    for name, value in entry["end_to_end"].items():
        note = f"  (n={first['n_latency_samples']})" if name in ("p50_ms", "p95_ms") else ""
        print(f"  {name:44s} {value:14.4f} {units[name]}{note}")
    for name, value in sorted(entry.get("per_layer", {}).items()):
        print(f"  {name:44s} {value:14.4f} {units.get(name, '?')}")
    for run in failed_runs(entry):
        for failure in run["failures"] or [f"{run['failed']} operations failed"]:
            print(f"  FAILED: {failure}")


def result_line(entries: List[dict], spec: dict, trace: bool) -> dict:
    """The driver's result object: exactly ``correct, attempted, failed, metrics``.

    With one workload the metric names are bare; a multi-workload
    invocation prefixes them with ``<workload>.`` so nothing collides.
    """
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values: Dict[str, dict] = {}
    for entry in entries:
        prefix = f"{entry['workload']}." if len(entries) > 1 else ""
        source = entry["per_layer"] if trace else entry["end_to_end"]
        for metric in declared:
            # A layer this workload never enters did no work: 0.
            value = float(source.get(metric["name"], 0.0))
            values[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    runs = [run for entry in entries for run in entry["runs"]]
    return {
        "correct": not any(failed_runs(entry) for entry in entries),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": values,
    }


def write_result_file(document: dict, out_dir: str, label: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{label}_{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def run_set(names: List[str], seed: int, factor: float, trace: bool, repeats: int) -> dict:
    return {
        "meta": {
            "seed": seed, "factor": factor, "repeats": repeats, "trace": int(trace),
            "setup_repeats": SETUP_REPEATS, "started_unix": round(time.time(), 3),
            "cpu_count": os.cpu_count(),
        },
        "workloads": [run_workload(name, seed, factor, trace, repeats) for name in names],
    }


def run_aa(names: List[str], seed: int, factor: float, repeats: int, out_dir: str) -> int:
    """Two full sets of the same commit back to back, second set in reverse
    workload order; fails unless every pair agrees within its bound."""
    from bench import compare

    first = run_set(names, seed, factor, False, repeats)
    second = run_set(list(reversed(names)), seed, factor, False, repeats)
    path_a = write_result_file(first, out_dir, "aa_A")
    path_b = write_result_file(second, out_dir, "aa_B")
    rows = compare.compare(first, second, metrics.load_spec())
    print(compare.render(rows))
    print(f"\nresult files: {path_a} {path_b}")
    print("derived bounds (max of the declared bound and 2 x the A/A spread):")
    for name, bound in compare.derived_bounds(rows).items():
        print(f"  {name:14s} {bound:.3f}")
    failed = any(failed_runs(entry) for entry in first["workloads"] + second["workloads"])
    bad = any(row["verdict"] in ("worse", "unresolved") for row in rows)
    return 1 if failed or bad else 0


def run_seeds(names: List[str], seed: int, factor: float, n_seeds: int, out_dir: str) -> int:
    """The driver's acceptance procedure: each workload once per seed for
    ``n_seeds`` seeds; per end-to-end metric, the inter-quartile distance of
    the values as a share of their median, beside the metric's bound."""
    spec = metrics.load_spec()
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    document = {"meta": {"first_seed": seed, "n_seeds": n_seeds, "factor": factor}, "workloads": []}
    ok = True
    print(f"{'workload':13s} {'metric':12s} {'median':>12s} {'min':>12s} {'max':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name in names:
        runs = [spawn(name, seed + offset, factor, trace=False) for offset in range(n_seeds)]
        document["workloads"].append({"workload": name, "runs": runs})
        ok = ok and not any(run_failed(run) for run in runs)
        values = [metrics.end_to_end_of(run) for run in runs]
        for metric, bound in bounds.items():
            series = [value[metric] for value in values]
            spread = stats.spread(series)
            # The driver exempts setup_s from the spread test.
            flag = "  > bound" if spread > bound and metric != "setup_s" else ""
            ok = ok and not flag
            print(f"{name:13s} {metric:12s} {stats.median(series):12.4f} {min(series):12.4f} "
                  f"{max(series):12.4f} {spread:7.3f} {bound:6.2f}{flag}")
    print(f"\nresult file: {write_result_file(document, out_dir, 'seeds')}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = metrics.load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench.run", description=__doc__)
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=11, help="the only source of randomness")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="nominal length of a measured phase; fixed counts scale with "
                             "seconds / run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also make the traced run and report per-layer metrics")
    parser.add_argument("--repeats", type=int, default=1,
                        help="fresh-process runs per workload; metrics are their medians")
    parser.add_argument("--smoke", action="store_true", help="every count / 20, one run")
    parser.add_argument("--aa", action="store_true", help="A/A check: two sets, compared")
    parser.add_argument("--seeds", type=int, default=0, metavar="N",
                        help="spread check: one run per workload for each of N seeds")
    parser.add_argument("--out", default=paths.OUT_DIR, help="directory for result files")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--factor", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        result = run_in_process(args.workload[0], args.seed, args.factor, bool(args.trace))
        print(json.dumps(result))
        return 1 if run_failed(result) else 0

    selected = args.workload or names
    factor = SMOKE_FACTOR if args.smoke else args.seconds / spec["run_seconds"]
    repeats = 1 if args.smoke else max(1, args.repeats)
    if args.aa:
        return run_aa(selected, args.seed, factor, repeats, args.out)
    if args.seeds:
        return run_seeds(selected, args.seed, factor, args.seeds, args.out)
    document = run_set(selected, args.seed, factor, bool(args.trace), repeats)
    for entry in document["workloads"]:
        print_entry(entry, spec)
    label = selected[0] if len(selected) == 1 else "all"
    print(f"\nresult file: {write_result_file(document, args.out, label)}")
    line = result_line(document["workloads"], spec, bool(args.trace))
    if not line["correct"]:
        print("CORRECTNESS FAILURE: no result line is printed", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
