"""Metric declarations (from BENCHMARK.json) and how a run's numbers
become them."""

from __future__ import annotations

import json
from typing import Dict, List

from bench import paths, stats


def load_spec() -> dict:
    with open(paths.BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end_of(run: dict) -> Dict[str, float]:
    """The end-to-end metrics of one child run (see bench/README.md).

    ``failed_share`` rides along for people and result files; the driver
    reads failures from the result line's ``failed``/``attempted`` instead
    (a metric that is 0 on every healthy run has no spread to bound).
    """
    return {
        "setup_s": stats.median(run["setup_runs_s"]),
        "ops_per_s": run["ops"] / run["wall_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "p50_ms": run["p50_ms"],
        "p95_ms": run["p95_ms"],
        "failed_share": run["failed"] / run["attempted"],
    }


def median_end_to_end(runs: List[dict]) -> Dict[str, float]:
    """Per metric, the median over a workload's repeats."""
    values = [end_to_end_of(run) for run in runs]
    return {name: stats.median([value[name] for value in values]) for name in values[0]}
