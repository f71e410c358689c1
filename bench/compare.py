"""``python -m bench.compare A.json B.json`` — two result files, one verdict
per ``(workload, end-to-end metric)``.

For each pair it prints both medians with their quartiles, the ratio
``B / A`` (A is the base), the metric's bound, and one of:

* ``same``       — B's median is within the bound of A's;
* ``better``     — B's median is better than A's by more than the bound;
* ``worse``      — B's median is worse than A's by more than the bound and
  every B run is worse than every A run;
* ``unresolved`` — B's median is worse by more than the bound, or the
  run-to-run spread is wider than the bound, while the runs interleave: the
  data cannot tell a regression from noise.

``failed_share`` has the bound "any increase".
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from bench import metrics, stats

#: The contract caps every bound at a quarter of the parent's median.
MAX_BOUND = 0.25


def _values(document: dict) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per run."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for entry in document["workloads"]:
        per_metric: Dict[str, List[float]] = {}
        for run in entry["runs"]:
            for name, value in metrics.end_to_end_of(run).items():
                per_metric.setdefault(name, []).append(value)
        out[entry["workload"]] = per_metric
    return out


def verdict(
    base: List[float], other: List[float], better: str, bound: Optional[float]
) -> str:
    """Classify ``other`` against ``base`` (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, other_median = stats.median(base), stats.median(other)
    if bound is None:  # "any increase"
        return "worse" if sign * (other_median - base_median) > 0 else "same"
    scale = abs(base_median) or 1.0
    change = sign * (other_median - base_median) / scale  # > 0 is worse
    separated = (
        min(other) > max(base) if sign > 0 else max(other) < min(base)
    )
    wide = max(stats.spread(base), stats.spread(other)) > bound
    if change > bound:
        return "worse" if separated else "unresolved"
    if change < -bound:
        return "better"
    return "unresolved" if wide and not separated else "same"


def compare(first: dict, second: dict, spec: dict) -> List[dict]:
    declared = {metric["name"]: metric for metric in spec["end_to_end"]}
    declared["failed_share"] = {"unit": "ratio", "better": "lower", "bound": None}
    base, other = _values(first), _values(second)
    rows = []
    for workload in base:
        if workload not in other:
            continue
        for name, metric in declared.items():
            a, b = base[workload][name], other[workload][name]
            a_q, b_q = stats.quartiles(a), stats.quartiles(b)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": a_q,
                    "b": b_q,
                    "ratio": b_q[1] / a_q[1] if a_q[1] else float("nan"),
                    "spread": max(stats.spread(a), stats.spread(b)),
                    "bound": metric["bound"],
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows


def derived_bounds(rows: List[dict]) -> Dict[str, float]:
    """Per metric: ``max(declared bound, 2 x widest A/A spread)``, capped."""
    bounds: Dict[str, float] = {}
    for row in rows:
        if row["bound"] is None:
            continue
        wanted = min(MAX_BOUND, max(row["bound"], 2 * row["spread"]))
        bounds[row["metric"]] = max(bounds.get(row["metric"], 0.0), wanted)
    return bounds


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':13s} {'metric':12s} {'A median [q1..q3]':>34s} {'B median [q1..q3]':>34s} "
        f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        a = "{1:.4g} [{0:.4g}..{2:.4g}]".format(*row["a"])
        b = "{1:.4g} [{0:.4g}..{2:.4g}]".format(*row["b"])
        bound = "any" if row["bound"] is None else f"{row['bound']:.2f}"
        lines.append(
            f"{row['workload']:13s} {row['metric']:12s} {a:>34s} {b:>34s} "
            f"{row['ratio']:7.3f} {row['spread']:7.3f} {bound:>6s}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(documents[0], documents[1], metrics.load_spec())
    print(render(rows))
    return 1 if any(row["verdict"] in ("worse", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
