"""Run reports backing ``repro report <EXPERIMENT_ID>``.

A report turns one traced in-process run (:func:`repro.evalx.tracerun.
run_trace`) into three artifacts under ``results/``:

* ``report_<id>.md`` — the human-readable report: the span tree, counter
  and histogram tables, per-graph quality snapshots, sampled lineage
  chains, and (when a baseline exists) the quality diff;
* ``report_<id>.json`` — the stable JSON document
  (:func:`repro.obs.export.build_document`) that the *next* run loads as
  its baseline;
* ``report_<id>.prom`` — the Prometheus text exposition of the run's
  metrics and quality gauges.

Regression detection pairs the run's quality snapshots with the
baseline's by name and diffs them under
:class:`repro.obs.quality.RegressionThresholds`; span timings are never
compared (latency is machine-dependent, data quality is not), which is
what makes a back-to-back rerun report zero regressions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.evalx.tables import render_table
from repro.evalx.tracerun import TraceResult
from repro.obs import export as obs_export
from repro.obs.quality import QualityDiff, QualitySnapshot, RegressionThresholds, diff_snapshots


def render_span_tree(spans: Sequence[Mapping[str, object]]) -> List[str]:
    """Indented tree lines from flat span records (``parent_id`` nesting).

    Siblings render in start order; spans whose parent never finished
    (should not happen) are treated as roots rather than dropped.
    """
    known_ids = {str(record.get("span_id")) for record in spans}
    children: Dict[Optional[str], List[Mapping[str, object]]] = {}
    for record in spans:
        parent = record.get("parent_id")
        if parent is not None and str(parent) not in known_ids:
            parent = None
        children.setdefault(parent if parent is None else str(parent), []).append(record)
    for siblings in children.values():
        siblings.sort(
            key=lambda r: (float(r.get("started_unix", 0.0)), str(r.get("span_id")))
        )
    lines: List[str] = []

    def walk(record: Mapping[str, object], depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{record['name']}"
            f"  wall={float(record['wall_seconds']):.4f}s"
            f"  cpu={float(record['cpu_seconds']):.4f}s"
        )
        for child in children.get(str(record.get("span_id")), []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return lines


class ReportInputError(ValueError):
    """A missing, truncated, or unparseable report/trace artifact.

    Raised with a one-line, actionable message; the CLI prints it and
    exits non-zero instead of dumping a traceback at the operator.
    """


def load_baseline(path: str) -> Optional[Dict[str, object]]:
    """A previously written report JSON document, or None when absent.

    A file that exists but does not parse (a truncated write, a merge
    conflict) raises :class:`ReportInputError` rather than a raw
    ``JSONDecodeError`` traceback.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except ValueError as exc:
        raise ReportInputError(
            f"baseline {path} is not valid JSON ({exc}); delete it to rebaseline "
            f"or pass --baseline pointing at a good report"
        ) from exc
    except OSError as exc:
        raise ReportInputError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ReportInputError(
            f"baseline {path} is not a report document (expected a JSON object)"
        )
    return document


def load_trace_file(path: str) -> Dict[str, object]:
    """Parse a ``repro trace`` JSONL file: span records plus the metrics tail.

    Returns ``{"spans": [...], "metrics": {...}}``.  Raises
    :class:`ReportInputError` — with the offending line number — when the
    file is missing, any line fails to parse (a truncated write cuts the
    last line mid-object), or the final metrics record is absent.
    """
    if not os.path.exists(path):
        raise ReportInputError(
            f"trace file {path} not found; run `repro trace <ID> -o {path}` first"
        )
    spans: List[Dict[str, object]] = []
    metrics: Optional[Dict[str, object]] = None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ReportInputError(
                        f"trace file {path} is truncated or corrupt at line "
                        f"{line_number}; re-run `repro trace` to regenerate it"
                    ) from exc
                kind = record.get("kind") if isinstance(record, dict) else None
                if kind == "span":
                    spans.append(record)
                elif kind == "metrics":
                    metrics = record
    except OSError as exc:
        raise ReportInputError(f"cannot read trace file {path}: {exc}") from exc
    if metrics is None:
        raise ReportInputError(
            f"trace file {path} has no final metrics record (truncated write?); "
            f"re-run `repro trace` to regenerate it"
        )
    return {"spans": spans, "metrics": metrics}


@dataclass
class RunReport:
    """One traced run plus its baseline comparison, ready to render."""

    result: TraceResult
    diffs: List[QualityDiff] = field(default_factory=list)
    baseline_path: Optional[str] = None

    @property
    def has_regressions(self) -> bool:
        return any(diff.has_regressions for diff in self.diffs)

    @property
    def n_regressions(self) -> int:
        return sum(len(diff.regressions) for diff in self.diffs)

    # ---- rendering ------------------------------------------------------

    def to_document(self) -> Dict[str, object]:
        """The stable JSON document (next run's baseline)."""
        baseline_diff: Optional[Dict[str, object]] = None
        if self.diffs:
            baseline_diff = {
                "baseline_path": self.baseline_path,
                "n_regressions": self.n_regressions,
                "diffs": [diff.to_dict() for diff in self.diffs],
            }
        return obs_export.build_document(
            experiment_id=self.result.experiment_id,
            spans=self.result.spans,
            metrics_snapshot=self.result.snapshot,
            quality_snapshots=self.result.quality,
            lineage_samples=self.result.lineage,
            baseline_diff=baseline_diff,
            slo=self.result.slo or None,
        )

    def to_markdown(self) -> str:
        """The human-readable report."""
        result = self.result
        sections: List[str] = [f"# Run report: {result.experiment_id}", ""]

        sections += ["## Span tree", "", "```"]
        sections += render_span_tree(result.spans) or ["(no spans recorded)"]
        sections += ["```", ""]

        counters = result.snapshot.get("counters", {})
        if counters:
            sections += ["## Counters", "", "```"]
            sections.append(
                render_table(
                    title=f"{result.experiment_id} counters",
                    columns=["counter", "value"],
                    rows=[[name, value] for name, value in counters.items()],
                )
            )
            sections += ["```", ""]

        histograms = result.snapshot.get("histograms", {})
        if histograms:
            sections += ["## Histograms", "", "```"]
            sections.append(
                render_table(
                    title=f"{result.experiment_id} histograms",
                    columns=["histogram", "count", "mean", "p50", "p95", "max"],
                    rows=[
                        [
                            name,
                            int(summary.get("count", 0)),
                            summary.get("mean", 0.0),
                            summary.get("p50", 0.0),
                            summary.get("p95", 0.0),
                            summary.get("max", 0.0),
                        ]
                        for name, summary in histograms.items()
                    ],
                )
            )
            sections += ["```", ""]

        slo = result.slo
        if slo and slo.get("routes"):
            sections += ["## Serving SLO", "", "```"]
            sections.append(
                render_table(
                    title=(
                        f"{result.experiment_id} per-route RED "
                        f"(window {slo.get('window_s', 0)}s)"
                    ),
                    columns=[
                        "route", "req", "rps", "err", "shed", "degr",
                        "p50ms", "p95ms", "burn", "burning",
                    ],
                    rows=[
                        [
                            route,
                            block.get("requests", 0),
                            block.get("rate_rps", 0.0),
                            block.get("errors", 0),
                            block.get("shed", 0),
                            block.get("degraded", 0),
                            block.get("p50_ms", 0.0),
                            block.get("p95_ms", 0.0),
                            block.get("budget_burn_rate", 0.0),
                            "yes" if block.get("burning") else "no",
                        ]
                        for route, block in sorted(slo["routes"].items())  # type: ignore[union-attr]
                    ],
                    note=(
                        f"worst burn rate {slo.get('worst_burn_rate', 0.0)}; "
                        + (
                            "error budget burning"
                            if slo.get("burning")
                            else "within error budget"
                        )
                    ),
                )
            )
            sections += ["```", ""]

        sections += ["## Quality snapshots", ""]
        if result.quality:
            for record in result.quality:
                snapshot = QualitySnapshot.from_dict(dict(record))
                sections.append(f"### {snapshot.name}")
                sections.append("")
                sections.append("```")
                sections.append(
                    render_table(
                        title=f"quality: {snapshot.name}",
                        columns=["metric", "value"],
                        rows=[
                            [metric, value]
                            for metric, value in sorted(snapshot.scalar_metrics().items())
                        ],
                    )
                )
                sections.append("```")
                sections.append("")
        else:
            sections += ["(no quality snapshots recorded)", ""]

        sections += ["## Lineage samples", ""]
        if result.lineage:
            for record in result.lineage:
                triple = (
                    f"({record.get('subject')}, {record.get('predicate')}, "
                    f"{record.get('object')})"
                )
                verdict = record.get("verdict")
                sections.append(f"### {triple}" + (f" — {verdict}" if verdict else ""))
                sections.append("")
                sections.append("```")
                for event in record.get("events", []):  # type: ignore[union-attr]
                    detail = " ".join(
                        f"{key}={value}"
                        for key, value in sorted(dict(event.get("detail", {})).items())
                    )
                    sections.append(
                        f"[{event.get('kind')}] {event.get('stage')} {detail}".rstrip()
                    )
                sections.append("```")
                sections.append("")
        else:
            sections += ["(no lineage chains recorded)", ""]

        sections += ["## Baseline comparison", ""]
        if self.diffs:
            sections.append(f"Baseline: `{self.baseline_path}`")
            sections.append("")
            for diff in self.diffs:
                rows = diff.rows(only_changed=True)
                sections.append("```")
                sections.append(
                    render_table(
                        title=f"quality diff: {diff.snapshot_name}",
                        columns=["metric", "baseline", "current", "delta", "status"],
                        rows=rows or [["(all metrics unchanged)", "-", "-", "-", "ok"]],
                        note=f"{len(diff.regressions)} regression(s)",
                    )
                )
                sections.append("```")
                sections.append("")
            verdict = (
                f"**{self.n_regressions} regression(s) detected.**"
                if self.has_regressions
                else "**No regressions against the baseline.**"
            )
            sections += [verdict, ""]
        else:
            sections += ["(no baseline — this run becomes the baseline)", ""]

        return "\n".join(sections)

    def to_prometheus(self) -> str:
        """The run's metrics + quality gauges in Prometheus text format."""
        return obs_export.render_prometheus(quality_snapshots=self.result.quality)


def build_report(
    result: TraceResult,
    baseline: Optional[Mapping[str, object]] = None,
    baseline_path: Optional[str] = None,
    thresholds: Optional[RegressionThresholds] = None,
) -> RunReport:
    """Assemble a :class:`RunReport`, diffing against ``baseline`` if given."""
    diffs: List[QualityDiff] = []
    if baseline is not None:
        baseline_quality = baseline.get("quality") or []
        diffs = diff_snapshots(result.quality, baseline_quality, thresholds)
    return RunReport(result=result, diffs=diffs, baseline_path=baseline_path)


def write_report(
    report: RunReport,
    directory: str,
    basename: Optional[str] = None,
) -> Dict[str, str]:
    """Write the ``.md``/``.json``/``.prom`` artifacts; returns their paths.

    The Prometheus export renders from the *global* registry, so call this
    before anything resets it.
    """
    os.makedirs(directory, exist_ok=True)
    basename = basename or f"report_{report.result.experiment_id.lower().replace('-', '_')}"
    paths = {
        "markdown": os.path.join(directory, f"{basename}.md"),
        "json": os.path.join(directory, f"{basename}.json"),
        "prometheus": os.path.join(directory, f"{basename}.prom"),
    }
    with open(paths["markdown"], "w", encoding="utf-8") as handle:
        handle.write(report.to_markdown())
    with open(paths["json"], "w", encoding="utf-8") as handle:
        handle.write(obs_export.dump_document(report.to_document()))
    with open(paths["prometheus"], "w", encoding="utf-8") as handle:
        handle.write(report.to_prometheus())
    return paths
