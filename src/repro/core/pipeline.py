"""Composable construction pipelines — the Fig. 4 architectures.

Figure 4 depicts KG construction as a chain of components (transformation,
integration, extraction, cleaning, fusion...).  This module gives those
components a uniform stage interface so the two architectures are literally
assembled and run, and each stage's contribution (triples added, accuracy,
manual work consumed) is reported — which is what the FIG4 and T-GROWTH
benchmarks print.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro.obs import quality as obs_quality
from repro.obs._flags import FLAGS as _OBS_FLAGS
from repro.obs.tracing import span


@dataclass
class PipelineContext:
    """Mutable blackboard threaded through pipeline stages.

    ``artifacts`` holds named intermediate products (source records, the KG
    under construction, extraction candidates...).  ``metrics`` accumulates
    per-stage numbers for reporting.
    """

    artifacts: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    def require(self, key: str):
        """Fetch an artifact, raising a clear error if a stage is missing."""
        if key not in self.artifacts:
            raise KeyError(
                f"pipeline artifact {key!r} missing; an upstream stage did not run"
            )
        return self.artifacts[key]


@dataclass
class StageReport:
    """What one stage did: timing plus the metrics it recorded.

    ``error`` is ``None`` for a successful stage; for a stage that raised
    it holds ``"ExceptionType: message"`` and ``metrics`` are whatever the
    stage recorded before failing (a partial report, so a crashed pipeline
    still accounts for every stage it entered).
    """

    stage_name: str
    seconds: float
    metrics: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None


class PipelineStage:
    """Base class for a construction stage.

    Subclasses implement :meth:`run`, reading and writing the context.
    Metrics recorded through :meth:`record` end up in the stage report.
    """

    name = "stage"

    def __init__(self, name: Optional[str] = None):
        if name is not None:
            self.name = name
        self._metrics: Dict[str, float] = {}

    def record(self, metric: str, value: float) -> None:
        """Record a metric for the stage report."""
        self._metrics[metric] = float(value)

    def run(self, context: PipelineContext) -> None:
        """Execute the stage; must be overridden."""
        raise NotImplementedError

    def _take_metrics(self) -> Dict[str, float]:
        metrics, self._metrics = self._metrics, {}
        return metrics


class FunctionStage(PipelineStage):
    """Adapter turning a plain callable into a stage."""

    def __init__(self, name: str, function: Callable[[PipelineContext], None]):
        super().__init__(name=name)
        self._function = function

    def run(self, context: PipelineContext) -> None:
        self._function(context)


@dataclass
class ConstructionPipeline:
    """An ordered chain of stages with execution reporting.

    ``partition_build`` (a :class:`repro.core.partition.PartitionedBuild`)
    enables :meth:`run`'s ``partitions=N`` form — the partition-parallel
    build path; it is duck-typed here to avoid an import cycle.
    """

    name: str
    stages: List[PipelineStage] = field(default_factory=list)
    partition_build: Optional[object] = None
    reports: List[StageReport] = field(default_factory=list, init=False)

    def add_stage(self, stage: PipelineStage) -> "ConstructionPipeline":
        """Append a stage; returns self for chaining."""
        self.stages.append(stage)
        return self

    def add_function(
        self, name: str, function: Callable[[PipelineContext], None]
    ) -> "ConstructionPipeline":
        """Append a callable as a stage; returns self for chaining."""
        return self.add_stage(FunctionStage(name, function))

    def run(
        self,
        context: Optional[PipelineContext] = None,
        partitions: Optional[int] = None,
    ) -> PipelineContext:
        """Execute every stage in order, collecting reports.

        Each stage runs inside a tracing span (``stage.<name>``, nested
        under ``pipeline.<pipeline>``) and its :class:`StageReport` is
        folded into the global metrics registry.  A stage that raises
        still leaves a partial report — timed, with whatever metrics it
        recorded and an ``error`` — before the exception propagates.

        With ``partitions=N`` the pipeline instead runs the attached
        ``partition_build``'s partition → build → exchange stage chain
        for that shard count; ``partitions=1`` takes the same code path
        (it *is* the single-shard reference the equivalence tests pin
        ``partitions=N`` against).
        """
        if partitions is not None:
            if self.partition_build is None:
                raise ValueError(
                    f"pipeline {self.name!r} has no partition_build attached; "
                    "construct it with ConstructionPipeline(..., "
                    "partition_build=PartitionedBuild(...)) to run partitioned"
                )
            sharded = ConstructionPipeline(
                name=self.name,
                stages=self.partition_build.stages(partitions),
                partition_build=self.partition_build,
            )
            try:
                return sharded.run(context)
            finally:
                self.reports = sharded.reports
        context = context or PipelineContext()
        self.reports = []
        obs_progress.begin_pipeline(self.name, len(self.stages))
        try:
            with span(f"pipeline.{self.name}", pipeline=self.name):
                for stage in self.stages:
                    started = time.perf_counter()
                    obs_progress.begin_stage(stage.name)
                    with span(
                        f"stage.{stage.name}", pipeline=self.name, stage=stage.name
                    ) as stage_span:
                        try:
                            stage.run(context)
                        except BaseException as exc:
                            report = StageReport(
                                stage_name=stage.name,
                                seconds=time.perf_counter() - started,
                                metrics=stage._take_metrics(),
                                error=f"{type(exc).__name__}: {exc}",
                            )
                            self.reports.append(report)
                            self._fold_report(report, stage_span)
                            obs_progress.end_stage(error=report.error)
                            raise
                    report = StageReport(
                        stage_name=stage.name,
                        seconds=time.perf_counter() - started,
                        metrics=stage._take_metrics(),
                    )
                    self.reports.append(report)
                    self._fold_report(report, stage_span)
                    obs_progress.end_stage()
                    for metric, value in report.metrics.items():
                        context.metrics[f"{stage.name}.{metric}"] = value
                self._snapshot_quality(context)
        finally:
            obs_progress.end_pipeline()
        return context

    def _snapshot_quality(self, context: PipelineContext) -> None:
        """Take a run-end quality snapshot of the constructed graph.

        Only with observability on and a ``kg`` artifact present; the
        snapshot lands in the registry (``quality.<pipeline>.*`` gauges),
        the global snapshot holder, and ``artifacts["quality_snapshot"]``.
        """
        if not _OBS_FLAGS.enabled:
            return
        graph = context.artifacts.get("kg")
        if graph is None:
            return
        with span(f"quality.snapshot.{self.name}", pipeline=self.name):
            try:
                snapshot = obs_quality.capture(graph, name=self.name)
            except TypeError:
                return  # artifact is not a snapshot-able graph
        context.artifacts["quality_snapshot"] = snapshot

    def _fold_report(self, report: StageReport, stage_span) -> None:
        """Push one stage report into the span tags + metrics registry."""
        stage_span.set_tag("seconds", round(report.seconds, 6))
        for metric, value in report.metrics.items():
            stage_span.set_tag(metric, value)
        obs_metrics.count("pipeline.stage.runs")
        obs_metrics.observe("pipeline.stage.seconds", report.seconds)
        prefix = f"pipeline.{self.name}.{report.stage_name}"
        for metric, value in report.metrics.items():
            obs_metrics.gauge(f"{prefix}.{metric}", value)
        if report.error is not None:
            obs_metrics.count("pipeline.stage.errors")

    def report_table(self) -> List[Dict[str, object]]:
        """Stage-by-stage report rows for printing."""
        rows = []
        for report in self.reports:
            row: Dict[str, object] = {"stage": report.stage_name, "seconds": round(report.seconds, 4)}
            row.update(report.metrics)
            if report.error is not None:
                row["error"] = report.error
            rows.append(row)
        return rows
