"""Observability for the KG construction stack: spans, metrics, lineage.

The innovation cycle the paper describes (feasibility → quality →
repeatability → scalability → ubiquity) turns on being able to *measure*
each stage; this package is that measurement layer:

* :mod:`repro.obs.tracing` — hierarchical spans with wall/CPU timing,
  tags, and JSONL export (``with span("fusion.graphical"):``);
* :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges, and fixed-bucket histograms with p50/p95/p99 summaries;
* :mod:`repro.obs.profiling` — ``@profiled`` decorator and
  ``profile_block`` context manager feeding both at once, plus the
  global enable/disable switch;
* :mod:`repro.obs.lineage` — the per-triple decision ledger
  (observations, merges, fusion verdicts) behind ``explain(triple)``;
* :mod:`repro.obs.quality` — graph-quality snapshots with run-over-run
  regression diffs, folded into the registry as ``quality.*`` gauges;
* :mod:`repro.obs.export` — Prometheus text format and the stable JSON
  run document;
* :mod:`repro.obs.progress` — the live build-progress heartbeat (TTY
  line, JSONL log, the ``/buildz`` payload);
* :mod:`repro.obs.runs` — the persistent run registry under
  ``results/runs/`` with rolling median+MAD drift detection.

Observations stay in the process that makes them:
``pmap(mode="process")`` workers run callables that record nothing
(DESIGN.md §10), so nothing crosses the process boundary but results.

Everything is off by default and near-free while off; enable with
:func:`enable` or ``REPRO_OBS=1``.  ``repro trace <EXPERIMENT_ID>`` runs
an experiment under this layer and writes ``results/trace_<id>.jsonl``;
``repro report <EXPERIMENT_ID>`` additionally writes a full run report
(markdown + JSON + Prometheus) with baseline regression gating.
"""

from repro.obs.export import build_document, render_prometheus
from repro.obs.lineage import (
    LineageChain,
    LineageEvent,
    LineageLedger,
    explain,
    get_ledger,
    record_fusion,
    record_merge,
    record_observation,
    record_rejection,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    count,
    gauge,
    get_registry,
    observe,
)
from repro.obs.profiling import (
    disable,
    enable,
    enabled,
    enabled_scope,
    profile_block,
    profiled,
    reset_all,
    rusage,
)
from repro.obs.progress import BuildProgress, get_progress
from repro.obs.quality import (
    QualityDiff,
    QualitySnapshot,
    RegressionThresholds,
    capture,
)
from repro.obs.runs import DriftAlert, RunRecord, RunRegistry
from repro.obs.tracing import (
    Span,
    Tracer,
    current_span,
    get_tracer,
    span,
)

__all__ = [
    "BuildProgress",
    "Counter",
    "DriftAlert",
    "Gauge",
    "Histogram",
    "LineageChain",
    "LineageEvent",
    "LineageLedger",
    "MetricsRegistry",
    "QualityDiff",
    "QualitySnapshot",
    "RegressionThresholds",
    "RunRecord",
    "RunRegistry",
    "Span",
    "Tracer",
    "build_document",
    "capture",
    "count",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "enabled_scope",
    "explain",
    "gauge",
    "get_ledger",
    "get_progress",
    "get_registry",
    "get_tracer",
    "observe",
    "profile_block",
    "profiled",
    "record_fusion",
    "record_merge",
    "record_observation",
    "record_rejection",
    "render_prometheus",
    "reset_all",
    "rusage",
    "span",
]
