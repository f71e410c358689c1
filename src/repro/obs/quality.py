"""Graph-quality snapshots and run-over-run regression detection.

A :class:`QualitySnapshot` freezes the *data* health of one constructed
graph — triple counts by predicate and entity type, provenance volume and
mean confidence per source (the trust distribution), fusion accept/reject
totals, and coverage/accuracy against gold where a gold set is available.
Snapshots fold into the metrics registry as ``quality.*`` gauges, export
as plain dicts, and :meth:`QualitySnapshot.diff` compares two snapshots
under configurable thresholds so a pipeline change that shrinks or
degrades the graph fails loudly (the repeatability stage of the paper's
innovation cycle).

Snapshots taken during a run (``ConstructionPipeline.run`` takes one at
run end, AutoKnow takes one after collection) are also recorded on a
process-global holder so ``repro report`` can collect them; the holder is
reset alongside the tracer/registry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs._flags import FLAGS
from repro.obs.metrics import MetricsRegistry, get_registry

#: Registry counter names folded into a snapshot's fusion accept/reject
#: totals (Bayesian + graphical fusion both report here).
_ACCEPT_COUNTERS = ("fusion.accepted", "fusion.graphical.accepted")
_REJECT_COUNTERS = ("fusion.rejected", "fusion.graphical.rejected")


@dataclass
class QualitySnapshot:
    """Frozen data-quality numbers for one graph at one point in time."""

    name: str
    n_triples: int = 0
    n_entities: int = 0
    predicate_counts: Dict[str, int] = field(default_factory=dict)
    class_counts: Dict[str, int] = field(default_factory=dict)
    source_counts: Dict[str, int] = field(default_factory=dict)
    source_confidence: Dict[str, float] = field(default_factory=dict)
    fusion_accepted: int = 0
    fusion_rejected: int = 0
    coverage: Optional[float] = None
    accuracy: Optional[float] = None

    # ---- construction --------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph,
        name: Optional[str] = None,
        gold: Optional[Iterable[Tuple[str, str, object]]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> "QualitySnapshot":
        """Snapshot a :class:`KnowledgeGraph` (duck-typed on
        ``attributed_triples``; anything else raises ``TypeError``).

        ``gold`` is an optional iterable of (subject, predicate, object)
        truths; coverage is the fraction present in the graph.  With a
        ``registry``, fusion accept/reject counters are folded in.
        """
        if not hasattr(graph, "attributed_triples"):
            raise TypeError(
                f"cannot snapshot {type(graph).__name__}: expected a KnowledgeGraph "
                "(attributed_triples)"
            )
        snapshot = cls(name=name or getattr(graph, "name", "kg"))
        confidence_totals: Dict[str, float] = {}
        for attributed in graph.attributed_triples():
            triple = attributed.triple
            snapshot.n_triples += 1
            _bump(snapshot.predicate_counts, triple.predicate)
            source = attributed.provenance.source
            _bump(snapshot.source_counts, source)
            confidence_totals[source] = (
                confidence_totals.get(source, 0.0) + attributed.provenance.confidence
            )
        for entity in graph.entities():
            snapshot.n_entities += 1
            _bump(snapshot.class_counts, entity.entity_class)
        snapshot.source_confidence = {
            source: round(total / snapshot.source_counts[source], 4)
            for source, total in confidence_totals.items()
        }
        if gold is not None:
            snapshot.coverage, snapshot.accuracy = _score_against_gold(graph, gold)
        if registry is not None:
            counters = registry.snapshot()["counters"]
            snapshot.fusion_accepted = int(
                sum(counters.get(counter, 0.0) for counter in _ACCEPT_COUNTERS)
            )
            snapshot.fusion_rejected = int(
                sum(counters.get(counter, 0.0) for counter in _REJECT_COUNTERS)
            )
        return snapshot

    # ---- derived numbers ----------------------------------------------

    @property
    def fusion_accept_rate(self) -> Optional[float]:
        """Accepted / (accepted + rejected), None when fusion never ran."""
        total = self.fusion_accepted + self.fusion_rejected
        if total == 0:
            return None
        return self.fusion_accepted / total

    def scalar_metrics(self) -> Dict[str, float]:
        """The comparable higher-is-better numbers ``diff`` operates on."""
        metrics: Dict[str, float] = {
            "n_triples": float(self.n_triples),
            "n_entities": float(self.n_entities),
            "n_predicates": float(len(self.predicate_counts)),
            "n_sources": float(len(self.source_counts)),
        }
        if self.fusion_accept_rate is not None:
            metrics["fusion_accept_rate"] = self.fusion_accept_rate
        if self.coverage is not None:
            metrics["coverage"] = self.coverage
        if self.accuracy is not None:
            metrics["accuracy"] = self.accuracy
        for predicate, count in self.predicate_counts.items():
            metrics[f"predicate.{predicate}"] = float(count)
        return metrics

    # ---- registry / serialization --------------------------------------

    def fold_into(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Set ``quality.<name>.*`` gauges on the registry."""
        registry = registry or get_registry()
        prefix = f"quality.{self.name}"
        registry.gauge(f"{prefix}.n_triples").set(self.n_triples)
        registry.gauge(f"{prefix}.n_entities").set(self.n_entities)
        registry.gauge(f"{prefix}.n_predicates").set(len(self.predicate_counts))
        registry.gauge(f"{prefix}.n_sources").set(len(self.source_counts))
        if self.fusion_accept_rate is not None:
            registry.gauge(f"{prefix}.fusion_accept_rate").set(self.fusion_accept_rate)
        if self.coverage is not None:
            registry.gauge(f"{prefix}.coverage").set(self.coverage)
        if self.accuracy is not None:
            registry.gauge(f"{prefix}.accuracy").set(self.accuracy)
        for source, mean_confidence in self.source_confidence.items():
            registry.gauge(f"{prefix}.source_confidence.{source}").set(mean_confidence)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable record (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "n_triples": self.n_triples,
            "n_entities": self.n_entities,
            "predicate_counts": dict(sorted(self.predicate_counts.items())),
            "class_counts": dict(sorted(self.class_counts.items())),
            "source_counts": dict(sorted(self.source_counts.items())),
            "source_confidence": dict(sorted(self.source_confidence.items())),
            "fusion_accepted": self.fusion_accepted,
            "fusion_rejected": self.fusion_rejected,
            "coverage": self.coverage,
            "accuracy": self.accuracy,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "QualitySnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output (baseline loads)."""
        return cls(
            name=str(record.get("name", "kg")),
            n_triples=int(record.get("n_triples", 0)),
            n_entities=int(record.get("n_entities", 0)),
            predicate_counts=dict(record.get("predicate_counts", {})),
            class_counts=dict(record.get("class_counts", {})),
            source_counts=dict(record.get("source_counts", {})),
            source_confidence=dict(record.get("source_confidence", {})),
            fusion_accepted=int(record.get("fusion_accepted", 0)),
            fusion_rejected=int(record.get("fusion_rejected", 0)),
            coverage=record.get("coverage"),  # type: ignore[arg-type]
            accuracy=record.get("accuracy"),  # type: ignore[arg-type]
        )

    # ---- regression detection ------------------------------------------

    def diff(
        self, baseline: "QualitySnapshot", thresholds: Optional["RegressionThresholds"] = None
    ) -> "QualityDiff":
        """Compare this snapshot (current) against a baseline.

        Every metric present in either snapshot yields a delta; a delta is
        a *regression* when the current value dropped below the baseline
        by more than the configured tolerance (all compared metrics are
        higher-is-better).  Metrics that vanished entirely (a predicate no
        longer produced) are regressions regardless of tolerance.
        """
        thresholds = thresholds or RegressionThresholds()
        current_metrics = self.scalar_metrics()
        baseline_metrics = baseline.scalar_metrics()
        deltas: List[QualityDelta] = []
        for metric in sorted(set(current_metrics) | set(baseline_metrics)):
            base = baseline_metrics.get(metric)
            current = current_metrics.get(metric)
            if base is None:
                deltas.append(QualityDelta(metric, None, current, regression=False))
                continue
            if current is None:
                deltas.append(QualityDelta(metric, base, None, regression=True))
                continue
            deltas.append(
                QualityDelta(
                    metric, base, current, regression=thresholds.is_regression(metric, base, current)
                )
            )
        return QualityDiff(
            snapshot_name=self.name, deltas=deltas, thresholds=thresholds
        )


def _bump(table: Dict[str, int], key: str) -> None:
    table[key] = table.get(key, 0) + 1


def _score_against_gold(graph, gold) -> Tuple[float, float]:
    """(coverage, accuracy) of the graph against gold (s, p, o) truths."""
    gold_items = list(gold)
    covered = 0
    graph_values: Dict[Tuple[str, str], set] = {}
    correct = total_checked = 0
    for subject, predicate, obj in gold_items:
        key = (subject, predicate)
        if key not in graph_values:
            graph_values[key] = {
                str(value).lower() for value in graph.objects(subject, predicate)
            }
        present = graph_values[key]
        if str(obj).lower() in present:
            covered += 1
        if present:
            total_checked += 1
            if str(obj).lower() in present:
                correct += 1
    coverage = covered / len(gold_items) if gold_items else 0.0
    accuracy = correct / total_checked if total_checked else 0.0
    return coverage, accuracy


@dataclass(frozen=True)
class QualityDelta:
    """One metric's baseline-vs-current comparison."""

    metric: str
    baseline: Optional[float]
    current: Optional[float]
    regression: bool = False

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    def to_dict(self) -> Dict[str, object]:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.delta,
            "regression": self.regression,
        }


@dataclass(frozen=True)
class RegressionThresholds:
    """How much drop each metric family tolerates before flagging.

    ``relative_tolerance`` covers count-like metrics (triples, entities,
    per-predicate counts); the rate tolerances cover the [0, 1] quality
    rates, where a relative test would be too lax near zero.
    """

    relative_tolerance: float = 0.02
    accuracy_tolerance: float = 0.01
    coverage_tolerance: float = 0.02
    accept_rate_tolerance: float = 0.05

    def is_regression(self, metric: str, baseline: float, current: float) -> bool:
        """True when ``current`` dropped below ``baseline`` beyond tolerance."""
        if current >= baseline:
            return False
        if metric == "accuracy":
            return baseline - current > self.accuracy_tolerance
        if metric == "coverage":
            return baseline - current > self.coverage_tolerance
        if metric == "fusion_accept_rate":
            return baseline - current > self.accept_rate_tolerance
        if baseline == 0:
            return False
        return (baseline - current) / baseline > self.relative_tolerance


@dataclass
class QualityDiff:
    """All deltas between two snapshots plus the regression verdict."""

    snapshot_name: str
    deltas: List[QualityDelta] = field(default_factory=list)
    thresholds: RegressionThresholds = field(default_factory=RegressionThresholds)

    @property
    def regressions(self) -> List[QualityDelta]:
        return [delta for delta in self.deltas if delta.regression]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def to_dict(self) -> Dict[str, object]:
        return {
            "snapshot": self.snapshot_name,
            "n_regressions": len(self.regressions),
            "deltas": [delta.to_dict() for delta in self.deltas],
        }

    def rows(self, only_changed: bool = True) -> List[List[object]]:
        """Table rows (metric, baseline, current, delta, regression)."""
        rows = []
        for delta in self.deltas:
            if only_changed and delta.delta == 0.0 and not delta.regression:
                continue
            rows.append(
                [
                    delta.metric,
                    "-" if delta.baseline is None else round(delta.baseline, 4),
                    "-" if delta.current is None else round(delta.current, 4),
                    "-" if delta.delta is None else round(delta.delta, 4),
                    "REGRESSION" if delta.regression else "ok",
                ]
            )
        return rows


def diff_snapshots(
    current: Iterable[Mapping[str, object]],
    baseline: Iterable[Mapping[str, object]],
    thresholds: Optional[RegressionThresholds] = None,
) -> List[QualityDiff]:
    """Pair snapshot dicts by name and diff each current one against its baseline.

    Snapshots on one side only are skipped: a new graph is not a
    regression.  Used by ``repro report`` and ``repro runs diff``.
    """
    baseline_by_name = {str(record.get("name")): record for record in baseline}
    diffs: List[QualityDiff] = []
    for record in current:
        base = baseline_by_name.get(str(record.get("name")))
        if base is not None:
            diffs.append(
                QualitySnapshot.from_dict(dict(record)).diff(
                    QualitySnapshot.from_dict(dict(base)), thresholds
                )
            )
    return diffs


# ---------------------------------------------------------------------------
# Process-global snapshot holder: pipelines record here while observability
# is on; `repro report` collects, the reset hooks clear.

_HOLDER_LOCK = threading.Lock()
_SNAPSHOTS: List[QualitySnapshot] = []


def record_snapshot(snapshot: QualitySnapshot) -> None:
    """Keep a snapshot for later collection (no-op while obs is disabled)."""
    if not FLAGS.enabled:
        return
    with _HOLDER_LOCK:
        _SNAPSHOTS.append(snapshot)


def snapshots() -> List[QualitySnapshot]:
    """Snapshots recorded since the last reset, in recording order."""
    with _HOLDER_LOCK:
        return list(_SNAPSHOTS)


def reset_snapshots() -> None:
    """Drop held snapshots (CLI/test isolation)."""
    global _SNAPSHOTS
    with _HOLDER_LOCK:
        _SNAPSHOTS = []


def capture(
    graph,
    name: Optional[str] = None,
    gold: Optional[Iterable[Tuple[str, str, object]]] = None,
) -> QualitySnapshot:
    """Snapshot a graph, fold it into the registry, and record it.

    The one-call form pipelines use at run end; returns the snapshot.
    """
    snapshot = QualitySnapshot.from_graph(graph, name=name, gold=gold, registry=get_registry())
    snapshot.fold_into(get_registry())
    record_snapshot(snapshot)
    return snapshot
