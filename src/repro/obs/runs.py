"""The persistent run registry: cross-run memory for the build pipeline.

Dong's paper judges an industrial KG pipeline across *runs* — drift in
quality between yesterday's build and today's is the dominant failure
mode, and no single-run report can see it.  This module is the durable
side of the observability layer: every ``repro trace`` / ``report`` /
``build`` / ``stream`` invocation appends one :class:`RunRecord`
(git SHA, config, per-stage wall/CPU, peak RSS, the full quality
snapshots, and flat metrics) to an append-only JSONL file under
``results/runs/``, and :meth:`RunRegistry.drift` answers "did the latest
run fall off the trajectory?" with a rolling median + MAD modified
z-score per metric.

The store is deliberately dumb — one JSON object per line, appended with
a single write — so concurrent CI jobs cannot corrupt more than the line
they were writing, and :meth:`RunRegistry.load` skips unparseable lines
instead of dying on them.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs.quality import QualityDiff, QualitySnapshot, RegressionThresholds, diff_snapshots

#: Default registry directory, relative to the repo root / results dir.
RUNS_DIRNAME = "runs"

#: The single append-only store file inside the registry directory.
RUNS_BASENAME = "runs.jsonl"

#: Modified z-score threshold: |z| above this flags drift (the classic
#: Iglewicz–Hoaglin cutoff is 3.5; quality metrics move slowly, so 3.0).
DEFAULT_DRIFT_THRESHOLD = 3.0

#: How many prior runs the rolling median/MAD window covers.
DEFAULT_DRIFT_WINDOW = 10

#: Minimum prior runs before drift detection activates (a median over
#: fewer points flags noise, not drift).
MIN_DRIFT_HISTORY = 3


def git_sha() -> str:
    """The repo HEAD SHA, or ``"unknown"`` outside a git checkout."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:  # pragma: no cover - git missing entirely
        return "unknown"
    if output.returncode != 0:
        return "unknown"
    return output.stdout.strip()


@dataclass
class RunRecord:
    """One pipeline run's durable summary.

    ``kind`` is ``"trace"``, ``"report"``, ``"build"``, or ``"stream"`` —
    which CLI surface produced it.  ``stages`` carries per-stage wall/CPU
    seconds, ``resources`` the process peak-RSS/CPU split, ``quality`` the
    full snapshot dicts, and ``metrics`` a flat name→value dict (build
    throughput, counter totals) that drift detection tracks alongside
    the quality scalars.
    """

    kind: str
    experiment_id: str
    run_id: str = ""
    git_sha: str = ""
    created_unix: float = 0.0
    config: Dict[str, object] = field(default_factory=dict)
    stages: List[Dict[str, object]] = field(default_factory=list)
    resources: Dict[str, object] = field(default_factory=dict)
    quality: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The JSONL record (inverse of :meth:`from_dict`)."""
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "experiment_id": self.experiment_id,
            "git_sha": self.git_sha,
            "created_unix": round(self.created_unix, 3),
            "config": dict(self.config),
            "stages": [dict(stage) for stage in self.stages],
            "resources": dict(self.resources),
            "quality": [dict(record) for record in self.quality],
            "metrics": {name: float(v) for name, v in sorted(self.metrics.items())},
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "RunRecord":
        return cls(
            kind=str(record.get("kind", "trace")),
            experiment_id=str(record.get("experiment_id", "")),
            run_id=str(record.get("run_id", "")),
            git_sha=str(record.get("git_sha", "")),
            created_unix=float(record.get("created_unix", 0.0)),
            config=dict(record.get("config", {})),
            stages=[dict(stage) for stage in record.get("stages", [])],
            resources=dict(record.get("resources", {})),
            quality=[dict(q) for q in record.get("quality", [])],
            metrics={
                str(name): float(value)
                for name, value in dict(record.get("metrics", {})).items()
            },
        )

    def tracked_metrics(self) -> Dict[str, float]:
        """Every number drift detection follows for this run.

        Quality scalars key as ``quality.<snapshot>.<metric>`` so several
        graphs built in one run stay distinguishable; ``metrics`` entries
        pass through as-is.
        """
        tracked: Dict[str, float] = {}
        for record in self.quality:
            snapshot = QualitySnapshot.from_dict(dict(record))
            for metric, value in snapshot.scalar_metrics().items():
                tracked[f"quality.{snapshot.name}.{metric}"] = value
        tracked.update(self.metrics)
        return tracked


@dataclass(frozen=True)
class DriftAlert:
    """One metric that fell off (or jumped off) the rolling trajectory."""

    experiment_id: str
    run_id: str
    metric: str
    value: float
    median: float
    mad: float
    z_score: float
    direction: str  # "drop" (regression for higher-is-better) or "rise"

    def describe(self) -> str:
        return (
            f"{self.experiment_id} {self.metric}: {self.value:g} vs rolling "
            f"median {self.median:g} (MAD {self.mad:g}, |z|={abs(self.z_score):.1f}, "
            f"{self.direction})"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "run_id": self.run_id,
            "metric": self.metric,
            "value": self.value,
            "median": self.median,
            "mad": self.mad,
            "z_score": round(self.z_score, 3),
            "direction": self.direction,
        }


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def modified_z_score(value: float, history: Sequence[float]) -> Dict[str, float]:
    """Iglewicz–Hoaglin modified z-score of ``value`` against ``history``.

    ``z = 0.6745 * (value - median) / MAD``; robust to the outliers that
    make a plain mean/stddev gate useless on short, drifting series.
    With a zero MAD (a perfectly stable history) any deviation at all is
    infinite-z drift — reported as ±1e9 to stay JSON-representable.
    """
    median = _median(history)
    mad = _median([abs(point - median) for point in history])
    deviation = value - median
    if mad == 0.0:
        z = 0.0 if deviation == 0.0 else (1e9 if deviation > 0 else -1e9)
    else:
        z = 0.6745 * deviation / mad
    return {"median": median, "mad": mad, "z": z}


class RunRegistry:
    """The append-only JSONL run store plus its query/drift surface."""

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, RUNS_BASENAME)
        #: Unparseable lines skipped by the last :meth:`load` (a truncated
        #: tail write, a merge artifact); surfaced, never fatal.
        self.skipped_lines = 0

    # ---- persistence ---------------------------------------------------

    def load(self) -> List[RunRecord]:
        """Every parseable record in append order; corrupt lines skipped."""
        self.skipped_lines = 0
        if not os.path.exists(self.path):
            return []
        records: List[RunRecord] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    parsed = json.loads(line)
                    if not isinstance(parsed, dict):
                        raise ValueError("not an object")
                    records.append(RunRecord.from_dict(parsed))
                except (ValueError, TypeError):
                    self.skipped_lines += 1
        return records

    def append(self, record: RunRecord) -> RunRecord:
        """Assign a run id and timestamp, append one line, return the record."""
        os.makedirs(self.directory, exist_ok=True)
        existing = self.load()
        record.run_id = record.run_id or f"r{len(existing) + self.skipped_lines + 1:04d}"
        record.created_unix = record.created_unix or time.time()
        record.git_sha = record.git_sha or git_sha()
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return record

    # ---- queries -------------------------------------------------------

    def get(self, run_id: str) -> Optional[RunRecord]:
        for record in self.load():
            if record.run_id == run_id:
                return record
        return None

    def diff(
        self,
        run_id_a: str,
        run_id_b: str,
        thresholds: Optional[RegressionThresholds] = None,
    ) -> List[QualityDiff]:
        """Quality diffs of run B (current) against run A (baseline)."""
        run_a = self.get(run_id_a)
        run_b = self.get(run_id_b)
        if run_a is None or run_b is None:
            missing = run_id_a if run_a is None else run_id_b
            raise KeyError(f"run {missing!r} not in registry {self.path}")
        return diff_snapshots(run_b.quality, run_a.quality, thresholds)

    # ---- drift detection -----------------------------------------------

    def drift(
        self,
        experiment_id: Optional[str] = None,
        window: int = DEFAULT_DRIFT_WINDOW,
        threshold: float = DEFAULT_DRIFT_THRESHOLD,
    ) -> List[DriftAlert]:
        """Alerts for the latest run(s) vs their rolling trajectory.

        For each experiment (or just ``experiment_id``), the latest run's
        tracked metrics are scored against the modified z of the previous
        ``window`` runs; metrics with ``|z| > threshold`` alert.  Metrics
        need :data:`MIN_DRIFT_HISTORY` prior observations before they can
        alert, so young registries stay quiet instead of crying wolf.
        """
        records = self.load()
        by_experiment: Dict[str, List[RunRecord]] = {}
        for record in records:
            by_experiment.setdefault(record.experiment_id.upper(), []).append(record)
        if experiment_id is not None:
            wanted = experiment_id.upper()
            by_experiment = {
                key: value for key, value in by_experiment.items() if key == wanted
            }
        alerts: List[DriftAlert] = []
        for exp_id in sorted(by_experiment):
            history = by_experiment[exp_id]
            if len(history) < MIN_DRIFT_HISTORY + 1:
                continue
            latest = history[-1]
            prior = history[-(window + 1) : -1]
            series: Dict[str, List[float]] = {}
            for record in prior:
                for metric, value in record.tracked_metrics().items():
                    series.setdefault(metric, []).append(value)
            for metric, value in sorted(latest.tracked_metrics().items()):
                points = series.get(metric, [])
                if len(points) < MIN_DRIFT_HISTORY:
                    continue
                score = modified_z_score(value, points)
                if abs(score["z"]) <= threshold:
                    continue
                alerts.append(
                    DriftAlert(
                        experiment_id=exp_id,
                        run_id=latest.run_id,
                        metric=metric,
                        value=value,
                        median=score["median"],
                        mad=score["mad"],
                        z_score=score["z"],
                        direction="drop" if value < score["median"] else "rise",
                    )
                )
        return alerts


def default_runs_dir(results_dir: str) -> str:
    """The registry directory beneath a results directory."""
    return os.path.join(results_dir, RUNS_DIRNAME)


def stages_from_spans(
    spans: Sequence[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """Per-stage wall/CPU rows from a traced run's span records.

    Pulls every ``stage.<name>`` span (the pipeline-stage level — fine
    enough to localize drift, coarse enough to stay one line per stage).
    """
    rows: List[Dict[str, object]] = []
    for record in spans:
        name = str(record.get("name", ""))
        if not name.startswith("stage."):
            continue
        rows.append(
            {
                "name": name[len("stage.") :],
                "wall_s": round(float(record.get("wall_seconds", 0.0)), 6),
                "cpu_s": round(float(record.get("cpu_seconds", 0.0)), 6),
            }
        )
    return rows
