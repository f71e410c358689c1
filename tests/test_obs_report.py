"""Tests for run reports (repro.evalx.report) and `repro report`."""

import json

import pytest

from repro.cli import main
from repro.evalx.report import build_report, load_baseline, render_span_tree
from repro.evalx.tracerun import TraceResult
from repro.obs.quality import diff_snapshots


def _tiny_workload():
    """A deterministic pipeline producing triples, lineage, and a snapshot."""
    from repro.core.graph import KnowledgeGraph
    from repro.core.ontology import Ontology
    from repro.core.pipeline import ConstructionPipeline
    from repro.core.triple import Provenance, Triple
    from repro.integrate.fusion import AccuFusion, ValueClaim

    ontology = Ontology()
    ontology.add_class("Movie")
    graph = KnowledgeGraph(ontology=ontology, name="tiny")

    def build(context):
        for index in range(4):
            graph.add_entity(f"m{index}", f"Movie {index}", "Movie")
            graph.add_triple(
                Triple(f"m{index}", "release_year", "1995"),
                Provenance(source="imdb", extractor="wrapper", confidence=0.9),
            )
        context.artifacts["kg"] = graph

    def fuse(context):
        claims = [
            ValueClaim("m0", "release_year", "1995", "imdb"),
            ValueClaim("m0", "release_year", "1995", "freebase"),
            ValueClaim("m0", "release_year", "1996", "junk"),
        ]
        AccuFusion(n_iterations=3).fuse(claims)

    ConstructionPipeline("tiny").add_function("build", build).add_function(
        "fuse", fuse
    ).run()


def _smaller_workload():
    """The same pipeline but degraded: fewer entities/triples (a regression)."""
    from repro.core.graph import KnowledgeGraph
    from repro.core.ontology import Ontology
    from repro.core.pipeline import ConstructionPipeline
    from repro.core.triple import Provenance, Triple

    ontology = Ontology()
    ontology.add_class("Movie")
    graph = KnowledgeGraph(ontology=ontology, name="tiny")

    def build(context):
        graph.add_entity("m0", "Movie 0", "Movie")
        graph.add_triple(
            Triple("m0", "release_year", "1995"),
            Provenance(source="imdb", confidence=0.9),
        )
        context.artifacts["kg"] = graph

    ConstructionPipeline("tiny").add_function("build", build).run()


class TestSpanTree:
    def test_nesting_by_parent_id(self):
        spans = [
            {"span_id": "s2", "parent_id": "s1", "name": "child",
             "started_unix": 2.0, "wall_seconds": 0.1, "cpu_seconds": 0.1},
            {"span_id": "s1", "parent_id": None, "name": "root",
             "started_unix": 1.0, "wall_seconds": 0.5, "cpu_seconds": 0.4},
            {"span_id": "s3", "parent_id": "s1", "name": "child2",
             "started_unix": 3.0, "wall_seconds": 0.1, "cpu_seconds": 0.1},
        ]
        lines = render_span_tree(spans)
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child ")
        assert lines[2].startswith("  child2")

    def test_orphan_span_treated_as_root(self):
        lines = render_span_tree(
            [{"span_id": "s9", "parent_id": "missing", "name": "orphan",
              "started_unix": 0.0, "wall_seconds": 0.0, "cpu_seconds": 0.0}]
        )
        assert lines[0].startswith("orphan")

    def test_empty_spans(self):
        assert render_span_tree([]) == []


class TestBaselineDiff:
    def test_pairs_snapshots_by_name(self):
        current = [
            {"name": "a", "n_triples": 10, "n_entities": 5},
            {"name": "only_current", "n_triples": 1, "n_entities": 1},
        ]
        baseline = [
            {"name": "a", "n_triples": 10, "n_entities": 5},
            {"name": "only_baseline", "n_triples": 9, "n_entities": 9},
        ]
        diffs = diff_snapshots(current, baseline)
        assert [diff.snapshot_name for diff in diffs] == ["a"]
        assert not diffs[0].has_regressions

    def test_detects_drop(self):
        current = [{"name": "a", "n_triples": 5, "n_entities": 5}]
        baseline = [{"name": "a", "n_triples": 10, "n_entities": 5}]
        (diff,) = diff_snapshots(current, baseline)
        assert diff.has_regressions

    def test_load_baseline_missing_returns_none(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) is None


class TestRunReport:
    def _result(self):
        return TraceResult(
            experiment_id="T-TINY",
            spans=[
                {"kind": "span", "span_id": "s1", "parent_id": None, "name": "root",
                 "started_unix": 1.0, "wall_seconds": 0.5, "cpu_seconds": 0.4,
                 "trace_id": "t1", "tags": {}},
            ],
            snapshot={
                "counters": {"fusion.accepted": 3.0},
                "gauges": {},
                "histograms": {
                    "stage.seconds": {"count": 2, "sum": 0.4, "mean": 0.2, "min": 0.1,
                                      "max": 0.3, "p50": 0.2, "p95": 0.3, "p99": 0.3}
                },
            },
            quality=[{"name": "tiny", "n_triples": 4, "n_entities": 4}],
            lineage=[{
                "subject": "m0", "predicate": "release_year", "object": "1995",
                "verdict": "accepted",
                "events": [
                    {"sequence": 1, "kind": "observation", "stage": "graph.add_triple",
                     "detail": {"source": "imdb", "extractor": "wrapper"}},
                    {"sequence": 2, "kind": "fusion", "stage": "fusion.accu",
                     "detail": {"verdict": "accepted", "confidence": 0.97}},
                ],
            }],
        )

    def test_markdown_contains_all_sections(self):
        markdown = build_report(self._result()).to_markdown()
        assert "## Span tree" in markdown
        assert "## Counters" in markdown
        assert "## Histograms" in markdown
        assert "## Quality snapshots" in markdown
        assert "## Lineage samples" in markdown
        assert "(m0, release_year, 1995)" in markdown
        assert "[fusion] fusion.accu" in markdown
        assert "no baseline" in markdown

    def test_markdown_reports_regressions(self):
        report = build_report(
            self._result(),
            baseline={"quality": [{"name": "tiny", "n_triples": 40, "n_entities": 4}]},
            baseline_path="prior.json",
        )
        assert report.has_regressions
        markdown = report.to_markdown()
        assert "REGRESSION" in markdown
        assert "regression(s) detected" in markdown

    def test_document_embeds_baseline_diff(self):
        report = build_report(
            self._result(),
            baseline={"quality": [{"name": "tiny", "n_triples": 4, "n_entities": 4}]},
            baseline_path="prior.json",
        )
        document = report.to_document()
        assert document["baseline_diff"]["n_regressions"] == 0
        json.dumps(document)


class TestReportCommand:
    @pytest.fixture
    def tiny_id(self, monkeypatch):
        from repro.evalx import tracerun

        monkeypatch.setitem(tracerun.TRACE_WORKLOADS, "T-TINY", _tiny_workload)
        return "T-TINY"

    def test_unknown_id(self, capsys):
        assert main(["report", "NOPE"]) == 2
        assert "no trace workload" in capsys.readouterr().err

    def test_writes_all_three_artifacts(self, tiny_id, tmp_path, capsys):
        assert main(["report", "t-tiny", "-o", str(tmp_path)]) == 0
        markdown = (tmp_path / "report_t_tiny.md").read_text()
        assert "## Span tree" in markdown
        assert "experiment.T-TINY" in markdown
        assert "[fusion] fusion.accu" in markdown  # a lineage chain made it in
        document = json.loads((tmp_path / "report_t_tiny.json").read_text())
        assert document["experiment_id"] == "T-TINY"
        assert document["quality"] and document["quality"][0]["name"] == "tiny"
        assert any(record["verdict"] == "accepted" for record in document["lineage"])
        prom = (tmp_path / "report_t_tiny.prom").read_text()
        assert "# TYPE repro_fusion_accepted counter" in prom
        assert "no baseline found" in capsys.readouterr().out

    def test_second_identical_run_reports_zero_regressions(self, tiny_id, tmp_path, capsys):
        assert main(["report", "T-TINY", "-o", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", "T-TINY", "-o", str(tmp_path)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_regression_fails_the_run(self, tmp_path, monkeypatch, capsys):
        from repro.evalx import tracerun

        monkeypatch.setitem(tracerun.TRACE_WORKLOADS, "T-TINY", _tiny_workload)
        assert main(["report", "T-TINY", "-o", str(tmp_path)]) == 0
        monkeypatch.setitem(tracerun.TRACE_WORKLOADS, "T-TINY", _smaller_workload)
        capsys.readouterr()
        assert main(["report", "T-TINY", "-o", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "regression" in err
        assert "n_triples" in err

    def test_explicit_baseline_flag(self, tiny_id, tmp_path, capsys):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["report", "T-TINY", "-o", str(first)]) == 0
        assert (
            main(
                [
                    "report",
                    "T-TINY",
                    "-o",
                    str(second),
                    "--baseline",
                    str(first / "report_t_tiny.json"),
                ]
            )
            == 0
        )
        assert "no regressions" in capsys.readouterr().out

    def test_report_leaves_observability_disabled(self, tiny_id, tmp_path):
        from repro import obs

        assert not obs.enabled()
        assert main(["report", "T-TINY", "-o", str(tmp_path)]) == 0
        assert not obs.enabled()
