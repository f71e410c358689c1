"""Request-scoped observability: ids, propagation, sampling, access logs."""

import json

import pytest

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.obs import enabled_scope, get_tracer
from repro.obs.tracing import NULL_SPAN, Tracer, span as obs_span
from repro.serve import context as serve_context
from repro.serve.admission import AdmissionController
from repro.serve.context import (
    AccessLog,
    RequestContext,
    new_request_id,
    request_scope,
    tag_request,
    trace_sample_rate,
)
from repro.serve.server import InProcessClient
from repro.serve.service import KGService


@pytest.fixture
def obs_on():
    """Enable observability with a clean tracer/registry; restore after."""
    with enabled_scope():
        yield


def build_graph(n=20):
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="ctxtest")
    for index in range(n):
        graph.add_entity(f"e{index}", f"Node {index}", "Thing")
        graph.add(f"e{index}", "color", "red" if index % 2 else "blue")
    return graph


def make_service(n_shards=1, admission=None, trace_sample=None, access_log=None):
    service = KGService(
        n_shards=n_shards,
        admission=admission,
        trace_sample=trace_sample,
        access_log=access_log,
    )
    service.publish(build_graph())
    return service


class TestRequestIds:
    def test_ids_are_unique_and_header_safe(self):
        ids = {new_request_id() for _ in range(1000)}
        assert len(ids) == 1000
        for rid in list(ids)[:10]:
            assert rid.startswith("req-")
            assert rid == rid.strip() and " " not in rid

    def test_supplied_id_is_kept(self):
        context = RequestContext("lookup", request_id="req-caller-chose")
        assert context.request_id == "req-caller-chose"

    def test_sample_rate_env_parsing(self, monkeypatch):
        monkeypatch.setenv(serve_context.TRACE_SAMPLE_ENV, "0.5")
        assert trace_sample_rate() == 0.5
        monkeypatch.setenv(serve_context.TRACE_SAMPLE_ENV, "7")
        assert trace_sample_rate() == 1.0  # clamped
        monkeypatch.setenv(serve_context.TRACE_SAMPLE_ENV, "not-a-float")
        assert trace_sample_rate() == serve_context.DEFAULT_TRACE_SAMPLE
        monkeypatch.delenv(serve_context.TRACE_SAMPLE_ENV)
        assert trace_sample_rate() == serve_context.DEFAULT_TRACE_SAMPLE

    def test_explicit_rate_overrides_env(self, monkeypatch):
        monkeypatch.setenv(serve_context.TRACE_SAMPLE_ENV, "0.0")
        assert RequestContext("lookup", sample_rate=1.0).sampled is True
        monkeypatch.setenv(serve_context.TRACE_SAMPLE_ENV, "1.0")
        assert RequestContext("lookup", sample_rate=0.0).sampled is False


class TestPropagation:
    def test_no_context_outside_scope(self):
        assert serve_context.current_context() is None
        tag_request("ignored", 1)  # no-op, no error

    def test_scope_installs_and_removes_context(self):
        with request_scope("lookup", sample_rate=0.0) as context:
            assert serve_context.current_context() is context
            assert context.route == "lookup"
        assert serve_context.current_context() is None

    def test_reentrant_scope_reuses_outer_context(self):
        with request_scope("lookup", sample_rate=0.0) as outer:
            with request_scope("ask", sample_rate=1.0) as inner:
                assert inner is outer
            # Inner exit must not tear down the outer context.
            assert serve_context.current_context() is outer

    def test_tags_buffer_on_context(self, obs_on):
        with request_scope("lookup", sample_rate=0.0) as context:
            tag_request("cache", "hit")
            tag_request("admission.level", "healthy")
        assert context.tags == {"cache": "hit", "admission.level": "healthy"}


class TestSampling:
    def test_sampled_request_flushes_span_tree(self, obs_on):
        client = InProcessClient(make_service(trace_sample=1.0))
        code, _body = client.lookup("e0", "color")
        assert code == 200
        spans = get_tracer().spans()
        names = [span.name for span in spans]
        assert "serve.request" in names and "serve.lookup" in names
        root = next(span for span in spans if span.name == "serve.request")
        child = next(span for span in spans if span.name == "serve.lookup")
        assert root.trace_id == client.last_request_id
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        assert root.tags["status"] == "ok"
        assert root.tags["http_status"] == 200

    def test_unsampled_ok_request_flushes_nothing(self, obs_on):
        client = InProcessClient(make_service(trace_sample=0.0))
        get_tracer().reset()  # drop the publish span
        code, _body = client.lookup("e0", "color")
        assert code == 200
        assert get_tracer().spans() == []

    def test_unsampled_spans_are_null_inside_scope(self, obs_on):
        with request_scope("lookup", sample_rate=0.0):
            with obs_span("serve.child") as span_:
                assert span_ is NULL_SPAN

    def test_shed_request_is_force_sampled_with_tags(self, obs_on):
        admission = AdmissionController(rate=10_000.0, max_concurrent=1)
        service = make_service(admission=admission, trace_sample=0.0)
        get_tracer().reset()  # drop the publish span
        client = InProcessClient(service)
        blocker = admission.admit("lookup")
        assert blocker.admitted
        try:
            # e5/color is uncached: no stale fallback, the request sheds.
            code, _body = client.lookup("e5", "color")
        finally:
            admission.release()
        assert code == 429
        spans = get_tracer().spans()
        assert [span.name for span in spans] == ["serve.request"]
        root = spans[0]
        # The synthesized root carries the buffered tags and real timing.
        assert root.tags["status"] == "shed"
        assert root.tags["http_status"] == 429
        assert root.tags["admission.reason"] == "queue_full"
        assert root.trace_id == client.last_request_id

    def test_error_request_is_force_sampled(self, obs_on, monkeypatch):
        service = make_service(trace_sample=0.0)
        client = InProcessClient(service)
        monkeypatch.setattr(
            service.router,
            "_compute_lookup",
            lambda *args, **kwargs: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        code, _body = client.lookup("e0", "color")
        assert code == 500
        roots = get_tracer().spans("serve.request")
        assert len(roots) == 1
        assert roots[0].tags["http_status"] == 500

    def test_exception_escaping_the_scope_is_kept(self, obs_on):
        with pytest.raises(RuntimeError):
            with request_scope("lookup", sample_rate=0.0):
                raise RuntimeError("edge bug")
        roots = get_tracer().spans("serve.request")
        assert len(roots) == 1
        assert roots[0].tags["status"] == "error"
        assert "edge bug" in roots[0].tags["error"]

    def test_obs_disabled_buffers_and_flushes_nothing(self):
        client = InProcessClient(make_service(trace_sample=1.0))
        code, _body = client.lookup("e0", "color")
        assert code == 200
        assert get_tracer().spans() == []


class TestOneRecorder:
    """Requests trace through the process tracer, or not at all."""

    def test_request_inside_an_open_span_starts_its_own_trace(self, obs_on):
        client = InProcessClient(make_service(trace_sample=1.0))
        with obs_span("experiment.X") as experiment:
            code, _body = client.lookup("e0", "color")
        assert code == 200
        spans = get_tracer().spans("serve.")
        root = next(span for span in spans if span.name == "serve.request")
        lookup = next(span for span in spans if span.name == "serve.lookup")
        assert root.parent_id is None
        assert root.trace_id == client.last_request_id
        assert lookup.parent_id == root.span_id
        assert not [span for span in spans if span.trace_id == experiment.trace_id]

    def test_obs_off_opens_no_span_and_fills_no_tags(self, monkeypatch):
        contexts = []

        class RecordingContext(RequestContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                contexts.append(self)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a request touched the tracer with obs off")

        monkeypatch.setattr(serve_context, "RequestContext", RecordingContext)
        monkeypatch.setattr(Tracer, "start_span", refuse)
        monkeypatch.setattr(Tracer, "mute", refuse)
        client = InProcessClient(make_service(trace_sample=1.0))
        for index in range(200):
            code, _body = client.lookup(f"e{index % 20}", "color")
            assert code == 200
        assert len(contexts) == 200
        assert all(context.tags == {} for context in contexts)

    def test_unsampled_scope_always_pops_its_mute(self, obs_on):
        tracer = get_tracer()
        client = InProcessClient(make_service(trace_sample=0.0))
        assert tracer.current_span() is None
        client.lookup("e0", "color")
        assert tracer.current_span() is None
        with obs_span("outer") as outer:
            with pytest.raises(RuntimeError):
                with request_scope("lookup", sample_rate=0.0):
                    assert tracer.current_span() is NULL_SPAN
                    raise RuntimeError("body failed")
            assert tracer.current_span() is outer
        assert tracer.current_span() is None

    def test_service_resolves_the_sample_rate_once(self, monkeypatch):
        monkeypatch.setenv(serve_context.TRACE_SAMPLE_ENV, "0.5")
        service = make_service()
        monkeypatch.setenv(serve_context.TRACE_SAMPLE_ENV, "0.9")
        assert service.statusz()["trace_sample"] == 0.5

        def refuse():
            raise AssertionError("a request re-read the sample rate")

        monkeypatch.setattr(serve_context, "trace_sample_rate", refuse)
        client = InProcessClient(service)
        assert client.lookup("e0", "color")[0] == 200
        assert client.query([["?s", "color", "?c"]])[0] == 200
        assert service.statusz()["trace_sample"] == 0.5


class TestShardFanOut:
    def test_sampled_scatter_query_records_no_shard_spans(self, obs_on):
        """One probe on the snapshot's graph: the route span hangs off the
        root and no per-shard child span is opened, at any shard count."""
        client = InProcessClient(make_service(n_shards=3, trace_sample=1.0))
        code, body = client.query([["?s", "color", "?c"]])
        assert code == 200 and body["payload"]["n_bindings"] > 0
        spans = [
            span for span in get_tracer().spans() if span.trace_id == client.last_request_id
        ]
        root = next(span for span in spans if span.name == "serve.request")
        route = next(span for span in spans if span.name == "serve.query")
        assert route.parent_id == root.span_id
        assert not [span for span in get_tracer().spans() if span.name.startswith("serve.shard.")]

    def test_unsampled_fanout_records_no_shard_spans(self, obs_on):
        client = InProcessClient(make_service(n_shards=3, trace_sample=0.0))
        get_tracer().reset()  # drop the publish span
        code, _body = client.query([["?s", "color", "?c"]])
        assert code == 200
        assert get_tracer().spans() == []


class TestAccessLog:
    def read_lines(self, path):
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    def test_logs_every_request_at_full_sample(self, tmp_path):
        log = AccessLog(str(tmp_path / "access.jsonl"))
        client = InProcessClient(make_service(trace_sample=0.0, access_log=log))
        client.lookup("e0", "color")
        client.lookup("", "")  # bad_request
        lines = self.read_lines(log.path)
        assert log.n_written == 2 and len(lines) == 2
        ok, bad = lines
        assert ok["route"] == "lookup" and ok["http_status"] == 200
        assert ok["status"] == "ok" and ok["latency_ms"] >= 0
        assert ok["request_id"].startswith("req-")
        assert bad["http_status"] == 400

    def test_zero_sample_keeps_only_shed_and_errors(self, tmp_path):
        log = AccessLog(str(tmp_path / "access.jsonl"), sample=0.0)
        admission = AdmissionController(rate=10_000.0, max_concurrent=1)
        service = make_service(admission=admission, access_log=log, trace_sample=0.0)
        client = InProcessClient(service)
        client.lookup("e0", "color")  # ok: dropped by the sample
        blocker = admission.admit("lookup")
        assert blocker.admitted
        try:
            client.lookup("e5", "color")  # shed: always logged
        finally:
            admission.release()
        lines = self.read_lines(log.path)
        assert [line["http_status"] for line in lines] == [429]
        assert lines[0]["status"] == "shed"
        log.close()
