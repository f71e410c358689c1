"""The serving spine end-to-end: router semantics, HTTP transport, overload."""

import json
import socket
import threading
import urllib.parse

import pytest

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.serve.admission import AdmissionController
from repro.serve.context import AccessLog
from repro.serve.router import MAX_PATH_LENGTH
from repro.serve.server import HTTPClient, InProcessClient, start_server
from repro.serve.service import KGService


class StubLM:
    """A fully familiar, always-answering LM (the shed-path foil)."""

    def __init__(self, text="lm-answer"):
        self.text = text
        self.calls = 0

    def familiarity(self, name, predicate):
        return 100.0

    def answer(self, name, predicate):
        self.calls += 1

        class _Reply:
            abstained = False
            text = self.text

        return _Reply()


def build_graph():
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="servetest")
    for index in range(10):
        graph.add_entity(f"e{index}", f"Node {index}", "Thing")
    for index in range(9):
        graph.add(f"e{index}", "next_to", f"e{index + 1}")
    graph.add("e0", "color", "red")
    graph.add("e1", "color", "blue")
    return graph


def make_service(model=None, admission=None, n_shards=1):
    service = KGService(n_shards=n_shards, admission=admission, model=model)
    service.publish(build_graph())
    return service


class TestRoutes:
    def test_lookup_by_id_and_name(self):
        client = InProcessClient(make_service())
        code, body = client.lookup("e0", "color")
        assert code == 200 and body["payload"]["values"] == ["red"]
        code, body = client.lookup("Node 0", "color")
        assert code == 200 and body["payload"]["values"] == ["red"]

    def test_lookup_renders_entity_objects_as_names(self):
        client = InProcessClient(make_service())
        _code, body = client.lookup("e0", "next_to")
        assert body["payload"]["values"] == ["Node 1"]

    def test_paths(self):
        client = InProcessClient(make_service())
        code, body = client.paths("e0", "e2", max_length=3)
        assert code == 200 and body["payload"]["n_paths"] >= 1
        code, body = client.paths("e0", "e6", max_length=MAX_PATH_LENGTH)
        assert code == 200 and body["payload"]["n_paths"] == 1

    def test_query(self):
        client = InProcessClient(make_service())
        code, body = client.query([["?s", "color", "?c"]])
        assert code == 200 and body["payload"]["n_bindings"] == 2

    def test_ask_without_model_is_kg_only(self):
        client = InProcessClient(make_service(model=None))
        code, body = client.ask("Node 0", "color")
        assert code == 200
        assert body["payload"] == {
            "subject": "Node 0",
            "predicate": "color",
            "answer": "red",
            "origin": "kg",
            "lm_shed": True,
        }

    def test_ask_with_model_takes_lm_path(self):
        model = StubLM()
        client = InProcessClient(make_service(model=model))
        _code, body = client.ask("Node 5", "color")  # no triple: LM answers
        assert body["payload"]["origin"] == "lm"
        assert model.calls >= 1

    def test_bad_requests(self):
        client = InProcessClient(make_service())
        assert client.lookup("", "color")[0] == 400
        assert client.paths("e0", "")[0] == 400
        code, body = client.paths("e0", "e7", max_length=MAX_PATH_LENGTH + 1)
        assert code == 400 and str(MAX_PATH_LENGTH) in body["payload"]["error"]
        assert client.query([])[0] == 400
        assert client.query([["only", "two"]])[0] == 400
        assert client.ask("", "")[0] == 400

    def test_unavailable_before_first_publish(self):
        service = KGService()
        client = InProcessClient(service)
        assert client.lookup("e0", "color")[0] == 503

    def test_responses_cached_on_repeat(self):
        client = InProcessClient(make_service())
        first = client.lookup("e0", "color")[1]
        second = client.lookup("e0", "color")[1]
        assert not first["cached"] and second["cached"]
        assert first["payload"] == second["payload"]

    def test_publish_invalidates_cached_responses(self):
        service = make_service()
        client = InProcessClient(service)
        client.lookup("e0", "color")
        assert client.lookup("e0", "color")[1]["cached"]

        graph = build_graph()
        graph.add("e0", "color", "green")
        service.publish(graph)

        _code, body = client.lookup("e0", "color")
        assert not body["cached"]
        assert body["snapshot_version"] == 2
        assert sorted(body["payload"]["values"]) == ["green", "red"]


class TestDegradation:
    def drained_admission(self, **kwargs):
        admission = AdmissionController(rate=0.001, burst=1.0, **kwargs)
        admission.bucket.try_acquire()  # empty the bucket: level 2 from now on
        return admission

    def test_shed_lm_keeps_answering_from_kg(self):
        model = StubLM()
        service = make_service(model=model, admission=self.drained_admission())
        client = InProcessClient(service)
        code, body = client.ask("Node 0", "color")
        assert code == 200
        assert body["payload"]["lm_shed"] is True
        assert body["payload"]["origin"] == "kg"
        assert model.calls == 0

    def test_shed_ask_does_not_poison_cache(self):
        """A degraded KG-only ask must not be served to healthy requests."""
        model = StubLM()
        admission = AdmissionController(rate=100.0, burst=50.0)
        service = make_service(model=model, admission=admission)
        client = InProcessClient(service)

        # Drain to stale level: the ask is answered KG-only, uncached.
        while admission.bucket.fill_fraction() > 0.05:
            admission.bucket.try_acquire()
        _code, degraded = client.ask("Node 5", "color")
        assert degraded["payload"]["lm_shed"] is True

        # Refill: a healthy request recomputes through the LM path.
        admission.bucket._tokens = admission.bucket.capacity
        _code, healthy = client.ask("Node 5", "color")
        assert healthy["payload"]["lm_shed"] is False
        assert healthy["payload"]["origin"] == "lm"
        assert not healthy["cached"]

    def test_stale_cache_served_when_degraded(self):
        admission = AdmissionController(rate=100.0, burst=50.0)
        service = make_service(admission=admission)
        client = InProcessClient(service)
        client.lookup("e0", "color")  # warm the cache while healthy

        graph = build_graph()
        graph.add("e0", "color", "green")
        service.publish(graph)  # cache entry is now one version behind

        while admission.bucket.fill_fraction() > 0.05:
            admission.bucket.try_acquire()
        code, body = client.lookup("e0", "color")
        assert code == 200
        assert body["degraded"] == "stale"
        assert body["payload"]["values"] == ["red"]  # yesterday's answer

    def test_queue_full_sheds_with_429_not_5xx(self):
        admission = AdmissionController(rate=10_000.0, max_concurrent=1)
        service = make_service(admission=admission)
        client = InProcessClient(service)
        blocker = admission.admit("lookup")  # occupy the only slot
        assert blocker.admitted
        try:
            code, body = client.lookup("e5", "color")
            assert code == 429
            assert body["status"] == "shed"
        finally:
            admission.release()

    def test_rejected_request_prefers_stale_answer(self):
        admission = AdmissionController(rate=10_000.0, max_concurrent=1)
        service = make_service(admission=admission)
        client = InProcessClient(service)
        client.lookup("e0", "color")  # warm
        occupied = admission.admit("lookup")
        assert occupied.admitted
        try:
            code, body = client.lookup("e0", "color")
            assert code == 200
            assert body["degraded"] == "stale"
        finally:
            admission.release()

    def test_handler_bugs_become_500_not_raise(self, monkeypatch):
        service = make_service()
        client = InProcessClient(service)
        monkeypatch.setattr(
            service.router,
            "_compute_lookup",
            lambda *args, **kwargs: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        code, body = client.lookup("e0", "color")
        assert code == 500
        assert "boom" in body["payload"]["error"]


class TestHTTPServer:
    @pytest.fixture()
    def http(self):
        service = make_service(model=StubLM())
        server, _thread = start_server(service, port=0)
        try:
            yield HTTPClient(f"http://127.0.0.1:{server.server_address[1]}")
        finally:
            server.shutdown()

    def test_all_four_endpoints(self, http):
        code, body = http.lookup("e0", "color")
        assert code == 200 and body["payload"]["values"] == ["red"]
        code, body = http.paths("e0", "e2")
        assert code == 200 and body["payload"]["n_paths"] >= 1
        code, body = http.query([["?s", "color", "?c"]])
        assert code == 200 and body["payload"]["n_bindings"] == 2
        code, body = http.ask("Node 0", "color")
        assert code == 200 and body["payload"]["answer"]

    def test_http_matches_in_process(self):
        service = make_service()
        server, _thread = start_server(service, port=0)
        try:
            http = HTTPClient(f"http://127.0.0.1:{server.server_address[1]}")
            local = InProcessClient(service)
            for call in (
                lambda c: c.lookup("e0", "color"),
                lambda c: c.query([["?s", "color", "?c"]]),
                lambda c: c.paths("e0", "e2"),
                lambda c: c.ask("Node 0", "color"),
            ):
                code_http, body_http = call(http)
                code_local, body_local = call(local)
                body_http.pop("elapsed_ms")
                body_local.pop("elapsed_ms")
                # The HTTP pass may hit cache entries the local pass warmed.
                body_http.pop("cached")
                body_local.pop("cached")
                assert (code_http, body_http) == (code_local, body_local)
        finally:
            server.shutdown()

    def test_shed_and_bad_request_match_across_transports(self, tmp_path):
        """One bracket for both transports: a shed (429) and a bad request
        (400) get the same status, body and access-log fields."""
        admission = AdmissionController(rate=10_000.0, max_concurrent=1)
        service = make_service(admission=admission)
        server, _thread = start_server(service, port=0)
        transports = {
            "http": HTTPClient(f"http://127.0.0.1:{server.server_address[1]}"),
            "local": InProcessClient(service),
        }
        calls = (
            (lambda c: c.lookup("", "color"), 400),
            (lambda c: c.lookup("e5", "color"), 429),  # uncached: no stale answer
            (lambda c: c.query([["?s", "color"]]), 400),
            (lambda c: c.ask("Node 1", "color"), 429),
        )
        results = {}
        try:
            blocker = admission.admit("lookup")  # hold the only slot
            assert blocker.admitted
            for name, client in transports.items():
                service.access_log = AccessLog(str(tmp_path / f"{name}.jsonl"))
                replies = []
                for call, expected in calls:
                    code, body = call(client)
                    assert code == expected
                    body.pop("elapsed_ms")
                    replies.append((code, body))
                service.access_log.close()
                with open(tmp_path / f"{name}.jsonl", encoding="utf-8") as handle:
                    lines = [json.loads(line) for line in handle]
                logged = [(line["route"], line["status"], line["http_status"]) for line in lines]
                results[name] = (replies, logged)
        finally:
            admission.release()
            server.shutdown()
        assert results["http"] == results["local"]
        assert results["local"][1] == [
            ("lookup", "bad_request", 400),
            ("lookup", "shed", 429),
            ("query", "bad_request", 400),
            ("ask", "shed", 429),
        ]

    def test_bad_request_and_unknown_route(self, http):
        assert http.lookup("", "")[0] == 400
        assert http.paths("e0", "e2", max_length=99)[0] == 400
        code, body = http._get("/nope", {})
        assert code == 404

    def test_healthz_and_stats(self, http):
        code, body = http._get("/healthz", {})
        assert code == 200 and body["ok"] is True
        code, stats = http.stats()
        assert code == 200
        assert stats["snapshot"]["version"] == 1
        assert "cache" in stats and "admission" in stats

    def test_buildz_serves_build_progress(self, http):
        code, body = http.buildz()
        assert code == 200
        assert body["build"]["active"] is False
        assert "items_done" in body["build"]
        # HTTP and in-process views agree (build state is process-global).
        service = make_service()
        assert set(body) == set(InProcessClient(service).buildz()[1])

    def test_malformed_query_body_is_400(self, http):
        code, body = http._send(
            "POST",
            "/query",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        assert code == 400

    @pytest.mark.parametrize(
        "content_length, expected",
        [("abc", 400), ("-1", 400), ("99999999999", 413)],
    )
    def test_hostile_content_length_gets_a_status(self, http, content_length, expected):
        """A bad header is refused within a second, body unread — it must
        not raise in, block, or exhaust the handler thread."""
        address = urllib.parse.urlsplit(http.base_url)
        with socket.create_connection((address.hostname, address.port), timeout=1.0) as raw:
            raw.sendall(
                b"POST /query HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {content_length}\r\n\r\n".encode("ascii")
            )
            status_line = raw.makefile("rb").readline().decode("ascii")
        assert status_line.startswith(f"HTTP/1.1 {expected} ")
        # The server is still answering, on a fresh connection.
        code, body = http.query([["?s", "color", "?c"]])
        assert code == 200 and body["payload"]["n_bindings"] == 2

    def test_concurrent_http_load_zero_5xx(self):
        """Hammer the HTTP server from threads; nothing may 5xx."""
        service = make_service(
            admission=AdmissionController(rate=50.0, burst=20.0, max_concurrent=4)
        )
        server, _thread = start_server(service, port=0)
        codes = []
        lock = threading.Lock()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"

            def hammer():
                http = HTTPClient(url)
                for index in range(30):
                    code, _body = http.lookup(f"e{index % 10}", "color")
                    with lock:
                        codes.append(code)

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            server.shutdown()
        assert len(codes) == 180
        assert all(code < 500 for code in codes)
        assert any(code == 200 for code in codes)
