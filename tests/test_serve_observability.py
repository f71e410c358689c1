"""The HTTP transport's observability surfaces and hardened edges.

Covers the PR's satellite contracts: request-id headers on every
response (including across keep-alive reuse), unknown query parameters
ignored, trailing-slash route normalization with a counted 404,
``/metrics`` as parseable Prometheus exposition, ``/statusz`` burn
signals under degradation, the HTTP client's transport-failure paths,
and metric exactness under concurrent server threads.
"""

import socket
import threading

import pytest

from repro.core.graph import KnowledgeGraph
from repro.core.ontology import Ontology
from repro.obs import enabled_scope, get_registry
from repro.serve.admission import AdmissionController
from repro.serve.context import REQUEST_ID_HEADER
from repro.serve.server import HTTPClient, start_server
from repro.serve.service import KGService


def build_graph(n=20):
    ontology = Ontology()
    ontology.add_class("Thing")
    graph = KnowledgeGraph(ontology=ontology, name="obstest")
    for index in range(n):
        graph.add_entity(f"e{index}", f"Node {index}", "Thing")
        graph.add(f"e{index}", "color", "red" if index % 2 else "blue")
    return graph


def make_service(admission=None, trace_sample=0.0):
    service = KGService(admission=admission, trace_sample=trace_sample)
    service.publish(build_graph())
    return service


@pytest.fixture
def served():
    """A served service + client; yields (service, client, server)."""
    service = make_service()
    server, _thread = start_server(service, port=0)
    client = HTTPClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield service, client, server
    finally:
        server.shutdown()


class TestRequestIdHeader:
    def test_every_endpoint_carries_a_request_id(self, served):
        _service, client, _server = served
        for call in (
            lambda: client.lookup("e0", "color"),
            lambda: client.ask("Node 0", "color"),
            lambda: client.query([["?s", "color", "?c"]]),
            lambda: client._get("/healthz", {}),
            lambda: client.stats(),
            lambda: client.statusz(),
            lambda: client._get("/nope", {}),          # 404
            lambda: client.lookup("", ""),             # 400
        ):
            call()
            assert client.last_request_id, "response missing X-Repro-Request-Id"
        client.metrics_text()
        assert client.last_request_id

    def test_supplied_id_is_echoed(self, served):
        _service, client, _server = served
        status, headers, _raw = client._roundtrip(
            "GET", "/lookup?subject=e0&predicate=color",
            None, {REQUEST_ID_HEADER: "req-mine-0001"},
        )
        assert status == 200
        assert headers.get(REQUEST_ID_HEADER) == "req-mine-0001"

    def test_minted_ids_do_not_leak_across_keepalive(self, served):
        """One handler serves many keep-alive requests; each must get a
        fresh id, not the first request's memoized one."""
        _service, client, _server = served
        ids = []
        for _ in range(3):
            client.lookup("e0", "color")
            ids.append(client.last_request_id)
        assert len(set(ids)) == 3


class TestUnknownParams:
    def test_timeout_s_is_ignored_like_any_unknown_param(self, served):
        """There is no per-request deadline: ``timeout_s`` (even a
        malformed one) is an unknown parameter, and unknown parameters
        leave the answer as it is."""
        _service, client, _server = served
        expected = client.lookup("e0", "color")[1]["payload"]
        for extra in ({"timeout_s": "abc"}, {"timeout_s": "0.000001"}, {"colour": "x"}):
            code, body = client._get("/lookup", {"subject": "e0", "predicate": "color", **extra})
            assert code == 200
            assert body["payload"] == expected


class TestRouteNormalization:
    def test_trailing_slash_resolves(self, served):
        _service, client, _server = served
        code, _body = client._get("/lookup/", {"subject": "e0", "predicate": "color"})
        assert code == 200
        code, _body = client._send(
            "POST", "/query/",
            data=b'{"patterns": [["?s", "color", "?c"]]}',
            headers={"Content-Type": "application/json"},
        )
        assert code == 200

    def test_unknown_routes_404_and_count(self, served):
        _service, client, _server = served
        with enabled_scope():
            assert client._get("/definitely-not-a-route", {})[0] == 404
            assert client._send("POST", "/lookup", data=b"{}")[0] == 404
            assert client._get("/", {})[0] == 404
            assert get_registry().counter("serve.http.404").value == 3


class TestMetricsEndpoint:
    def test_prometheus_exposition_parses_with_route_series(self, served):
        _service, client, _server = served
        with enabled_scope():
            client.lookup("e0", "color")
            client.query([["?s", "color", "?c"]])
            text = client.metrics_text()
        families = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                if line.startswith("# TYPE "):
                    _hash, _type, name, kind = line.split()
                    families[name] = kind
                continue
            # Every sample line is "name[{labels}] value" with a float value.
            name_part, value = line.rsplit(" ", 1)
            float(value)
            assert name_part.startswith("repro_")
        assert families.get("repro_serve_requests") == "counter"
        assert families.get("repro_serve_route_lookup_requests") == "counter"
        assert families.get("repro_serve_route_lookup_seconds") == "histogram"
        assert 'repro_serve_route_query_seconds_bucket{le="' in text
        assert "repro_serve_route_query_seconds_count 1" in text

    def test_metrics_endpoint_works_with_obs_disabled(self, served):
        _service, client, _server = served
        text = client.metrics_text()
        assert isinstance(text, str)  # empty registry renders, not crashes


class TestStatusz:
    def test_statusz_shape(self, served):
        _service, client, _server = served
        code, body = client.statusz()
        assert code == 200
        assert body["degradation_level"] == "normal"
        assert body["observability_enabled"] is False
        assert set(body["slo"]["routes"]) >= {"lookup", "paths", "query", "ask"}

    def test_burn_flips_under_degradation(self):
        """Shedding traffic must push the SLO burn rate over 1.0."""
        admission = AdmissionController(rate=10_000.0, max_concurrent=1)
        service = make_service(admission=admission)
        server, _thread = start_server(service, port=0)
        client = HTTPClient(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            with enabled_scope():
                occupied = admission.admit("lookup")
                assert occupied.admitted
                try:
                    for index in range(5):
                        code, _body = client.lookup(f"e{index}", "color")
                        assert code == 429
                finally:
                    admission.release()
                _code, body = client.statusz()
            slo = body["slo"]
            lookup = slo["routes"]["lookup"]
            assert lookup["shed"] >= 5
            assert lookup["budget_burn_rate"] > 1.0
            assert slo["burning"] is True and slo["worst_burn_rate"] > 1.0
        finally:
            server.shutdown()


class TestHTTPClientTransport:
    def test_connection_refused_is_599(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        client = HTTPClient(f"http://127.0.0.1:{port}", timeout_s=1.0)
        code, body = client.lookup("e0", "color")
        assert code == 599
        assert "transport" in body["error"]
        assert client.last_request_id is None

    def test_non_json_error_body_surfaces_as_error_dict(self):
        """A proxy error page (text/html, non-JSON) must not raise."""
        payload = b"<html>bad gateway</html>"
        response = (
            b"HTTP/1.1 502 Bad Gateway\r\n"
            b"Content-Type: text/html\r\n"
            + f"Content-Length: {len(payload)}\r\n".encode()
            + b"Connection: close\r\n\r\n"
            + payload
        )
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve_once():
            connection, _addr = listener.accept()
            connection.recv(65536)
            connection.sendall(response)
            connection.close()

        thread = threading.Thread(target=serve_once, daemon=True)
        thread.start()
        try:
            client = HTTPClient(f"http://127.0.0.1:{port}", timeout_s=2.0)
            code, body = client.lookup("e0", "color")
            assert code == 502
            assert body == {"error": "<html>bad gateway</html>"}
        finally:
            thread.join(timeout=2.0)
            listener.close()

    def test_client_recovers_after_server_restart(self):
        service = make_service()
        server, _thread = start_server(service, port=0)
        port = server.server_address[1]
        client = HTTPClient(f"http://127.0.0.1:{port}", timeout_s=2.0)
        assert client.lookup("e0", "color")[0] == 200
        server.shutdown()
        server.server_close()
        # shutdown() stops the accept loop; an established keep-alive
        # connection keeps serving until it closes, so sever it to model
        # a hard restart.
        client._drop_connection()
        assert client.lookup("e0", "color")[0] == 599  # refused, not raised
        server2, _thread2 = start_server(make_service(), port=port)
        try:
            assert client.lookup("e0", "color")[0] == 200  # rebuilt connection
        finally:
            server2.shutdown()


class TestMetricsThreadSafety:
    def test_exact_counter_totals_under_concurrency(self):
        """N threads x M requests: counters must land on exactly N*M."""
        service = make_service(
            admission=AdmissionController(rate=1_000_000.0, max_concurrent=64)
        )
        server, _thread = start_server(service, port=0)
        url = f"http://127.0.0.1:{server.server_address[1]}"
        n_threads, per_thread = 6, 25
        codes = []
        lock = threading.Lock()
        try:
            with enabled_scope():

                def hammer():
                    client = HTTPClient(url)
                    for index in range(per_thread):
                        code, _body = client.lookup(f"e{index % 20}", "color")
                        with lock:
                            codes.append(code)

                threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                registry = get_registry()
                total = n_threads * per_thread
                assert registry.counter("serve.requests").value == total
                assert registry.counter("serve.route.lookup.requests").value == total
                assert (
                    registry.histogram("serve.route.lookup.seconds").summary()["count"]
                    == total
                )
        finally:
            server.shutdown()
        assert len(codes) == n_threads * per_thread
        assert all(code == 200 for code in codes)
