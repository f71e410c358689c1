"""Transports: a stdlib ``ThreadingHTTPServer`` JSON API + clients.

The HTTP layer is deliberately thin — all policy (admission, caching,
degradation) lives in the router, so the in-process client and the HTTP
server return byte-identical JSON bodies and status codes.  That is what
lets the load generator drive either transport and lets the CI smoke job
assert the same contract over real sockets.

Endpoints::

    GET  /healthz                              -> {"ok": true, ...}
    GET  /stats                                -> service stats + entity sample
    GET  /statusz                              -> SLO summary + degradation level
    GET  /metrics                              -> Prometheus exposition (text)
    GET  /lookup?subject=S&predicate=P
    GET  /paths?start=A&goal=B[&max_length=3 (at most 6)][&max_paths=25]
    GET  /ask?subject=S&predicate=P
    POST /query   {"patterns": [["?m", "directed_by", "P0001"], ...]}

Status mapping: ``ok``→200, ``bad_request``→400, ``shed``→429,
``unavailable``→503, ``error``→500 (the overload tests assert zero).

Every response carries an ``X-Repro-Request-Id`` header — echoed when the
caller supplied one, minted otherwise — and the four serving routes run
through :meth:`KGService.handle`, the one request bracket, so the id keys
the request's span tree and access-log line across both transports.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.export import render_prometheus
from repro.serve import context as serve_context
from repro.serve.context import REQUEST_ID_HEADER
from repro.serve.service import KGService

#: JSON body + HTTP status, the shape both clients return.
ClientResult = Tuple[int, Dict[str, object]]

#: Largest POST body the server will read.  ``/query`` bodies are a list
#: of patterns (a few hundred bytes); anything bigger is refused unread.
MAX_BODY_BYTES = 1 << 20


def _make_handler(service: KGService):
    """A request-handler class bound to one service instance."""

    class ServeHandler(BaseHTTPRequestHandler):
        # HTTP/1.1 keep-alive: every response already carries an exact
        # Content-Length, and a persistent connection saves a TCP
        # handshake plus a ThreadingHTTPServer thread spawn per request —
        # the dominant (and noisiest) share of the measured round trip.
        protocol_version = "HTTP/1.1"

        # Nagle + delayed ACK turns the header/body write pair into a
        # ~40ms stall per keep-alive request; flush segments immediately.
        disable_nagle_algorithm = True

        # Quiet: serving benchmarks must not pay for stderr logging.
        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        # ---- helpers -------------------------------------------------

        def _request_id(self) -> str:
            """The caller-supplied request id, minting one if absent."""
            rid = getattr(self, "_rid", None)
            if rid is None:
                rid = self.headers.get(REQUEST_ID_HEADER) or serve_context.new_request_id()
                self._rid = rid
            return rid

        def _begin_request(self) -> None:
            """Per-request reset: one handler serves many keep-alive
            requests, so the memoized id must not leak across them."""
            self._rid = None

        def _write_json(self, status: int, body: Dict[str, object]) -> None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.send_header(REQUEST_ID_HEADER, self._request_id())
            self.end_headers()
            self.wfile.write(data)

        def _write_text(self, status: int, text: str, content_type: str) -> None:
            data = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.send_header(REQUEST_ID_HEADER, self._request_id())
            self.end_headers()
            self.wfile.write(data)

        def _params(self) -> Dict[str, str]:
            query = urllib.parse.urlparse(self.path).query
            return {
                key: values[0]
                for key, values in urllib.parse.parse_qs(query).items()
                if values
            }

        def _serve_route(self, route: str, **params) -> None:
            response, _ = service.handle(route, request_id=self._request_id(), **params)
            self._write_json(response.http_status, response.to_dict())

        def _unknown_route(self, route: str) -> None:
            obs_metrics.count("serve.http.404")
            self._write_json(404, {"error": f"unknown route {route!r}"})

        # ---- verbs ---------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            self._begin_request()
            route = urllib.parse.urlparse(self.path).path.rstrip("/") or "/"
            params = self._params()
            if route == "/healthz":
                snapshot = service.store.current()
                self._write_json(
                    200 if snapshot is not None else 503,
                    {
                        "ok": snapshot is not None,
                        "snapshot_version": service.store.current_version(),
                    },
                )
            elif route == "/stats":
                self._write_json(200, service.stats())
            elif route == "/statusz":
                self._write_json(200, service.statusz())
            elif route == "/buildz":
                self._write_json(200, service.buildz())
            elif route == "/metrics":
                self._write_text(
                    200,
                    render_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif route == "/lookup":
                self._serve_route(
                    "lookup",
                    subject=params.get("subject", ""),
                    predicate=params.get("predicate", ""),
                )
            elif route == "/paths":
                try:
                    max_length = int(params.get("max_length", 3))
                    max_paths = int(params.get("max_paths", 25))
                except ValueError:
                    self._write_json(400, {"error": "max_length/max_paths must be integers"})
                    return
                self._serve_route(
                    "paths",
                    start=params.get("start", ""),
                    goal=params.get("goal", ""),
                    max_length=max_length,
                    max_paths=max_paths,
                )
            elif route == "/ask":
                self._serve_route(
                    "ask",
                    subject=params.get("subject", ""),
                    predicate=params.get("predicate", ""),
                )
            else:
                self._unknown_route(route)

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            self._begin_request()
            route = urllib.parse.urlparse(self.path).path.rstrip("/") or "/"
            raw_length = (self.headers.get("Content-Length") or "0").strip()
            refusal = None
            if not (raw_length.isascii() and raw_length.isdigit()):
                refusal = (
                    400,
                    f"Content-Length must be a non-negative integer, got {raw_length!r}",
                )
            elif int(raw_length) > MAX_BODY_BYTES:
                refusal = (413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            if refusal is not None:
                # The body stays unread, so the connection cannot carry
                # another request.
                self.close_connection = True
                self._write_json(refusal[0], {"error": refusal[1]})
                return
            length = int(raw_length)
            raw = self.rfile.read(length) if length else b"{}"
            try:
                body = json.loads(raw.decode("utf-8") or "{}")
            except (ValueError, UnicodeDecodeError):
                self._write_json(400, {"error": "request body must be JSON"})
                return
            if route == "/query":
                patterns = body.get("patterns") if isinstance(body, dict) else None
                self._serve_route("query", patterns=patterns or [])
            else:
                self._unknown_route(route)

    return ServeHandler


def start_server(
    service: KGService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[ThreadingHTTPServer, threading.Thread]:
    """Start the HTTP server on a daemon thread; returns (server, thread).

    ``port=0`` lets the OS pick a free port (``server.server_address[1]``
    holds the real one) — the shape tests and the CI smoke job use.
    Call ``server.shutdown()`` to stop.
    """
    server = ThreadingHTTPServer((host, port), _make_handler(service))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True, name="repro-serve")
    thread.start()
    return server, thread


# ---------------------------------------------------------------------------
# clients (one response contract, two transports)


class InProcessClient:
    """Drives the service directly; mirrors the HTTP JSON contract exactly.

    Each call goes through :meth:`KGService.handle`, the request bracket
    the HTTP transport uses, so traces, SLO windows, and access logs see
    identical request streams from either client.  ``last_request_id``
    holds the id of the most recent call (the in-process analogue of the
    HTTP header; the JSON body stays byte-identical across transports).
    """

    def __init__(self, service: KGService):
        self.service = service
        self.last_request_id: Optional[str] = None

    def _call(self, route: str, **params) -> ClientResult:
        response, self.last_request_id = self.service.handle(route, **params)
        return response.http_status, response.to_dict()

    def lookup(self, subject: str, predicate: str) -> ClientResult:
        return self._call("lookup", subject=subject, predicate=predicate)

    def paths(self, start: str, goal: str, max_length: int = 3, max_paths: int = 25
              ) -> ClientResult:
        return self._call(
            "paths", start=start, goal=goal, max_length=max_length, max_paths=max_paths
        )

    def query(self, patterns: Sequence[Sequence[object]]) -> ClientResult:
        return self._call("query", patterns=patterns)

    def ask(self, subject: str, predicate: str) -> ClientResult:
        return self._call("ask", subject=subject, predicate=predicate)

    def stats(self) -> ClientResult:
        return 200, self.service.stats()

    def statusz(self) -> ClientResult:
        return 200, self.service.statusz()

    def buildz(self) -> ClientResult:
        return 200, self.service.buildz()


class HTTPClient:
    """The same client surface over real sockets (stdlib only).

    Connections are persistent (HTTP/1.1 keep-alive) and thread-local:
    the load generator shares one client across worker threads, and a
    single shared socket would interleave concurrent request/response
    pairs.  A connection that errors is closed and rebuilt on the next
    call, so a restarted server just costs one 599.
    """

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        #: The ``X-Repro-Request-Id`` of the most recent response.
        self.last_request_id: Optional[str] = None
        parsed = urllib.parse.urlsplit(self.base_url)
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout_s
            )
            connection.connect()
            # Same Nagle/delayed-ACK stall on the POST side (headers and
            # body go out as separate writes).
            connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.connection = connection
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def _get(self, path: str, params: Dict[str, object]) -> ClientResult:
        query = urllib.parse.urlencode(
            {key: value for key, value in params.items() if value is not None}
        )
        return self._send("GET", path + (f"?{query}" if query else ""))

    def _post(self, path: str, body: Dict[str, object]) -> ClientResult:
        return self._send(
            "POST",
            path,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )

    def _send(
        self,
        method: str,
        path: str,
        data: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> ClientResult:
        status, reply_headers, raw = self._roundtrip(method, path, data, headers)
        if status == 599:
            self.last_request_id = None
            return 599, {"error": raw.decode("utf-8", "replace")}
        self.last_request_id = reply_headers.get(REQUEST_ID_HEADER)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            # A non-JSON body (a proxy error page, a crashed handler's
            # half-write) must surface as an error dict, not a raise.
            body = {"error": raw.decode("utf-8", "replace") or f"HTTP {status}"}
        if not isinstance(body, dict):
            body = {"error": f"non-object JSON body: {body!r}"}
        return status, body

    def _roundtrip(
        self,
        method: str,
        path: str,
        data: Optional[bytes],
        headers: Optional[Dict[str, str]],
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request over the thread's persistent connection.

        Returns ``(status, headers, raw_body)``; transport failures
        (refused, reset, timeout) come back as the 599 convention with
        the error text as the body rather than raising.
        """
        try:
            connection = self._connection()
            connection.request(method, path, body=data, headers=headers or {})
            reply = connection.getresponse()
            raw = reply.read()
            reply_headers = {key: value for key, value in reply.getheaders()}
            if reply.will_close:
                self._drop_connection()
            return reply.status, reply_headers, raw
        except (http.client.HTTPException, OSError) as error:
            self._drop_connection()
            return 599, {}, f"transport: {error}".encode("utf-8")

    def lookup(self, subject: str, predicate: str) -> ClientResult:
        return self._get("/lookup", {"subject": subject, "predicate": predicate})

    def paths(self, start: str, goal: str, max_length: int = 3, max_paths: int = 25
              ) -> ClientResult:
        return self._get(
            "/paths",
            {"start": start, "goal": goal, "max_length": max_length, "max_paths": max_paths},
        )

    def query(self, patterns: Sequence[Sequence[object]]) -> ClientResult:
        return self._post("/query", {"patterns": [list(p) for p in patterns]})

    def ask(self, subject: str, predicate: str) -> ClientResult:
        return self._get("/ask", {"subject": subject, "predicate": predicate})

    def stats(self) -> ClientResult:
        return self._get("/stats", {})

    def statusz(self) -> ClientResult:
        return self._get("/statusz", {})

    def buildz(self) -> ClientResult:
        return self._get("/buildz", {})

    def metrics_text(self) -> str:
        """The raw Prometheus exposition from ``/metrics`` (not JSON)."""
        status, headers, raw = self._roundtrip("GET", "/metrics", None, None)
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}: {raw[:200]!r}")
        self.last_request_id = headers.get(REQUEST_ID_HEADER)
        return raw.decode("utf-8")
