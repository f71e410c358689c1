"""Request-scoped observability: ids, propagation, sampling, access logs.

Every serving request gets a :class:`RequestContext` at the transport
edge — the HTTP handler reads (or mints) an ``X-Repro-Request-Id``
header, the in-process client mints one per call — and the context rides
a :mod:`contextvars` variable through admission, the cache and the
router, so every layer can tag the *same* request without threading
arguments through the stack.

Tracing is **per request** and goes through the process tracer
(:mod:`repro.obs.tracing`), the only span recorder: a request runs on one
thread from start to finish, so the tracer's thread-local stack follows
it.  :class:`request_scope` opens the request's ``serve.request`` root as
a new trace keyed by the request id iff the request is *sampled*, and
mutes the thread's tracer otherwise, so a request's tree is kept or
dropped as a whole:

* **head-based sampling** — the keep/drop decision is drawn when the
  context is created, at the service's rate (``KGService`` resolves it
  once from ``REPRO_TRACE_SAMPLE``, default 0.01, i.e. 1% of requests);
* **always-sample on shed/error** — a request that ends shed (429) or
  errored (5xx) gets a synthesized root with its tags and timing
  regardless of the head decision, so the traces an operator actually
  needs are never the ones sampling dropped.

Tracing and tagging (like all observability here) are active only under
``REPRO_OBS=1``; with it off a request opens no span and fills no tags.
The structured access log (:class:`AccessLog`) is off by default and
writes one JSON line per sampled request — again keeping every shed or
errored request regardless of its sample draw.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import random
import threading
import time
from typing import Dict, Optional, TextIO

from repro.obs._flags import FLAGS
from repro.obs.tracing import NULL_SPAN, Span, Tracer, get_tracer

#: The header carrying the request id in and out of the HTTP transport.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: Environment variable holding the head-based trace sample rate.
TRACE_SAMPLE_ENV = "REPRO_TRACE_SAMPLE"

#: Default fraction of requests whose span tree is kept.
DEFAULT_TRACE_SAMPLE = 0.01

#: Statuses that force-sample a request regardless of the head decision.
ALWAYS_SAMPLE_STATUSES = ("shed", "error")

# One module-level RNG for sample draws; request volume makes per-request
# seeding pointless and the GIL makes Random.random() safe to share.
_SAMPLE_RNG = random.Random()

# Request ids are a per-process random prefix plus an atomic counter:
# unique within any realistic deployment window and ~20x cheaper than
# uuid4 (which pays a urandom syscall per request — measurable on a
# serving path whose p50 is tens of microseconds).
_ID_PREFIX = f"{random.getrandbits(40):010x}"
_ID_COUNTER = itertools.count(1)


def trace_sample_rate() -> float:
    """The configured head-sampling rate, clamped to [0, 1]."""
    raw = os.environ.get(TRACE_SAMPLE_ENV, "")
    try:
        rate = float(raw) if raw else DEFAULT_TRACE_SAMPLE
    except ValueError:
        rate = DEFAULT_TRACE_SAMPLE
    return min(1.0, max(0.0, rate))


def new_request_id() -> str:
    """A fresh request id (hex, header- and filename-safe)."""
    return f"req-{_ID_PREFIX}{next(_ID_COUNTER):06x}"


class RequestContext:
    """One serving request's identity, sampling decision, tags and outcome."""

    __slots__ = (
        "request_id",
        "route",
        "tags",
        "started_unix",
        "started_monotonic",
        "sampled",
        "status",
        "http_status",
    )

    def __init__(
        self,
        route: str,
        request_id: Optional[str] = None,
        sample_rate: Optional[float] = None,
    ):
        self.request_id = request_id or new_request_id()
        self.route = route
        # Root-span tags, filled by :func:`tag_request` only while
        # observability is on and merged into the root when it is kept.
        self.tags: Dict[str, object] = {}
        self.started_unix = time.time()
        self.started_monotonic = time.monotonic()
        rate = sample_rate if sample_rate is not None else trace_sample_rate()
        self.sampled = bool(rate >= 1.0 or (rate > 0.0 and _SAMPLE_RNG.random() < rate))
        self.status: Optional[str] = None
        self.http_status: int = 0

    @property
    def forced(self) -> bool:
        """Whether the outcome (shed or 5xx) forces the trace and log line."""
        return self.status in ALWAYS_SAMPLE_STATUSES or self.http_status >= 500

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started_monotonic) * 1000.0


# ---------------------------------------------------------------------------
# contextvar propagation

_CONTEXT: "contextvars.ContextVar[Optional[RequestContext]]" = contextvars.ContextVar(
    "repro_request_context", default=None
)


def current_context() -> Optional[RequestContext]:
    """The request context active on this logical thread of control."""
    return _CONTEXT.get()


def tag_request(key: str, value: object) -> None:
    """Tag the active request's root span (no-op outside a request scope
    or with observability off)."""
    if FLAGS.enabled:
        context = _CONTEXT.get()
        if context is not None:
            context.tags[key] = value


class request_scope:
    """The transport edge's bracket: create, propagate, finish one request.

    Installs the context for the duration of the block.  With
    observability on, a sampled request opens its ``serve.request`` root
    on the process tracer as a new trace keyed by the request id, so the
    route's spans nest under it; an unsampled one mutes the thread's
    tracer instead, so they record nothing.  On exit the root gets the
    request's tags and outcome, a shed or errored request that was not
    sampled gets a synthesized root (tags and timing, no children), and
    the access-log line is written.  **Reentrant**: when a scope is
    already active (an in-process client called from inside another
    request) the existing context is yielded untouched.

    A hand-rolled context manager rather than ``@contextmanager``: this
    brackets every single serving request, and the generator protocol's
    per-``with`` overhead is real money against a tens-of-microseconds
    request path.
    """

    __slots__ = (
        "_route",
        "_request_id",
        "_sample_rate",
        "_access_log",
        "_context",
        "_reentrant",
        "_context_token",
        "_root",
        "_cpu_start",
    )

    def __init__(
        self,
        route: str,
        request_id: Optional[str] = None,
        sample_rate: Optional[float] = None,
        access_log: Optional["AccessLog"] = None,
    ):
        self._route = route
        self._request_id = request_id
        self._sample_rate = sample_rate
        self._access_log = access_log
        self._reentrant = False
        # The sampled root, NULL_SPAN for a mute, None when obs was off.
        self._root: Optional[Span] = None

    def __enter__(self) -> RequestContext:
        existing = _CONTEXT.get()
        if existing is not None:
            self._reentrant = True
            self._context = existing
            return existing
        context = RequestContext(
            self._route, request_id=self._request_id, sample_rate=self._sample_rate
        )
        self._context = context
        self._context_token = _CONTEXT.set(context)
        if FLAGS.enabled:
            tracer = get_tracer()
            if context.sampled:
                self._root = self._open_root(tracer)
            else:
                tracer.mute()
                self._root = NULL_SPAN
            self._cpu_start = time.process_time()
        return context

    def _open_root(self, tracer: Tracer) -> Span:
        """The request's ``serve.request`` root: a new trace keyed by its id."""
        context = self._context
        root = tracer.start_span(
            "serve.request",
            trace_id=context.request_id,
            route=self._route,
            request_id=context.request_id,
        )
        root.started_unix = context.started_unix
        return root

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._reentrant:
            return False
        context = self._context
        if exc is not None:
            context.status = context.status or "error"
        _CONTEXT.reset(self._context_token)
        root = self._root
        if root is not None:
            tracer = get_tracer()
            if root is NULL_SPAN:
                tracer.unmute()
                if context.forced:
                    # The head decision dropped this request but its outcome
                    # forces a keep: synthesize the root (children are gone,
                    # the tags and timing are not).
                    root = self._open_root(tracer)
            if root is not NULL_SPAN:
                root.tags.update(context.tags)
                if exc is not None:
                    root.set_tag("error", f"{exc_type.__name__}: {exc}")
                root.set_tag("status", context.status)
                root.set_tag("http_status", context.http_status)
                tracer.finish_span(
                    root,
                    wall_seconds=context.elapsed_ms() / 1000.0,
                    cpu_seconds=time.process_time() - self._cpu_start,
                )
        if self._access_log is not None:
            self._access_log.record(context)
        return False


# ---------------------------------------------------------------------------
# structured access logs


class AccessLog:
    """Sampled JSONL access log: one object per logged request.

    Off by default — the server only writes it when constructed with a
    path (``repro serve --access-log``).  ``sample`` keeps that fraction
    of OK traffic; shed and errored requests are always logged (the same
    skew as trace sampling: the boring requests are the droppable ones).
    Thread-safe; lines are flushed per write so a live ``tail -f`` (and
    the CI artifact upload) sees them immediately.
    """

    def __init__(self, path: str, sample: float = 1.0):
        self.path = path
        self.sample = min(1.0, max(0.0, sample))
        self._lock = threading.Lock()
        self._handle: Optional[TextIO] = None
        self._n_written = 0

    def _should_log(self, context: RequestContext) -> bool:
        if context.forced:
            return True
        if self.sample >= 1.0:
            return True
        return self.sample > 0.0 and _SAMPLE_RNG.random() < self.sample

    def record(self, context: RequestContext) -> None:
        """Write one line for ``context`` if it passes the log sample."""
        if not self._should_log(context):
            return
        line = json.dumps(
            {
                "ts": round(context.started_unix, 6),
                "request_id": context.request_id,
                "route": context.route,
                "status": context.status,
                "http_status": context.http_status,
                "latency_ms": round(context.elapsed_ms(), 3),
                "sampled_trace": context.sampled or context.forced,
            },
            sort_keys=True,
        )
        with self._lock:
            if self._handle is None:
                directory = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()
            self._n_written += 1

    @property
    def n_written(self) -> int:
        with self._lock:
            return self._n_written

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
