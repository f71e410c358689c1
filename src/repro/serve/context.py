"""Request-scoped observability: ids, propagation, sampling, access logs.

Every serving request gets a :class:`RequestContext` at the transport
edge — the HTTP handler reads (or mints) an ``X-Repro-Request-Id``
header, the in-process client mints one per call — and the context rides
a :mod:`contextvars` variable through admission, the cache and the
router, so every layer can tag the *same* request without threading
arguments through the stack.

Tracing is **per request**: spans opened inside a request scope land in a
private buffer on the context, not the global tracer's thread-local
stack, so a request's tree is kept or dropped as a whole.  When the
request finishes, the buffered tree is flushed to the process-global
:class:`~repro.obs.tracing.Tracer` — in the exact JSONL span format the
rest of the stack already exports — iff the request was *sampled*:

* **head-based sampling** — the keep/drop decision is drawn when the
  context is created, at the rate given by ``REPRO_TRACE_SAMPLE``
  (default 0.01, i.e. 1% of requests);
* **always-sample on shed/error** — a request that ends shed (429) or
  errored (5xx) is flushed regardless of the head decision, so the
  traces an operator actually needs are never the ones sampling dropped.

Span buffering (like all observability here) is active only under
``REPRO_OBS=1``; the disabled path costs one flag check per call site.
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
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, TextIO

from repro.obs._flags import FLAGS
from repro.obs.tracing import NULL_SPAN, Span, get_tracer, span as tracer_span

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
    """One serving request's identity, labels, deadline, and span buffer.

    Thread-safe where it must be: the span buffer and id counter are
    locked, so a context handed to another thread can still record spans.
    ``labels`` is the tenant-ready label set — today it carries the
    route (and whatever the transport adds); the multi-tenant roadmap
    item will add ``tenant`` without touching any consumer.
    """

    __slots__ = (
        "request_id",
        "route",
        "labels",
        "tags",
        "timeout_s",
        "started_unix",
        "started_monotonic",
        "sampled",
        "forced",
        "status",
        "http_status",
        "root",
        "_lock",
        "_spans",
        "_next_span",
        "_flushed",
    )

    def __init__(
        self,
        route: str,
        request_id: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
        timeout_s: Optional[float] = None,
        sample_rate: Optional[float] = None,
    ):
        self.request_id = request_id or new_request_id()
        self.route = route
        self.labels: Dict[str, str] = {"route": route}
        if labels:
            self.labels.update(labels)
        self.timeout_s = timeout_s
        # Root-span tags buffered as a plain dict: layers tag the request
        # unconditionally (GIL-atomic dict store, no branch, no lock) and
        # the scope merges them into the root span only when the trace is
        # kept.
        self.tags: Dict[str, object] = {}
        self.started_unix = time.time()
        self.started_monotonic = time.monotonic()
        rate = sample_rate if sample_rate is not None else trace_sample_rate()
        self.sampled = bool(rate >= 1.0 or (rate > 0.0 and _SAMPLE_RNG.random() < rate))
        self.forced = False
        self.status: Optional[str] = None
        self.http_status: int = 0
        self.root: Span = NULL_SPAN
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_span = 0
        self._flushed = False

    # ---- span buffer (the per-request trace) --------------------------

    def new_span(self, name: str, parent_id: Optional[str], **tags: object) -> Span:
        """Open a span in this request's trace; caller must :meth:`record` it."""
        with self._lock:
            self._next_span += 1
            span_id = f"{self.request_id}.s{self._next_span}"
        return Span(
            name=name,
            span_id=span_id,
            trace_id=self.request_id,
            parent_id=parent_id,
            started_unix=time.time(),
            tags=dict(tags),
        )

    def record(self, span_: Span, wall_seconds: float, cpu_seconds: float) -> None:
        """Close a span opened by :meth:`new_span` into the request buffer."""
        span_.wall_seconds = wall_seconds
        span_.cpu_seconds = cpu_seconds
        with self._lock:
            self._spans.append(span_)

    def spans(self) -> List[Span]:
        """The buffered spans recorded so far (completion order)."""
        with self._lock:
            return list(self._spans)

    @property
    def keep_trace(self) -> bool:
        return self.sampled or self.forced

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started_monotonic) * 1000.0

    # ---- finishing ----------------------------------------------------

    def finish(self, status: Optional[str] = None, http_status: Optional[int] = None) -> None:
        """Record the outcome and flush the span tree if the request is kept.

        Idempotent: the request scope calls it on exit, but an edge that
        already knows the outcome may call it earlier with the real
        status codes.
        """
        if status is not None:
            self.status = status
        if http_status is not None:
            self.http_status = http_status
        if self.status in ALWAYS_SAMPLE_STATUSES or self.http_status >= 500:
            self.forced = True
        if self._flushed or not FLAGS.enabled:
            return
        self._flushed = True
        if self.keep_trace:
            get_tracer().record_finished(self.spans())


# ---------------------------------------------------------------------------
# contextvar propagation

_CONTEXT: "contextvars.ContextVar[Optional[RequestContext]]" = contextvars.ContextVar(
    "repro_request_context", default=None
)
_ACTIVE_SPAN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_request_span", default=None
)


def current_context() -> Optional[RequestContext]:
    """The request context active on this logical thread of control."""
    return _CONTEXT.get()


def current_request_span() -> Optional[Span]:
    """The innermost open request span (the parent for new children)."""
    return _ACTIVE_SPAN.get()


def tag_request(key: str, value: object) -> None:
    """Tag the active request's root span (no-op outside a request scope).

    Tags land in the context's buffered tag dict — kept for every request
    (they also feed the forced shed/error trace) and merged onto the root
    span at flush time.
    """
    context = _CONTEXT.get()
    if context is not None:
        context.tags[key] = value


@contextmanager
def request_span(name: str, **tags: object) -> Iterator[Span]:
    """A span in the active request's trace (its buffer, not the tracer).

    Outside a request scope this degrades to the plain
    :func:`repro.obs.tracing.span`, so instrumented serve code keeps
    producing spans when the router is driven directly (tests, traced
    workloads that bypass the clients).  Disabled observability yields
    the shared null span either way.

    Head sampling is applied *here*, not just at flush time: a request
    the head decision dropped buffers only its root span, so the common
    unsampled request pays one flag check per instrumentation point —
    that is what keeps the obs-on p95 overhead under the 5% gate.  The
    cost: a request force-kept late (a 5xx) flushes its root span and
    tags but not child spans.  Shed requests lose nothing — they are
    rejected at admission before any child span would open.
    """
    context = _CONTEXT.get()
    if context is None:
        with tracer_span(name, **tags) as span_:
            yield span_
        return
    if not FLAGS.enabled or not context.keep_trace:
        yield NULL_SPAN
        return
    parent = _ACTIVE_SPAN.get()
    opened = context.new_span(
        name, parent.span_id if parent is not None else None, **tags
    )
    token = _ACTIVE_SPAN.set(opened)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        yield opened
    except BaseException as exc:
        opened.set_tag("error", f"{type(exc).__name__}: {exc}")
        raise
    finally:
        _ACTIVE_SPAN.reset(token)
        context.record(
            opened,
            wall_seconds=time.perf_counter() - wall_start,
            cpu_seconds=time.process_time() - cpu_start,
        )


class request_scope:
    """The transport edge's bracket: create, propagate, finish one request.

    Opens the root ``serve.request`` span, installs the context for the
    duration of the block, and on exit finishes the root span, applies
    the sampling decision (flushing the tree to the global tracer when
    kept), and writes the access-log line.  **Reentrant**: when a scope
    is already active (an in-process client called from inside another
    request) the existing context is yielded untouched.

    A hand-rolled context manager rather than ``@contextmanager``: this
    brackets every single serving request, and the generator protocol's
    per-``with`` overhead is real money against a tens-of-microseconds
    request path.
    """

    __slots__ = (
        "_route",
        "_request_id",
        "_labels",
        "_timeout_s",
        "_sample_rate",
        "_access_log",
        "_context",
        "_reentrant",
        "_context_token",
        "_span_token",
        "_wall_start",
        "_cpu_start",
    )

    def __init__(
        self,
        route: str,
        request_id: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
        timeout_s: Optional[float] = None,
        sample_rate: Optional[float] = None,
        access_log: Optional["AccessLog"] = None,
    ):
        self._route = route
        self._request_id = request_id
        self._labels = labels
        self._timeout_s = timeout_s
        self._sample_rate = sample_rate
        self._access_log = access_log
        self._reentrant = False

    def __enter__(self) -> RequestContext:
        existing = _CONTEXT.get()
        if existing is not None:
            self._reentrant = True
            self._context = existing
            return existing
        context = RequestContext(
            self._route,
            request_id=self._request_id,
            labels=self._labels,
            timeout_s=self._timeout_s,
            sample_rate=self._sample_rate,
        )
        if FLAGS.enabled and context.sampled:
            # Lazy elsewhere: an unsampled request allocates no Span at
            # all unless it ends shed/errored (synthesized in __exit__).
            context.root = context.new_span(
                "serve.request", None, route=self._route, request_id=context.request_id
            )
        self._context = context
        self._context_token = _CONTEXT.set(context)
        self._span_token = _ACTIVE_SPAN.set(
            context.root if context.root is not NULL_SPAN else None
        )
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        return context

    def __exit__(self, exc_type, exc, tb) -> bool:
        context = self._context
        if self._reentrant:
            return False
        if exc is not None:
            context.status = context.status or "error"
            context.tags["error"] = f"{exc_type.__name__}: {exc}"
        _ACTIVE_SPAN.reset(self._span_token)
        _CONTEXT.reset(self._context_token)
        if FLAGS.enabled:
            forced = (
                context.forced
                or context.status in ALWAYS_SAMPLE_STATUSES
                or context.http_status >= 500
            )
            if context.root is NULL_SPAN and forced:
                # The head decision dropped this request but its outcome
                # forces a keep: synthesize the root (children are gone,
                # the tags and timing are not).
                context.root = context.new_span(
                    "serve.request",
                    None,
                    route=self._route,
                    request_id=context.request_id,
                )
                context.root.started_unix = context.started_unix
            if context.root is not NULL_SPAN:
                context.root.tags.update(context.tags)
                context.root.set_tag("status", context.status)
                context.root.set_tag("http_status", context.http_status)
                context.record(
                    context.root,
                    wall_seconds=time.perf_counter() - self._wall_start,
                    cpu_seconds=time.process_time() - self._cpu_start,
                )
        context.finish()
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
        if context.status in ALWAYS_SAMPLE_STATUSES or context.http_status >= 500:
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
                "labels": context.labels,
                "sampled_trace": context.keep_trace,
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
