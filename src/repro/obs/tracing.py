"""Hierarchical tracing spans for the KG construction stack.

A *span* is one timed region of work (``with span("fusion.graphical"):``).
Spans nest: a thread-local stack links each span to its parent, so a
pipeline run produces a tree — the pipeline root, one child per stage,
and grandchildren for the instrumented hot paths each stage exercises.

Finished spans accumulate on the process-global :class:`Tracer` and export
as JSONL, one object per span::

    {"kind": "span", "trace_id": "t1", "span_id": "s3", "parent_id": "s1",
     "name": "stage.fuse_values", "started_unix": 1721312.5,
     "wall_seconds": 0.0123, "cpu_seconds": 0.0119, "tags": {...}}

This is the process's only span recorder: serving requests trace through
it too (:func:`repro.serve.context.request_scope` opens each sampled
request's ``serve.request`` root as a new trace keyed by the request id).
A :data:`NULL_SPAN` on a thread's stack *mutes* it: ``span()`` then
yields the null span and records nothing until the mute is popped, which
is how an unsampled request drops its whole tree.

When observability is disabled (the default) ``span()`` yields a shared
no-op span and costs one flag check; see :mod:`repro.obs.profiling` for
the enable/disable hooks.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.obs._flags import FLAGS


@dataclass
class Span:
    """One timed, tagged region of work."""

    name: str
    span_id: str
    trace_id: str
    parent_id: Optional[str] = None
    started_unix: float = 0.0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    tags: Dict[str, object] = field(default_factory=dict)

    def set_tag(self, key: str, value: object) -> "Span":
        """Attach one tag (span is returned for chaining)."""
        self.tags[key] = value
        return self

    def to_dict(self) -> Dict[str, object]:
        """The JSONL record for this span."""
        return {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started_unix": round(self.started_unix, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "tags": self.tags,
        }


class _NullSpan(Span):
    """The shared span handed out while observability is disabled.

    ``set_tag`` discards, so instrumented code never needs its own
    enabled-check before tagging.
    """

    def __init__(self) -> None:
        super().__init__(name="disabled", span_id="", trace_id="")

    def set_tag(self, key: str, value: object) -> "Span":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; owns the thread-local span stack."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: List[Span] = []
        self._next_id = 0
        self._next_trace = 0

    # ---- span lifecycle ------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread (None outside any span)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start_span(self, name: str, trace_id: Optional[str] = None, **tags: object) -> Span:
        """Open a span as a child of the current one; caller must finish it.

        ``trace_id`` opens the root of a new trace under that id, even
        inside an open span or on a muted thread.
        """
        stack = self._stack()
        parent = stack[-1] if stack and trace_id is None else None
        with self._lock:
            self._next_id += 1
            span_id = f"s{self._next_id}"
            if parent is not None:
                trace_id = parent.trace_id
                parent_id: Optional[str] = parent.span_id
            else:
                if trace_id is None:
                    self._next_trace += 1
                    trace_id = f"t{self._next_trace}"
                parent_id = None
        opened = Span(
            name=name,
            span_id=span_id,
            trace_id=trace_id,
            parent_id=parent_id,
            started_unix=time.time(),
            tags=dict(tags),
        )
        stack.append(opened)
        return opened

    def mute(self) -> None:
        """Until :meth:`unmute`, :func:`span` on this thread records nothing."""
        self._stack().append(NULL_SPAN)

    def unmute(self) -> None:
        """Pop the mute pushed by the matching :meth:`mute`."""
        stack = self._stack()
        if stack and stack[-1] is NULL_SPAN:
            stack.pop()

    def finish_span(self, span_: Span, wall_seconds: float, cpu_seconds: float) -> None:
        """Close a span opened by :meth:`start_span` and record it."""
        stack = self._stack()
        if stack and stack[-1] is span_:
            stack.pop()
        elif span_ in stack:  # pragma: no cover - unbalanced exit safety
            stack.remove(span_)
        span_.wall_seconds = wall_seconds
        span_.cpu_seconds = cpu_seconds
        with self._lock:
            self._finished.append(span_)

    # ---- inspection / export -------------------------------------------

    def spans(self, prefix: Optional[str] = None) -> List[Span]:
        """Finished spans in completion order, optionally name-filtered."""
        with self._lock:
            finished = list(self._finished)
        if prefix is None:
            return finished
        return [span_ for span_ in finished if span_.name.startswith(prefix)]

    def export_jsonl(self) -> str:
        """All finished spans as JSONL (one span object per line)."""
        return "\n".join(
            json.dumps(span_.to_dict(), sort_keys=True) for span_ in self.spans()
        )

    def write_jsonl(self, path: str) -> int:
        """Write the JSONL export to ``path``; returns the span count."""
        finished = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span_ in finished:
                handle.write(json.dumps(span_.to_dict(), sort_keys=True) + "\n")
        return len(finished)

    def reset(self) -> None:
        """Drop all finished spans (open spans on other threads survive)."""
        with self._lock:
            self._finished = []


_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _GLOBAL_TRACER


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, if any."""
    return _GLOBAL_TRACER.current_span()


@contextmanager
def span(name: str, **tags: object) -> Iterator[Span]:
    """Time a region of work as a span: ``with span("fusion.graphical"):``.

    Wall time uses ``time.perf_counter``; CPU time uses
    ``time.process_time`` (whole-process, so concurrent threads inflate
    it — fine for the single-threaded construction paths instrumented
    here).  Exceptions propagate after the span is finished and tagged
    with ``error``.  On a muted thread (see :meth:`Tracer.mute`) it
    yields the null span.
    """
    if not FLAGS.enabled:
        yield NULL_SPAN
        return
    tracer = _GLOBAL_TRACER
    stack = tracer._stack()
    if stack and stack[-1] is NULL_SPAN:
        yield NULL_SPAN
        return
    opened = tracer.start_span(name, **tags)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        yield opened
    except BaseException as exc:
        opened.set_tag("error", f"{type(exc).__name__}: {exc}")
        raise
    finally:
        tracer.finish_span(
            opened,
            wall_seconds=time.perf_counter() - wall_start,
            cpu_seconds=time.process_time() - cpu_start,
        )
