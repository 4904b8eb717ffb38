"""Decision tracing: structured spans and events, zero overhead when off.

The ROADMAP's production target needs the reasoning core to be
*observable*: a slow DIMSAT call should be attributable to its CHECK
branches, a navigator query to the summarizability decisions it ran,
a resilient decision to its retries and degradations.  This module
provides the substrate every reasoning layer instruments itself with:

* :class:`Tracer` - a process-wide recorder of **spans** (named,
  attributed, monotonic-clock-timed regions entered as context
  managers) and **events** (point-in-time structured records, attached
  to the innermost open span of the calling thread).
* A **bounded ring buffer**: finished spans and events land in
  ``collections.deque(maxlen=...)`` stores, so a long-lived service
  traces at a fixed memory ceiling and always keeps the most recent
  activity.
* A **zero-overhead-when-off** guarantee: the tracer starts disabled,
  and a disabled tracer's :meth:`Tracer.span` returns a shared no-op
  singleton while :meth:`Tracer.event` returns immediately - call sites
  pay one attribute check and nothing else.  The differential tests
  assert that enabling tracing never changes a verdict.

Span names are dotted and stable (``dimsat.decide``, ``dimsat.check``,
``implication.decide``, ``summarizability.bottom``,
``navigator.answer``, ``viewselect.evaluate``, ``resilience.decide``
...), as are event names (``decision_cache.lookup``
/ ``decision_cache.store_failed``, ``resilience.retry`` /
``resilience.degrade`` / ``resilience.unknown`` ...); the event schema is
documented in ``docs/TUTORIAL.md`` (Observability) and the span-to-paper
mapping in ``docs/PAPER_MAP.md``.  The CLI surfaces traces through
``repro-olap trace`` and the metrics sibling through
``--emit-metrics`` (see :mod:`repro.core.metrics`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Protocol


class SpanSink(Protocol):
    """Where a tracer streams finished spans and events (in addition to
    its ring buffers).

    The telemetry pipeline (:mod:`repro.core.telemetry`) implements this
    protocol with a bounded background writer, so a long-lived service
    can ship every span to disk without unbounded memory and without
    blocking the decision path.  Sink calls happen on the instrumented
    thread and therefore must never block; the pipeline's implementation
    drops (and counts) instead of waiting.

    ``export_span`` receives the finished :class:`TraceSpan` itself (not
    a dict): a finished span is immutable, and deferring
    :meth:`TraceSpan.as_dict` to the sink's writer thread keeps the
    decision path from paying for its own observability.
    ``export_event`` receives the JSON-ready event record (the tracer
    builds that dict for its ring buffer anyway).
    """

    def export_span(self, span: "TraceSpan") -> None: ...

    def export_event(self, event: Dict[str, Any]) -> None: ...


class _NullSpan:
    """The shared no-op span a disabled tracer hands out.

    Supports the full active-span surface (context manager, ``event``,
    ``set``) so call sites never branch on whether tracing is on.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass

    @property
    def span_id(self) -> Optional[int]:
        return None


NULL_SPAN = _NullSpan()


class TraceSpan:
    """An open (then finished) span: a named, timed, attributed region.

    Spans nest per thread: entering a span pushes it on the calling
    thread's stack, so a span opened inside another records that parent's
    id.  Timing uses the monotonic :func:`time.perf_counter` clock;
    ``start_ms`` is the offset from the tracer's epoch, ``duration_ms``
    is filled in at exit.
    """

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "parent_id",
        "tid",
        "attrs",
        "start_ms",
        "duration_ms",
        "error",
        "_start",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = next(tracer._ids)
        self.parent_id: Optional[int] = None
        self.tid = 0
        self.attrs = attrs
        self.start_ms = 0.0
        self.duration_ms: Optional[float] = None
        self.error: Optional[str] = None
        self._start = 0.0

    def __enter__(self) -> "TraceSpan":
        stack = self.tracer._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self.tid = threading.get_ident()
        self._start = time.perf_counter()
        self.start_ms = (self._start - self.tracer._epoch) * 1000.0
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.duration_ms = (time.perf_counter() - self._start) * 1000.0
        if exc_type is not None:
            self.error = getattr(exc_type, "__name__", str(exc_type))
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self.tracer._finish(self)
        return False

    def event(self, name: str, **attrs: Any) -> None:
        """Record an event attached to this span."""
        self.tracer._record_event(name, self.span_id, attrs)

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite span attributes (e.g. the verdict)."""
        self.attrs.update(attrs)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "tid": self.tid,
            "name": self.name,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
            "error": self.error,
            "attrs": _jsonable(self.attrs),
        }


class Tracer:
    """A process-wide recorder of spans and events.

    Disabled by default; every entry point checks :attr:`enabled` first,
    so instrumented code paths cost one attribute read when tracing is
    off.  Finished spans and events are kept in bounded ring buffers
    (``max_entries`` each, oldest dropped first).
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.enabled = False
        self.max_entries = max_entries
        #: Optional :class:`SpanSink` streaming finished spans/events out
        #: of the process (the telemetry pipeline); ``None`` costs one
        #: attribute read per finished span.
        self.sink: Optional[SpanSink] = None
        #: Ring-buffer overflow counts: entries the bounded deques pushed
        #: out, so a truncated trace is detectable from its snapshot.
        self.dropped_spans = 0
        self.dropped_events = 0
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: Deque[TraceSpan] = deque(maxlen=max_entries)
        self._events: Deque[Dict[str, Any]] = deque(maxlen=max_entries)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Any:
        """Open a span (use as a context manager).

        Returns the shared :data:`NULL_SPAN` when tracing is off, so the
        call site needs no branch of its own.
        """
        if not self.enabled:
            return NULL_SPAN
        return TraceSpan(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time event.

        The event is attached to the calling thread's innermost open
        span, or to no span when recorded at top level.
        """
        if not self.enabled:
            return
        stack = self._stack()
        span_id = stack[-1].span_id if stack else None
        self._record_event(name, span_id, attrs)

    def _record_event(
        self, name: str, span_id: Optional[int], attrs: Dict[str, Any]
    ) -> None:
        if not self.enabled:
            return
        record = {
            "name": name,
            "time_ms": (time.perf_counter() - self._epoch) * 1000.0,
            "span_id": span_id,
            "attrs": _jsonable(attrs),
        }
        with self._lock:
            if len(self._events) == self._events.maxlen:
                self.dropped_events += 1
            self._events.append(record)
        if self.sink is not None:
            self.sink.export_event(record)

    def _finish(self, span: TraceSpan) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped_spans += 1
            self._spans.append(span)
        if self.sink is not None:
            self.sink.export_span(span)

    def _stack(self) -> List[TraceSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop every recorded span and event and restart the clock."""
        with self._lock:
            self._spans.clear()
            self._events.clear()
            self.dropped_spans = 0
            self.dropped_events = 0
            self._epoch = time.perf_counter()
            self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def spans(self) -> List[Dict[str, Any]]:
        """Finished spans, oldest first, as JSON-ready dicts."""
        with self._lock:
            return [span.as_dict() for span in self._spans]

    def events(self) -> List[Dict[str, Any]]:
        """Recorded events, oldest first, as JSON-ready dicts."""
        with self._lock:
            return list(self._events)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name aggregates: count, total/max duration in ms."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans():
            duration = span["duration_ms"] or 0.0
            row = out.setdefault(
                span["name"], {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
            )
            row["count"] += 1
            row["total_ms"] += duration
            row["max_ms"] = max(row["max_ms"], duration)
        return out

    def snapshot(self) -> Dict[str, Any]:
        """The whole trace as one JSON-serializable document."""
        return {
            "enabled": self.enabled,
            "max_entries": self.max_entries,
            "dropped_spans": self.dropped_spans,
            "dropped_events": self.dropped_events,
            "spans": self.spans(),
            "events": self.events(),
            "summary": self.summary(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def _jsonable(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Attribute values coerced to JSON-safe primitives."""
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple, set, frozenset)):
            out[key] = sorted(str(v) for v in value)
        else:
            out[key] = str(value)
    return out


#: The process-wide tracer every reasoning layer records into.
TRACER = Tracer()


def tracer() -> Tracer:
    """The process-wide :class:`Tracer`."""
    return TRACER


class tracing:
    """Context manager enabling the process-wide tracer for a region.

    >>> from repro.core.trace import tracer, tracing
    >>> with tracing():
    ...     pass
    >>> tracer().enabled
    False
    """

    def __init__(self, clear: bool = True) -> None:
        self._clear = clear
        self._was_enabled = False

    def __enter__(self) -> Tracer:
        self._was_enabled = TRACER.enabled
        if self._clear:
            TRACER.clear()
        TRACER.enable()
        return TRACER

    def __exit__(self, *exc_info: object) -> None:
        if not self._was_enabled:
            TRACER.disable()
