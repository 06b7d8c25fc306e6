"""Tracing spans and log-style events, serialised as JSONL trace records.

A :class:`Tracer` times named phases (*spans*) with both monotonic wall time
(``time.perf_counter``) and process CPU time (``time.process_time``), keeps a
stack so spans nest (each record carries its ``parent`` name and ``depth``),
and emits one-line *events* for things that happen at an instant — e.g. the
``batch-fallback`` event ``resolve_batch_backend`` fires when a ``run_many``
call falls through to the per-run loop.

Like the metrics registry, tracing has a zero-overhead disabled default: the
module-level :func:`span` / :func:`trace_event` helpers delegate to the
active tracer, which is the no-op :data:`NULL_TRACER` until a real one is
installed.  The no-op tracer's ``span`` answers one shared null context
manager, so a disabled ``with span("run"):`` costs two attribute lookups and
no allocation.

Records are plain dicts.  With a :class:`TraceWriter` sink attached each
record is appended to a JSONL file as it completes — the executor points the
sink at the result store's ``.trace.jsonl`` sidecar, opened in append mode so
resumed sweeps extend the same file.  Span records look like::

    {"type": "span", "name": "run", "parent": "chunk", "depth": 1,
     "start": 1722988800.0, "wall": 0.0123, "cpu": 0.0119, ...attrs}

and events like::

    {"type": "event", "name": "batch-fallback", "time": 1722988800.0,
     "reason": "record-trace", ...fields}

Timestamps are **monotonically derived**: each :class:`Tracer` reads the
wall clock exactly once at construction, pairs it with a
``time.perf_counter()`` epoch, and stamps every span start and event as
``epoch_wall + (perf_now - epoch_perf)``.  Stamps stay wall-clock-meaningful
(they anchor near the real start time) but can never run backwards within a
trace — an NTP step mid-sweep shifts nothing, where raw ``time.time()``
reads could make a child span appear to start before its parent.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class TraceWriter:
    """Append-only JSONL sink for trace records.

    Opened in append mode so a resumed sweep extends the previous run's
    sidecar instead of clobbering it.  Each :meth:`write` is one
    ``json.dumps`` line followed by a flush — records survive a crash
    mid-sweep.
    """

    def __init__(self, path: Any) -> None:
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")

    def write(self, record: dict[str, Any]) -> None:
        """Append one record as a JSON line and flush."""
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()


class _Span:
    """Context-manager handle for one in-flight span (created by Tracer.span)."""

    __slots__ = ("_tracer", "name", "attrs", "_start_wall", "_start_cpu")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self.name)
        self._start_cpu = time.process_time()
        self._start_wall = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        wall = time.perf_counter() - self._start_wall
        cpu = time.process_time() - self._start_cpu
        stack = self._tracer._stack
        stack.pop()
        record = {
            "type": "span",
            "name": self.name,
            "parent": stack[-1] if stack else None,
            "depth": len(stack),
            "start": round(self._tracer._wall_at(self._start_wall), 6),
            "wall": round(wall, 6),
            "cpu": round(cpu, 6),
        }
        record.update(self.attrs)
        self._tracer._emit(record)


class _NullSpan:
    """Shared do-nothing span for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


class Tracer:
    """Records nested spans and point events, optionally into a JSONL sink.

    Completed records are kept in ``self.records`` (for tests and in-process
    inspection) and, when a sink is attached, appended to it immediately.
    ``enabled`` mirrors the metrics registry convention: a plain class
    attribute so instrumented code can guard cheaply.
    """

    enabled = True

    def __init__(self, sink: TraceWriter | None = None) -> None:
        self.sink = sink
        self.records: list[dict[str, Any]] = []
        self._stack: list[str] = []
        # The one wall-clock read this tracer ever makes: all span starts
        # and event times are derived from perf_counter against this pair,
        # so stamps cannot run backwards across an NTP step (module doc).
        self._epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()

    def _wall_at(self, perf_now: float) -> float:
        """The derived wall-clock stamp for a ``perf_counter`` reading."""
        return self._epoch_wall + (perf_now - self._epoch_perf)

    def span(self, name: str, **attrs: Any) -> _Span:
        """A context manager timing the named phase (nests via a stack)."""
        return _Span(self, name, attrs)

    def event(self, name: str, **fields: Any) -> None:
        """Record a one-line log-style event (no duration)."""
        record = {
            "type": "event",
            "name": name,
            "time": round(self._wall_at(time.perf_counter()), 6),
        }
        record.update(fields)
        self._emit(record)

    def _emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)
        if self.sink is not None:
            self.sink.write(record)


class NullTracer(Tracer):
    """The disabled tracer: spans are one shared no-op, events vanish."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_span = _NullSpan()

    def span(self, name: str, **attrs: Any) -> Any:
        """The shared no-op span, regardless of name/attrs."""
        return self._null_span

    def event(self, name: str, **fields: Any) -> None:
        """Discard the event."""

    def _emit(self, record: dict[str, Any]) -> None:
        pass


#: The process-wide disabled singleton; active until ``set_tracer`` installs
#: a real tracer.
NULL_TRACER = NullTracer()

_active: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The active process-wide tracer (the no-op singleton when disabled)."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` (``None`` restores the no-op) and return the previous one."""
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


def span(name: str, **attrs: Any) -> Any:
    """``get_tracer().span(...)`` — the usual instrumentation entry point."""
    return _active.span(name, **attrs)


def trace_event(name: str, **fields: Any) -> None:
    """``get_tracer().event(...)`` — emit a one-line log-style event."""
    _active.event(name, **fields)


def traced(name: str, **attrs: Any) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator form of :func:`span`: wrap each call in a fresh span.

    The tracer is resolved at *call* time, not decoration time, so functions
    decorated at import pick up whatever tracer a sweep installs later.
    """

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with _active.span(name, **attrs):
                return func(*args, **kwargs)

        return wrapper

    return decorate


@contextmanager
def trace_to(path: Any) -> Iterator[Tracer]:
    """Install a sink-backed tracer writing JSONL to ``path`` for the block.

    Opens ``path`` in append mode (resume-friendly), installs a fresh
    :class:`Tracer` as the process tracer, and restores the previous tracer
    and closes the file on exit — even on error.
    """
    writer = TraceWriter(path)
    tracer = Tracer(sink=writer)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        writer.close()
