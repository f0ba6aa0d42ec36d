"""The one collector and the process-wide collection switch.

One :class:`Instrumentation` records everything the library measures:

* **counters** — monotone integers (:meth:`Instrumentation.inc` /
  :meth:`~Instrumentation.add`),
* **histograms** — streaming count/total/min/max summaries of observed
  values (:meth:`~Instrumentation.observe`),
* **spans** — timed sections opened with :meth:`~Instrumentation.span`
  (a ``with`` block) or recorded after the fact with
  :meth:`~Instrumentation.record` (lock waits, peel timings).  Each one
  feeds two views at once: the per-path aggregate (``parent/child``
  paths with entry count and total seconds, what the metrics report
  shows) and an attributed :class:`TraceEvent` in a bounded ring buffer
  (trace/span IDs, parent link, wall-clock timestamp, thread and
  attributes, what the trace exporters and attribution tables read).

Design constraints:

* **Disabled is the default and must stay near free.**  Every hot path
  fetches the active collector once per call (:func:`get_collector`) and
  keeps the result in a local — the per-loop cost of disabled collection
  is that one cached ``None`` check, never a per-iteration branch, and
  no span attributes are built when it is ``None``.  The instrumented
  kernels derive most counts *after* their loops from state the
  algorithm already maintains, so the enabled path stays O(m) too (rule
  KP007 enforces the discipline).
* **One switch.**  ``REPRO_OBS=1`` installs a process-wide collector at
  import time; :func:`collecting` scopes a fresh collector to a ``with``
  block (the programmatic equivalent used by
  ``measure(capture_metrics=True)`` and ``python -m repro profile``).
* **Per-thread nesting.**  Each thread keeps its own span stack, so
  spans opened concurrently by query threads nest under their own
  parents.  Span aggregates are folded under a lock; counter and
  histogram updates are plain dict arithmetic and may lose an increment
  under a thread race (they are statistics, not correctness inputs).
* **Bounded memory.**  Events land in a ring buffer of ``buffer_size``
  entries (default :data:`DEFAULT_BUFFER_SIZE`); the oldest are dropped
  and :attr:`Instrumentation.dropped` says how many.

Cross-process propagation: :meth:`Instrumentation.context` captures the
innermost open span, a worker process builds
``Instrumentation(context=ctx)`` so its spans parent (and path-nest)
under it, ships :meth:`~Instrumentation.payload` back, and the parent
folds it in with :meth:`~Instrumentation.merge` — see
:mod:`repro.core.parallel`.  Timestamps are wall-clock anchored
(``time.time`` at collector creation plus ``time.perf_counter``
deltas), so events merged from several processes order sensibly on one
timeline.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.errors import ParameterError
from repro.obs.snapshot import HistogramSummary, MetricsSnapshot, SpanSummary

__all__ = [
    "ENV_VAR",
    "DEFAULT_BUFFER_SIZE",
    "Frame",
    "TraceEvent",
    "Span",
    "Instrumentation",
    "collection_active",
    "get_collector",
    "set_collector",
    "refresh_from_env",
    "collecting",
    "maybe_span",
]

#: Environment variable that switches collection on.
ENV_VAR = "REPRO_OBS"

#: Default ring-buffer capacity: completed spans kept before dropping.
DEFAULT_BUFFER_SIZE = 65536

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Span/trace id counter shared by every collector of this process, so
#: the per-chunk collectors of one pool worker never reuse an id.
_ids = itertools.count(1)

#: A span-stack frame: ``(trace_id, span_id, path)``; the same triple is
#: the cross-process context a worker collector parents under.
Frame = tuple[str, str | None, str]


def _env_active(value: str | None) -> bool:
    return value is not None and value.strip().lower() in _TRUTHY


class TraceEvent:
    """One completed timed section.

    ``ts`` is wall-clock seconds (epoch), ``dur`` is seconds.  ``attrs``
    carries the span attributes (``k``, ``p``, ``cache_hit``, ...);
    ``parent_id`` is ``None`` for trace roots.  IDs are strings of the
    form ``pid.counter`` so events merged across processes never
    collide.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "ts",
        "dur",
        "pid",
        "tid",
        "thread",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        ts: float,
        dur: float,
        pid: int,
        tid: int,
        thread: str,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.ts = ts
        self.dur = dur
        self.pid = pid
        self.tid = tid
        self.thread = thread
        self.attrs = attrs

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (and the pickle shipped across the pool)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "ts": self.ts,
            "dur": self.dur,
            "pid": self.pid,
            "tid": self.tid,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceEvent":
        return cls(
            name=str(payload["name"]),
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=(
                None
                if payload.get("parent_id") is None
                else str(payload["parent_id"])
            ),
            ts=float(payload["ts"]),
            dur=float(payload["dur"]),
            pid=int(payload["pid"]),
            tid=int(payload["tid"]),
            thread=str(payload.get("thread", "")),
            attrs=dict(payload.get("attrs", {})),
        )

    def __repr__(self) -> str:
        return (
            f"TraceEvent({self.name!r}, trace={self.trace_id}, "
            f"span={self.span_id}, dur={self.dur:.6f}s)"
        )


class Span:
    """An open span; the context manager :meth:`Instrumentation.span`
    hands out.

    Entering pushes the span onto the calling thread's stack (so nested
    spans and :meth:`Instrumentation.record` calls parent under it);
    exiting pops it and records both the path aggregate and the
    :class:`TraceEvent`.  Attributes may be added while open via
    :meth:`set`.
    """

    __slots__ = (
        "_obs",
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "path",
        "_start",
    )

    def __init__(
        self, obs: "Instrumentation", name: str, attrs: dict[str, Any]
    ) -> None:
        self._obs = obs
        self.name = name
        self.attrs = attrs
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: str | None = None
        self.path = name
        self._start = 0.0

    def set(self, name: str, value: Any) -> None:
        """Attach (or overwrite) one attribute of the open span."""
        self.attrs[name] = value

    def __enter__(self) -> "Span":
        obs = self._obs
        stack = obs._stack()
        self.trace_id, self.parent_id, parent_path = obs._frame(stack)
        if parent_path:
            self.path = f"{parent_path}/{self.name}"
        self.span_id = obs._new_id()
        stack.append((self.trace_id, self.span_id, self.path))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        obs = self._obs
        obs._stack().pop()
        obs._finish(
            self.name, self.path, self.trace_id, self.span_id,
            self.parent_id, self._start, end, self.attrs,
        )


class Instrumentation:
    """One registry of counters, histograms, spans and trace events.

    Cheap to create: a fresh collector per measured region (see
    :func:`collecting`) keeps attribution simple.  A collector created
    with ``context=`` (see :meth:`context`) parents its root spans under
    that foreign span instead of opening fresh traces — the
    worker-process half of cross-process propagation.
    """

    __slots__ = (
        "_counters",
        "_hists",
        "_spans",
        "_lock",
        "_events",
        "_recorded",
        "_local",
        "_context",
        "_pid",
        "_anchor_wall",
        "_anchor_perf",
        "buffer_size",
    )

    def __init__(
        self,
        buffer_size: int = DEFAULT_BUFFER_SIZE,
        context: Frame | None = None,
    ) -> None:
        if buffer_size < 1:
            raise ParameterError(
                f"event buffer size must be >= 1, got {buffer_size}"
            )
        self._counters: dict[str, int] = {}
        # name -> [count, total, min, max]
        self._hists: dict[str, list[float]] = {}
        # path -> [count, seconds]
        self._spans: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self.buffer_size = buffer_size
        self._events: deque[TraceEvent] = deque(maxlen=buffer_size)
        self._recorded = 0
        self._local = threading.local()
        self._context = context
        self._pid = os.getpid()
        self._anchor_wall = time.time()
        self._anchor_perf = time.perf_counter()

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` (default 1) to counter ``name``."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + n

    #: Alias emphasizing bulk flushes of loop-local accumulators.
    add = inc

    def counter(self, name: str, default: int = 0) -> int:
        """Current value of one counter."""
        return self._counters.get(name, default)

    # ------------------------------------------------------------------
    # histograms
    # ------------------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name``."""
        hist = self._hists.get(name)
        if hist is None:
            self._hists[name] = [1, value, value, value]
            return
        hist[0] += 1
        hist[1] += value
        if value < hist[2]:
            hist[2] = value
        if value > hist[3]:
            hist[3] = value

    # ------------------------------------------------------------------
    # spans and events
    # ------------------------------------------------------------------
    def _stack(self) -> list[Frame]:
        stack: list[Frame] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _frame(self, stack: list[Frame]) -> Frame:
        """``(trace_id, parent_span_id, parent_path)`` for a section
        starting now on this thread."""
        if stack:
            return stack[-1]
        if self._context is not None:
            return self._context
        return f"t{self._pid:x}.{next(_ids):x}", None, ""

    def _new_id(self) -> str:
        return f"{self._pid:x}.{next(_ids):x}"

    def _finish(
        self,
        name: str,
        path: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        start: float,
        end: float,
        attrs: dict[str, Any],
    ) -> TraceEvent:
        dur = max(0.0, end - start)
        with self._lock:
            span = self._spans.get(path)
            if span is None:
                self._spans[path] = [1, dur]
            else:
                span[0] += 1
                span[1] += dur
            self._recorded += 1
        thread = threading.current_thread()
        event = TraceEvent(
            name, trace_id, span_id, parent_id,
            self._anchor_wall + (start - self._anchor_perf), dur,
            self._pid, thread.ident or 0, thread.name, attrs,
        )
        self._events.append(event)
        return event

    def span(self, name: str, **attrs: Any) -> Span:
        """An open span context manager::

            with obs.span("trace.server.query", k=k, p=p) as span:
                ...
                span.set("answer_size", len(answer))
        """
        return Span(self, name, attrs)

    def record(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> TraceEvent:
        """Record an already-measured section (``time.perf_counter``
        readings) as a child of this thread's innermost open span.

        The shape for sites that cannot wrap their work in a ``with``
        block — lock acquisition waits, or a peel timed around its loop.
        """
        trace_id, parent_id, parent_path = self._frame(self._stack())
        path = f"{parent_path}/{name}" if parent_path else name
        return self._finish(
            name, path, trace_id, self._new_id(), parent_id, start, end, attrs
        )

    def span_seconds(self, path: str) -> float:
        """Total seconds recorded under span ``path`` (0.0 if absent)."""
        span = self._spans.get(path)
        return span[1] if span is not None else 0.0

    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first (a detached copy)."""
        return list(self._events)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including dropped ones)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring buffer by newer ones."""
        return self._recorded - len(self._events)

    # ------------------------------------------------------------------
    # cross-process propagation
    # ------------------------------------------------------------------
    def context(self) -> Frame:
        """``(trace_id, span_id, path)`` of this thread's innermost open
        span.

        Ship it to a worker process and build
        ``Instrumentation(context=ctx)`` there; the worker's root spans
        then join this trace as children of the captured span, and their
        aggregate paths nest under its path.
        """
        return self._frame(self._stack())

    def payload(self) -> dict[str, Any]:
        """Everything collected, as plain picklable data — what a pool
        worker ships home for :meth:`merge`."""
        return {
            "metrics": self.snapshot().to_dict(),
            "events": [event.to_dict() for event in self._events],
            "recorded": self._recorded,
        }

    def merge(self, payload: Mapping[str, Any]) -> None:
        """Fold a :meth:`payload` (typically from a worker process) in.

        Counters add, histograms fold count/total/min/max, span paths
        add count/seconds, and the events join this ring buffer.  This
        is how worker-process collection rejoins the parent after a
        :mod:`repro.core.parallel` run.
        """
        snapshot = MetricsSnapshot.from_dict(payload["metrics"])
        for name, value in snapshot.counters.items():
            self.inc(name, value)
        for name, summary in snapshot.histograms.items():
            hist = self._hists.get(name)
            if hist is None:
                self._hists[name] = [
                    summary.count,
                    summary.total,
                    summary.minimum,
                    summary.maximum,
                ]
                continue
            hist[0] += summary.count
            hist[1] += summary.total
            if summary.minimum < hist[2]:
                hist[2] = summary.minimum
            if summary.maximum > hist[3]:
                hist[3] = summary.maximum
        with self._lock:
            for path, span_summary in snapshot.spans.items():
                span = self._spans.get(path)
                if span is None:
                    self._spans[path] = [span_summary.count, span_summary.seconds]
                else:
                    span[0] += span_summary.count
                    span[1] += span_summary.seconds
            self._recorded += int(payload["recorded"])
        self._events.extend(TraceEvent.from_dict(e) for e in payload["events"])

    # ------------------------------------------------------------------
    # export / lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Detach an immutable copy of the aggregated metrics."""
        with self._lock:
            spans = {
                path: SpanSummary(count=int(s[0]), seconds=s[1])
                for path, s in self._spans.items()
            }
        return MetricsSnapshot(
            counters=dict(self._counters),
            histograms={
                name: HistogramSummary(
                    count=int(h[0]), total=h[1], minimum=h[2], maximum=h[3]
                )
                for name, h in self._hists.items()
            },
            spans=spans,
        )

    def reset(self) -> None:
        """Drop everything collected (open span nesting is preserved)."""
        self._counters.clear()
        self._hists.clear()
        with self._lock:
            self._spans.clear()
            self._events.clear()
            self._recorded = 0

    def __repr__(self) -> str:
        return (
            f"Instrumentation(counters={len(self._counters)}, "
            f"histograms={len(self._hists)}, spans={len(self._spans)}, "
            f"events={len(self._events)}, dropped={self.dropped})"
        )


# ----------------------------------------------------------------------
# process-wide collection switch
# ----------------------------------------------------------------------
_collector: Instrumentation | None = (
    Instrumentation() if _env_active(os.environ.get(ENV_VAR)) else None
)


def collection_active() -> bool:
    """Whether a collector is currently installed."""
    return _collector is not None


def get_collector() -> Instrumentation | None:
    """The active collector, or ``None`` when collection is off.

    Hot paths call this once per invocation and branch on the cached
    result — never inside their loops.
    """
    return _collector


def set_collector(collector: Instrumentation | None) -> Instrumentation | None:
    """Install (or clear) the process-wide collector; returns the previous
    one so callers can restore it."""
    global _collector
    previous = _collector
    _collector = collector
    return previous


def refresh_from_env() -> bool:
    """Re-read :data:`ENV_VAR`; installs/clears the collector accordingly.

    Returns the resulting active state.  An already-installed collector
    is kept (not replaced) when the environment still says on.
    """
    global _collector
    if _env_active(os.environ.get(ENV_VAR)):
        if _collector is None:
            _collector = Instrumentation()
    else:
        _collector = None
    return _collector is not None


@contextmanager
def collecting(
    collector: Instrumentation | None = None,
) -> Iterator[Instrumentation]:
    """Scope a collector to a ``with`` block; restores the previous one.

    >>> from repro.obs import collecting
    >>> with collecting() as obs:
    ...     with obs.span("example", k=3) as span:
    ...         span.set("answer_size", 17)
    >>> obs.snapshot().spans["example"].count
    1
    >>> [(event.name, event.attrs) for event in obs.events()]
    [('example', {'k': 3, 'answer_size': 17})]
    """
    active = collector if collector is not None else Instrumentation()
    previous = set_collector(active)
    try:
        yield active
    finally:
        set_collector(previous)


class _NullSpan:
    """Reusable no-op span for disabled collection."""

    __slots__ = ()

    def set(self, name: str, value: Any) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


def maybe_span(name: str) -> Span | _NullSpan:
    """``collector.span(name)`` when collection is on, else a shared no-op.

    For attribute-free wrapper-level sections (snapshot build, full
    decompositions, server requests) — not for use inside peeling loops,
    where even a no-op ``with`` block per iteration would be measurable.
    Sites that attach attributes fetch :func:`get_collector` and branch,
    so the off path builds no attribute dict.
    """
    collector = _collector
    if collector is None:
        return _NULL_SPAN
    return collector.span(name)
