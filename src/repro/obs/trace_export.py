"""Trace exporters (JSONL, Chrome trace-event) and attribution tables.

Two serialization formats for the
:class:`~repro.obs.instrumentation.TraceEvent` ring buffer of a
collector:

* **JSONL** — one ``TraceEvent.to_dict`` object per line; lossless,
  round-trips through :func:`read_jsonl`, greppable.
* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` subset
  with ``"ph": "X"`` complete events, loadable in ``chrome://tracing``
  and Perfetto.  Viewers nest same-``tid`` events by time containment,
  which matches span nesting because children start after and end
  before their parents.  :func:`validate_chrome_trace` checks the
  subset we emit (used by tests and the CI smoke).

The attribution half answers "where did the time go": every span name
maps to a latency *bucket* (lock-wait / lock-hold / cache-probe /
answer-build / other), and :func:`attribution_rows` aggregates **self
time** — a span's duration minus its children's — so the buckets sum to
the traced total instead of double-counting nested work.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs import names
from repro.obs.instrumentation import TraceEvent

__all__ = [
    "chrome_payload",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "BUCKETS",
    "bucket_of_span",
    "attribution_rows",
    "slowest_rows",
]

#: Latency buckets used by the attribution table, and the span-name
#: prefixes that land in each.  Unlisted names fall into ``other``.
BUCKETS: dict[str, tuple[str, ...]] = {
    "lock-wait": (names.TRACE_LOCK_READ_WAIT, names.TRACE_LOCK_WRITE_WAIT),
    "lock-hold": (names.TRACE_LOCK_READ_HOLD, names.TRACE_LOCK_WRITE_HOLD),
    "cache-probe": (
        names.TRACE_CACHE_PROBE,
        names.TRACE_CACHE_FILL,
        names.TRACE_CACHE_PURGE,
    ),
    "answer-build": (names.TRACE_QUERY_ANSWER, names.TRACE_PEEL_FIXED_K),
}

_NAME_TO_BUCKET: dict[str, str] = {
    span_name: bucket
    for bucket, span_names in BUCKETS.items()
    for span_name in span_names
}


def bucket_of_span(name: str) -> str:
    """The attribution bucket a span name belongs to (``other`` if none)."""
    return _NAME_TO_BUCKET.get(name, "other")


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def chrome_payload(events: Iterable[TraceEvent]) -> dict[str, Any]:
    """Chrome trace-event JSON object for a buffer of events.

    Timestamps are rebased to the earliest event (microseconds), ``ph``
    is always ``"X"`` (complete events carrying their own ``dur``), and
    the repro-specific identifiers ride along in ``args``.
    """
    event_list = list(events)
    base = min((event.ts for event in event_list), default=0.0)
    trace_events: list[dict[str, Any]] = []
    for event in event_list:
        args: dict[str, Any] = {
            "trace_id": event.trace_id,
            "span_id": event.span_id,
        }
        if event.parent_id is not None:
            args["parent_id"] = event.parent_id
        args.update(event.attrs)
        trace_events.append(
            {
                "name": event.name,
                "cat": bucket_of_span(event.name),
                "ph": "X",
                "ts": (event.ts - base) * 1e6,
                "dur": event.dur * 1e6,
                "pid": event.pid,
                "tid": event.tid,
                "args": args,
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_chrome_trace(payload: Mapping[str, Any]) -> list[str]:
    """Problems with ``payload`` as a Chrome trace-event object.

    Empty list means the payload conforms to the subset this module
    emits: a ``traceEvents`` array of ``"ph": "X"`` events with string
    ``name``/``cat``, numeric non-negative ``ts``/``dur``, integer
    ``pid``/``tid``, and an ``args`` object.
    """
    problems: list[str] = []
    trace_events = payload.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["traceEvents must be a list"]
    for i, event in enumerate(trace_events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing/empty name")
        if not isinstance(event.get("cat"), str):
            problems.append(f"{where}: missing cat")
        if event.get("ph") != "X":
            problems.append(f"{where}: ph must be 'X'")
        for field in ("ts", "dur"):
            value = event.get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"{where}: {field} must be a number")
            elif value < 0:
                problems.append(f"{where}: {field} must be >= 0")
        for field in ("pid", "tid"):
            value = event.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"{where}: {field} must be an integer")
        if not isinstance(event.get("args"), dict):
            problems.append(f"{where}: args must be an object")
    return problems


def write_chrome_trace(path: str | Path, events: Iterable[TraceEvent]) -> int:
    """Write the Chrome trace-event JSON file; returns the event count."""
    payload = chrome_payload(events)
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return len(payload["traceEvents"])


# ----------------------------------------------------------------------
# JSONL export (lossless round-trip)
# ----------------------------------------------------------------------
def write_jsonl(path: str | Path, events: Iterable[TraceEvent]) -> int:
    """One ``TraceEvent.to_dict`` JSON object per line; returns count."""
    count = 0
    with open(Path(path), "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    """Parse a file written by :func:`write_jsonl` back into events."""
    events: list[TraceEvent] = []
    with open(Path(path), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events


# ----------------------------------------------------------------------
# attribution: self-time aggregates and slowest spans
# ----------------------------------------------------------------------
def _self_times(events: Sequence[TraceEvent]) -> dict[str, float]:
    """Per-span self time: duration minus the sum of direct children.

    Keyed by ``span_id``; clamped at zero so clock jitter between a
    parent's and its children's readings never produces negative rows.
    """
    child_totals: dict[str, float] = {}
    for event in events:
        if event.parent_id is not None:
            child_totals[event.parent_id] = (
                child_totals.get(event.parent_id, 0.0) + event.dur
            )
    return {
        event.span_id: max(0.0, event.dur - child_totals.get(event.span_id, 0.0))
        for event in events
    }


def attribution_rows(
    events: Sequence[TraceEvent],
) -> tuple[list[str], list[list[str]]]:
    """The latency attribution table: per span name, aggregated self time.

    Returns ``(headers, rows)`` ready for
    :func:`repro.bench.reporting.format_table`.  Rows are sorted by
    total self time descending; the share column is the fraction of all
    self time (which equals the traced wall time, since self times of a
    span tree sum to the root duration).
    """
    self_times = _self_times(events)
    per_name: dict[str, tuple[int, float, float]] = {}
    for event in events:
        count, self_total, dur_total = per_name.get(event.name, (0, 0.0, 0.0))
        per_name[event.name] = (
            count + 1,
            self_total + self_times[event.span_id],
            dur_total + event.dur,
        )
    grand_self = sum(entry[1] for entry in per_name.values())
    rows: list[list[str]] = []
    ordered = sorted(per_name.items(), key=lambda item: -item[1][1])
    for name, (count, self_total, dur_total) in ordered:
        share = (self_total / grand_self) if grand_self > 0 else 0.0
        rows.append(
            [
                name,
                bucket_of_span(name),
                str(count),
                f"{self_total * 1e3:.3f}",
                f"{dur_total * 1e3:.3f}",
                f"{share * 100.0:5.1f}%",
            ]
        )
    headers = ["span", "bucket", "count", "self ms", "total ms", "share"]
    return headers, rows


def slowest_rows(
    events: Sequence[TraceEvent], top: int = 10
) -> tuple[list[str], list[list[str]]]:
    """The ``top`` slowest individual spans with their attributes."""
    ordered = sorted(events, key=lambda event: -event.dur)[: max(0, top)]
    rows: list[list[str]] = []
    for event in ordered:
        attrs = " ".join(
            f"{key}={event.attrs[key]}" for key in sorted(event.attrs)
        )
        rows.append(
            [
                event.name,
                f"{event.dur * 1e3:.3f}",
                event.trace_id,
                str(event.pid),
                attrs,
            ]
        )
    headers = ["span", "ms", "trace", "pid", "attrs"]
    return headers, rows
