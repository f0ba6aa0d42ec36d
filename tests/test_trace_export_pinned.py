"""Pinned attribution and slowest-span tables on a fixed event list.

The events are built by hand, so the rendered tables are exact literals:
any change to how self time is derived, how spans map to latency
buckets, or how rows are ordered and formatted shows up here as a diff.
The list covers one served query (read-lock wait and hold, cache probe
and fill, the Algorithm 3 answer build), one update (write-lock wait
and hold, cache purge) and one decomposition with two fixed-k peels.
"""

from __future__ import annotations

from repro.obs import TraceEvent, names
from repro.obs.trace_export import attribution_rows, slowest_rows


def _event(name, span_id, parent_id, ts, dur, trace_id="t1", **attrs):
    return TraceEvent(
        name=name,
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        ts=ts,
        dur=dur,
        pid=100,
        tid=7,
        thread="MainThread",
        attrs=attrs,
    )


def _events() -> list[TraceEvent]:
    return [
        # one cache-missing query: 10 ms end to end
        _event(names.TRACE_LOCK_READ_WAIT, "s2", "s1", 1000.000, 0.001, site="query"),
        _event(names.TRACE_CACHE_PROBE, "s4", "s3", 1000.001, 0.0005, hit=False),
        _event(names.TRACE_QUERY_ANSWER, "s5", "s3", 1000.0015, 0.004, k=2),
        _event(names.TRACE_CACHE_FILL, "s6", "s3", 1000.0055, 0.00025),
        _event(names.TRACE_LOCK_READ_HOLD, "s3", "s1", 1000.001, 0.0075, site="query"),
        _event(names.TRACE_SERVER_QUERY, "s1", None, 1000.000, 0.010, k=2, p=0.5),
        # one update: 6 ms end to end
        _event(names.TRACE_LOCK_WRITE_WAIT, "s8", "s7", 1001.000, 0.002,
               trace_id="t2", site="apply"),
        _event(names.TRACE_CACHE_PURGE, "s10", "s9", 1001.002, 0.00075,
               trace_id="t2", k=2),
        _event(names.TRACE_LOCK_WRITE_HOLD, "s9", "s7", 1001.002, 0.003,
               trace_id="t2", site="apply"),
        _event(names.TRACE_SERVER_APPLY, "s7", None, 1001.000, 0.006,
               trace_id="t2", updates=1),
        # one decomposition with two fixed-k peels: 20 ms end to end
        _event(names.TRACE_PEEL_FIXED_K, "s12", "s11", 1002.001, 0.012,
               trace_id="t3", k=1),
        _event(names.TRACE_PEEL_FIXED_K, "s13", "s11", 1002.013, 0.0055,
               trace_id="t3", k=2),
        _event(names.DECOMP_SPAN, "s11", None, 1002.000, 0.020, trace_id="t3"),
    ]


def test_attribution_rows_are_pinned():
    headers, rows = attribution_rows(_events())
    assert headers == ["span", "bucket", "count", "self ms", "total ms", "share"]
    assert rows == PINNED_ATTRIBUTION


def test_slowest_rows_are_pinned():
    headers, rows = slowest_rows(_events(), top=5)
    assert headers == ["span", "ms", "trace", "pid", "attrs"]
    assert rows == PINNED_SLOWEST


PINNED_ATTRIBUTION = [
    ["trace.peel.fixed_k", "answer-build", "2", "17.500", "17.500", " 48.6%"],
    ["trace.query.answer", "answer-build", "1", "4.000", "4.000", " 11.1%"],
    ["trace.lock.read.hold", "lock-hold", "1", "2.750", "7.500", "  7.6%"],
    ["kp_decomposition", "other", "1", "2.500", "20.000", "  6.9%"],
    ["trace.lock.write.hold", "lock-hold", "1", "2.250", "3.000", "  6.2%"],
    ["trace.lock.write.wait", "lock-wait", "1", "2.000", "2.000", "  5.6%"],
    ["trace.server.query", "other", "1", "1.500", "10.000", "  4.2%"],
    ["trace.lock.read.wait", "lock-wait", "1", "1.000", "1.000", "  2.8%"],
    ["trace.server.apply", "other", "1", "1.000", "6.000", "  2.8%"],
    ["trace.cache.purge", "cache-probe", "1", "0.750", "0.750", "  2.1%"],
    ["trace.cache.probe", "cache-probe", "1", "0.500", "0.500", "  1.4%"],
    ["trace.cache.fill", "cache-probe", "1", "0.250", "0.250", "  0.7%"],
]

PINNED_SLOWEST = [
    ["kp_decomposition", "20.000", "t3", "100", ""],
    ["trace.peel.fixed_k", "12.000", "t3", "100", "k=1"],
    ["trace.server.query", "10.000", "t1", "100", "k=2 p=0.5"],
    ["trace.lock.read.hold", "7.500", "t1", "100", "site=query"],
    ["trace.server.apply", "6.000", "t2", "100", "updates=1"],
]
