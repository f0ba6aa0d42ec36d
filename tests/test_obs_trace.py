"""Unit tests for the trace view of the collector: attributed span
events, the ring buffer, cross-process propagation, and the exporters."""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import ParameterError
from repro.obs import names
from repro.obs.instrumentation import (
    ENV_VAR,
    Instrumentation,
    TraceEvent,
    collecting,
    collection_active,
    get_collector,
    refresh_from_env,
    set_collector,
)
from repro.obs.trace_export import (
    attribution_rows,
    bucket_of_span,
    chrome_payload,
    read_jsonl,
    slowest_rows,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


@pytest.fixture(autouse=True)
def _no_ambient_collector():
    """Isolate every test from a REPRO_OBS collector installed at import."""
    previous = set_collector(None)
    yield
    set_collector(previous)


# ----------------------------------------------------------------------
# span recording
# ----------------------------------------------------------------------
class TestSpans:
    def test_nested_spans_share_trace_and_link_parent(self):
        obs = Instrumentation()
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
        inner_event, outer_event = obs.events()
        assert inner_event.name == "inner"
        assert outer_event.name == "outer"
        assert inner_event.trace_id == outer_event.trace_id
        assert inner_event.parent_id == outer_event.span_id
        assert outer_event.parent_id is None
        assert outer.span_id == outer_event.span_id

    def test_sibling_roots_get_distinct_traces(self):
        obs = Instrumentation()
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        a, b = obs.events()
        assert a.trace_id != b.trace_id

    def test_children_are_time_contained_in_parent(self):
        obs = Instrumentation()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = obs.events()
        assert outer.ts <= inner.ts
        assert inner.ts + inner.dur <= outer.ts + outer.dur + 1e-6

    def test_set_attaches_attributes(self):
        obs = Instrumentation()
        with obs.span("q", k=3) as span:
            span.set("answer_size", 17)
        (event,) = obs.events()
        assert event.attrs == {"k": 3, "answer_size": 17}

    def test_record_parents_under_open_span(self):
        obs = Instrumentation()
        with obs.span("outer"):
            obs.record("wait", 1.0, 1.5, site="query")
        wait, outer = obs.events()
        assert wait.name == "wait"
        assert wait.parent_id == outer.span_id
        assert wait.dur == pytest.approx(0.5)
        assert wait.attrs == {"site": "query"}

    def test_record_clamps_negative_durations(self):
        obs = Instrumentation()
        event = obs.record("wait", 2.0, 1.0)
        assert event.dur == 0.0


class TestBuffer:
    def test_ring_buffer_drops_oldest(self):
        obs = Instrumentation(buffer_size=2)
        for name in ("a", "b", "c"):
            with obs.span(name):
                pass
        assert [event.name for event in obs.events()] == ["b", "c"]
        assert obs.recorded == 3
        assert obs.dropped == 1

    def test_invalid_buffer_size_rejected(self):
        with pytest.raises(ParameterError, match="buffer"):
            Instrumentation(buffer_size=0)

    def test_clear_resets_counts(self):
        obs = Instrumentation()
        with obs.span("a"):
            pass
        obs.reset()
        assert obs.events() == []
        assert obs.recorded == 0
        assert obs.dropped == 0


class TestEventSerialization:
    def test_to_dict_round_trips(self):
        obs = Instrumentation()
        with obs.span("q", k=2, hit=True):
            pass
        (event,) = obs.events()
        clone = TraceEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert clone.to_dict() == event.to_dict()


# ----------------------------------------------------------------------
# process-wide switch
# ----------------------------------------------------------------------
class TestSwitch:
    def test_off_by_default_in_tests(self):
        assert get_collector() is None
        assert not collection_active()

    def test_tracing_scopes_and_restores(self):
        """Events recorded inside collecting() land in the scoped
        collector; the previous collector is restored and untouched."""
        sentinel = Instrumentation()
        set_collector(sentinel)
        with collecting() as obs:
            assert get_collector() is obs
            assert obs is not sentinel
            with obs.span(names.TRACE_SERVER_QUERY):
                pass
        assert get_collector() is sentinel
        assert [event.name for event in obs.events()] == [
            names.TRACE_SERVER_QUERY
        ]
        assert sentinel.events() == []

    def test_refresh_from_env_installs_and_clears(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        assert refresh_from_env() is True
        installed = get_collector()
        assert installed is not None
        assert refresh_from_env() is True
        assert get_collector() is installed  # kept, not replaced
        monkeypatch.delenv(ENV_VAR)
        assert refresh_from_env() is False
        assert get_collector() is None

    def test_disabled_hot_path_emits_zero_events(self):
        """With collection off the peel engines must not record anything."""
        from repro.core.decomposition import kp_core_decomposition
        from repro.graph.generators import erdos_renyi_gnm

        g = erdos_renyi_gnm(30, 90, seed=2)
        kp_core_decomposition(g)
        assert get_collector() is None  # nothing got installed as a side effect


# ----------------------------------------------------------------------
# cross-process propagation
# ----------------------------------------------------------------------
class TestPropagation:
    def test_context_captures_innermost_span(self):
        obs = Instrumentation()
        with obs.span("outer") as outer:
            trace_id, span_id, path = obs.context()
            assert trace_id == outer.trace_id
            assert span_id == outer.span_id
            assert path == "outer"

    def test_worker_tracer_parents_under_context(self):
        parent = Instrumentation()
        with parent.span("decomp") as root:
            ctx = parent.context()
        worker = Instrumentation(context=ctx)
        with worker.span("peel", k=3):
            pass
        (peel,) = worker.events()
        assert peel.trace_id == root.trace_id
        assert peel.parent_id == root.span_id
        # the worker's aggregate path nests under the parent's open span
        assert set(worker.snapshot().spans) == {"decomp/peel"}

    def test_absorb_merges_serialized_events(self):
        parent = Instrumentation()
        with parent.span("decomp"):
            ctx = parent.context()
        worker = Instrumentation(context=ctx)
        with worker.span("peel", k=1):
            pass
        worker.inc("decomp.rounds")
        parent.merge(worker.payload())
        assert parent.recorded == 2
        assert parent.counter("decomp.rounds") == 1
        assert set(parent.snapshot().spans) == {"decomp", "decomp/peel"}
        names_seen = {event.name for event in parent.events()}
        assert names_seen == {"decomp", "peel"}
        span_ids = {event.span_id for event in parent.events()}
        parent_ids = {
            event.parent_id
            for event in parent.events()
            if event.parent_id is not None
        }
        assert parent_ids <= span_ids  # no orphan parents after the merge


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _sample_events() -> list[TraceEvent]:
    obs = Instrumentation()
    with obs.span(names.TRACE_SERVER_QUERY, k=2, p=0.5):
        wait_start = time.perf_counter()
        sum(range(1000))  # a real (tiny) wait so timestamps nest properly
        obs.record(
            names.TRACE_LOCK_READ_WAIT,
            wait_start,
            time.perf_counter(),
            site="query",
        )
        with obs.span(names.TRACE_LOCK_READ_HOLD, site="query"):
            with obs.span(names.TRACE_CACHE_PROBE, hit=False):
                pass
            with obs.span(names.TRACE_QUERY_ANSWER):
                pass
    return obs.events()


class TestChromeExport:
    def test_payload_passes_validation(self):
        payload = chrome_payload(_sample_events())
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"

    def test_timestamps_rebased_to_microseconds(self):
        payload = chrome_payload(_sample_events())
        ts_values = [event["ts"] for event in payload["traceEvents"]]
        assert min(ts_values) == pytest.approx(0.0, abs=1e-6)
        assert all(event["ph"] == "X" for event in payload["traceEvents"])

    def test_args_carry_span_identity_and_attrs(self):
        payload = chrome_payload(_sample_events())
        by_name = {event["name"]: event for event in payload["traceEvents"]}
        query = by_name[names.TRACE_SERVER_QUERY]
        assert query["args"]["k"] == 2
        assert "trace_id" in query["args"] and "span_id" in query["args"]
        probe = by_name[names.TRACE_CACHE_PROBE]
        assert "parent_id" in probe["args"]

    def test_validator_flags_malformed_payloads(self):
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        bad = {
            "traceEvents": [
                {"name": "", "cat": "x", "ph": "B", "ts": -1, "dur": "a",
                 "pid": 1.5, "tid": True, "args": []}
            ]
        }
        problems = validate_chrome_trace(bad)
        assert any("name" in p for p in problems)
        assert any("ph" in p for p in problems)
        assert any("ts" in p for p in problems)
        assert any("dur" in p for p in problems)
        assert any("pid" in p for p in problems)
        assert any("tid" in p for p in problems)
        assert any("args" in p for p in problems)

    def test_write_chrome_trace_emits_valid_json_file(self, tmp_path):
        events = _sample_events()
        path = tmp_path / "trace.json"
        assert write_chrome_trace(path, events) == len(events)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []


class TestJsonl:
    def test_round_trip_is_lossless(self, tmp_path):
        events = _sample_events()
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(path, events) == len(events)
        restored = read_jsonl(path)
        assert [event.to_dict() for event in restored] == [
            event.to_dict() for event in events
        ]


class TestAttribution:
    def test_bucket_mapping(self):
        assert bucket_of_span(names.TRACE_LOCK_READ_WAIT) == "lock-wait"
        assert bucket_of_span(names.TRACE_LOCK_WRITE_HOLD) == "lock-hold"
        assert bucket_of_span(names.TRACE_CACHE_FILL) == "cache-probe"
        assert bucket_of_span(names.TRACE_PEEL_FIXED_K) == "answer-build"
        assert bucket_of_span("something.else") == "other"

    def test_self_times_sum_to_root_duration(self):
        events = _sample_events()
        headers, rows = attribution_rows(events)
        assert headers[0] == "span"
        self_total = sum(float(row[3]) for row in rows)
        root = next(
            event for event in events
            if event.name == names.TRACE_SERVER_QUERY
        )
        assert self_total == pytest.approx(root.dur * 1e3, rel=0.05, abs=0.05)

    def test_required_buckets_appear(self):
        _, rows = attribution_rows(_sample_events())
        buckets = {row[1] for row in rows}
        assert {"lock-wait", "cache-probe", "answer-build"} <= buckets

    def test_shares_sum_to_one(self):
        _, rows = attribution_rows(_sample_events())
        total = sum(float(row[5].rstrip("%")) for row in rows)
        assert total == pytest.approx(100.0, abs=0.5)

    def test_slowest_rows_sorted_and_bounded(self):
        headers, rows = slowest_rows(_sample_events(), top=2)
        assert headers[0] == "span"
        assert len(rows) == 2
        assert float(rows[0][1]) >= float(rows[1][1])


class TestCatalog:
    def test_trace_names_are_catalogued(self):
        catalog = names.catalog()
        assert set(catalog) == {"counters", "histograms", "spans"}
        assert names.TRACE_SERVER_QUERY in catalog["spans"]
        assert names.TRACE_PEEL_FIXED_K in catalog["spans"]
