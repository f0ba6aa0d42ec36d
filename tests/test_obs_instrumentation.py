"""Unit tests for the obs subsystem: collector, switch, snapshot, report."""

from __future__ import annotations

import io
import json
import sys
import threading

import pytest

from repro.obs import (
    ENV_VAR,
    Instrumentation,
    MetricsSnapshot,
    collecting,
    collection_active,
    get_collector,
    maybe_span,
    refresh_from_env,
    render_report,
    set_collector,
)
from repro.obs.instrumentation import _NULL_SPAN
from repro.obs.names import catalog
from repro.obs.report import counter_rows, histogram_rows, span_rows


@pytest.fixture(autouse=True)
def _no_ambient_collector():
    """Isolate every test from a REPRO_OBS collector installed at import."""
    previous = set_collector(None)
    yield
    set_collector(previous)


# ----------------------------------------------------------------------
# Instrumentation registry
# ----------------------------------------------------------------------
class TestCounters:
    def test_inc_and_add_accumulate(self):
        m = Instrumentation()
        m.inc("ops")
        m.inc("ops", 4)
        m.add("ops", 5)
        assert m.counter("ops") == 10

    def test_missing_counter_defaults_to_zero(self):
        assert Instrumentation().counter("never") == 0

    def test_reset_drops_everything(self):
        m = Instrumentation()
        m.inc("ops")
        m.observe("size", 3.0)
        with m.span("work"):
            pass
        m.reset()
        assert m.snapshot().is_empty()


class TestHistograms:
    def test_observe_tracks_count_total_min_max(self):
        m = Instrumentation()
        for value in (4.0, 1.0, 7.0):
            m.observe("size", value)
        hist = m.snapshot().histograms["size"]
        assert hist.count == 3
        assert hist.total == 12.0
        assert hist.minimum == 1.0
        assert hist.maximum == 7.0
        assert hist.mean == 4.0

    def test_empty_histogram_mean_is_zero(self):
        from repro.obs import HistogramSummary

        assert HistogramSummary(0, 0.0, 0.0, 0.0).mean == 0.0


class TestSpans:
    def test_nesting_encodes_paths(self):
        m = Instrumentation()
        with m.span("outer"):
            with m.span("inner"):
                pass
        snapshot = m.snapshot()
        assert set(snapshot.spans) == {"outer", "outer/inner"}
        assert snapshot.spans["outer"].count == 1
        assert m.span_seconds("outer") >= m.span_seconds("outer/inner") >= 0.0

    def test_reentry_accumulates(self):
        m = Instrumentation()
        for _ in range(3):
            with m.span("work"):
                pass
        assert m.snapshot().spans["work"].count == 3

    def test_span_survives_exceptions(self):
        m = Instrumentation()
        with pytest.raises(RuntimeError):
            with m.span("work"):
                raise RuntimeError("boom")
        assert m.snapshot().spans["work"].count == 1
        # the stack unwound: a new span is top-level again
        with m.span("after"):
            pass
        assert "after" in m.snapshot().spans

    def test_span_seconds_absent_path_is_zero(self):
        assert Instrumentation().span_seconds("nope") == 0.0

    def test_concurrent_span_folds_lose_no_update(self):
        """Span aggregates and the event count are folded under a lock:
        more threads than cores and a tiny switch interval lose nothing."""
        m = Instrumentation()
        threads_n, rounds = 6, 500

        def work():
            for _ in range(rounds):
                m.record("wait", 0.0, 1e-6)
                with m.span("hold"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        spans = m.snapshot().spans
        assert spans["wait"].count == threads_n * rounds
        assert spans["hold"].count == threads_n * rounds
        assert m.recorded == len(m.events()) == 2 * threads_n * rounds

    def test_threads_nest_spans_on_their_own_stacks(self):
        """Two threads nesting spans on one collector never parent under
        each other: each keeps its own stack, for the path aggregates and
        for the event parent links alike."""
        m = Instrumentation()
        rounds = 200
        barrier = threading.Barrier(2)

        def work(name):
            # The barriers force both threads to hold their spans open at
            # the same time, so a shared stack would interleave them.
            for _ in range(rounds):
                with m.span(name):
                    barrier.wait()
                    with m.span("child"):
                        barrier.wait()

        threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        spans = m.snapshot().spans
        assert {path: s.count for path, s in spans.items()} == {
            "a": rounds,
            "a/child": rounds,
            "b": rounds,
            "b/child": rounds,
        }
        events = m.events()
        assert len(events) == 4 * rounds
        by_id = {event.span_id: event for event in events}
        for event in events:
            if event.name == "child":
                parent = by_id[event.parent_id]
                assert parent.tid == event.tid
                assert parent.name in ("a", "b")
            else:
                assert event.parent_id is None


# ----------------------------------------------------------------------
# the process-wide switch
# ----------------------------------------------------------------------
class TestSwitch:
    def test_disabled_by_default_in_tests(self):
        assert get_collector() is None
        assert not collection_active()

    def test_set_collector_returns_previous(self):
        first, second = Instrumentation(), Instrumentation()
        assert set_collector(first) is None
        assert set_collector(second) is first
        assert set_collector(None) is second

    def test_collecting_scopes_and_restores(self):
        outer = Instrumentation()
        set_collector(outer)
        with collecting() as inner:
            assert get_collector() is inner
            assert inner is not outer
        assert get_collector() is outer

    def test_collecting_accepts_existing_collector(self):
        mine = Instrumentation()
        with collecting(mine) as active:
            assert active is mine
            get_collector().inc("ops")
        assert mine.counter("ops") == 1

    def test_refresh_from_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        assert refresh_from_env()
        installed = get_collector()
        assert installed is not None
        # still on: the installed collector is kept, not replaced
        assert refresh_from_env()
        assert get_collector() is installed
        monkeypatch.setenv(ENV_VAR, "0")
        assert not refresh_from_env()
        assert get_collector() is None

    def test_maybe_span_is_shared_noop_when_disabled(self):
        assert maybe_span("anything") is _NULL_SPAN
        with maybe_span("anything"):
            pass

    def test_maybe_span_records_when_enabled(self):
        with collecting() as metrics:
            with maybe_span("work"):
                pass
        assert metrics.snapshot().spans["work"].count == 1


# ----------------------------------------------------------------------
# snapshot JSON round-trip
# ----------------------------------------------------------------------
def _populated_snapshot() -> MetricsSnapshot:
    m = Instrumentation()
    m.inc("kcore.peel.calls", 2)
    m.observe("index.answer_size", 5.0)
    m.observe("index.answer_size", 11.0)
    with m.span("kpcore"):
        with m.span("peel"):
            pass
    return m.snapshot()


class TestSnapshotRoundTrip:
    def test_json_round_trip_is_lossless(self):
        snapshot = _populated_snapshot()
        assert MetricsSnapshot.from_json(snapshot.to_json()) == snapshot

    def test_save_and_load(self, tmp_path):
        snapshot = _populated_snapshot()
        target = tmp_path / "metrics.json"
        snapshot.save(str(target))
        assert MetricsSnapshot.load(str(target)) == snapshot
        # file handles work too
        buffer = io.StringIO()
        snapshot.save(buffer)
        assert MetricsSnapshot.from_json(buffer.getvalue()) == snapshot

    def test_json_is_plain_data(self):
        payload = json.loads(_populated_snapshot().to_json())
        assert set(payload) == {"counters", "histograms", "spans"}

    def test_snapshot_is_detached_from_collector(self):
        m = Instrumentation()
        m.inc("ops")
        snapshot = m.snapshot()
        m.inc("ops")
        assert snapshot.counter("ops") == 1
        assert m.counter("ops") == 2


# ----------------------------------------------------------------------
# report and log sinks
# ----------------------------------------------------------------------
class TestReport:
    def test_report_round_trips_through_json(self):
        snapshot = _populated_snapshot()
        reloaded = MetricsSnapshot.from_json(snapshot.to_json())
        assert render_report(reloaded) == render_report(snapshot)

    def test_report_contains_each_metric(self):
        text = render_report(_populated_snapshot(), title="unit")
        assert "unit" in text
        assert "kcore.peel.calls" in text
        assert "index.answer_size" in text
        assert "kpcore" in text

    def test_empty_snapshot_renders_placeholder(self):
        assert "(no metrics collected)" in render_report(MetricsSnapshot())

    def test_child_spans_indent_under_parents(self):
        _, rows = span_rows(_populated_snapshot())
        names = [row[0] for row in rows]
        assert names == ["kpcore", "  peel"]

    def test_rows_are_sorted_by_name(self):
        snapshot = _populated_snapshot()
        for rows_fn in (counter_rows, histogram_rows):
            _, rows = rows_fn(snapshot)
            assert [r[0] for r in rows] == sorted(r[0] for r in rows)


# ----------------------------------------------------------------------
# the names catalog
# ----------------------------------------------------------------------
def test_catalog_names_are_unique_across_kinds():
    kinds = catalog()
    all_names = [n for names in kinds.values() for n in names]
    assert len(all_names) == len(set(all_names))
    assert all(desc for names in kinds.values() for desc in names.values())
