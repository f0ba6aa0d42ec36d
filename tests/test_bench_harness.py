"""Tests for the benchmark harness (timing, reporting, experiment smoke)."""

import os
import subprocess
import sys

import pytest

from repro.bench.reporting import (
    banner,
    format_seconds,
    format_table,
    format_timing,
    print_table,
)
from repro.bench.timing import Timer, Timing, measure
from repro.obs import get_collector, set_collector


class TestTiming:
    def test_timer_context(self):
        with Timer() as t:
            total = sum(range(2000))
        assert total == 1999000
        assert t.seconds >= 0.0

    def test_measure_returns_last_result_and_best_time(self):
        calls = []

        def fn():
            calls.append(1)
            return len(calls)

        timing = measure(fn, repeat=3)
        assert timing.result == 3
        assert timing.seconds >= 0.0

    def test_measure_reports_min_median_and_repeats(self):
        timing = measure(lambda: sum(range(500)), repeat=5)
        assert timing.repeats == 5
        assert timing.seconds <= timing.median_seconds
        assert timing.median_seconds >= 0.0

    def test_single_run_min_equals_median(self):
        timing = measure(lambda: None)
        assert timing.repeats == 1
        assert timing.seconds == timing.median_seconds
        assert timing.metrics is None

    def test_measure_validates_repeat(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeat=0)

    def test_capture_metrics_accumulates_over_repeats(self):
        def fn():
            collector = get_collector()
            assert collector is not None
            collector.inc("test.calls")

        previous = set_collector(None)
        try:
            timing = measure(fn, repeat=3, capture_metrics=True)
            # the scoped collector was uninstalled again
            assert get_collector() is None
        finally:
            set_collector(previous)
        assert timing.metrics is not None
        assert timing.metrics.counter("test.calls") == timing.repeats == 3

    def test_capture_metrics_restores_previous_collector(self):
        from repro.obs import Instrumentation

        mine = Instrumentation()
        previous = set_collector(mine)
        try:
            measure(lambda: None, capture_metrics=True)
            assert get_collector() is mine
        finally:
            set_collector(previous)


class TestReporting:
    def test_format_seconds_scales(self):
        assert format_seconds(2.5) == "2.50s"
        assert format_seconds(0.0042).endswith("ms")
        assert format_seconds(0.0000042).endswith("us")

    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [("alpha", 1), ("b", 123456)]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # fully aligned

    def test_float_formatting(self):
        text = format_table(["x"], [(0.123456789,)])
        assert "0.123457" in text

    def test_print_table_with_title(self, capsys):
        print_table(["h"], [(1,)], title="Demo")
        out = capsys.readouterr().out
        assert "=== Demo ===" in out
        assert "h" in out

    def test_banner(self):
        assert banner("X") == "\n=== X ==="

    def test_format_timing_single_run(self):
        assert format_timing(Timing(result=None, seconds=2.5)) == "2.50s"

    def test_format_timing_repeated_run(self):
        text = format_timing(
            Timing(result=None, seconds=0.002, median_seconds=0.003, repeats=5)
        )
        assert text == "2.00ms (median 3.00ms, n=5)"


class TestExperimentSmoke:
    """Cheap smoke checks on the experiment drivers (full runs live in
    benchmarks/)."""

    def test_table2_rows(self):
        from repro.bench.experiments import table2_rows

        headers, rows = table2_rows()
        assert len(rows) == 8
        assert headers[0] == "dataset"
        names = [row[0] for row in rows]
        assert names[0] == "facebook" and names[-1] == "orkut"

    def test_fig6_shape(self):
        from repro.bench.experiments import fig6_rows

        _, rows = fig6_rows()
        by_name = {row[0]: row for row in rows}
        # the fraction constraint bites on the sparse datasets ...
        for name in ("brightkite", "gowalla", "youtube", "pokec", "dblp"):
            assert by_name[name][1] > by_name[name][2] > 0, name
        # ... but barely on the dense ones (paper Fig. 6)
        for name in ("facebook", "orkut"):
            kcore, kpcore = by_name[name][1], by_name[name][2]
            assert kpcore >= 0.7 * kcore, name

    def test_fig7_fig8_shapes(self):
        from repro.bench.experiments import fig7_rows, fig8_rows

        _, cc_rows = fig7_rows()
        for name, cc_k, cc_kp in cc_rows:
            assert cc_kp >= cc_k - 1e-9, name
        _, rho_rows = fig8_rows()
        denser = sum(1 for _, rho_k, rho_kp in rho_rows if rho_kp >= rho_k)
        assert denser >= 6  # paper: "higher on most datasets"

    def test_fig10_series_shapes(self):
        from repro.bench.experiments import fig10_series

        series = fig10_series()
        assert set(series) == {"core_number", "kp_stratum", "onion_layer"}
        core_points = series["core_number"]
        # engagement rises with core number overall
        assert core_points[-1].average > core_points[0].average
        # the kp decomposition is strictly finer than the core one
        assert len(series["kp_stratum"]) > len(core_points)

    def test_fig9_reports(self):
        from repro.bench.experiments import fig9_reports

        reports = fig9_reports()
        assert len(reports) == 2
        for label, report in reports:
            assert label.startswith("DBLP-")
            assert len(report.cascade) >= 1


class TestMetricColumns:
    """``with_metrics`` appends counter columns to the timing figures.

    The dataset registry is monkeypatched to one small seeded graph: the
    point here is the column plumbing, not the full-figure timings the
    benchmarks cover.
    """

    @pytest.fixture(autouse=True)
    def _no_ambient_collector(self):
        # isolate from a REPRO_OBS=1 environment: the "default follows the
        # active collector" test needs a known-off starting state
        previous = set_collector(None)
        yield
        set_collector(previous)

    @pytest.fixture
    def tiny_datasets(self, monkeypatch):
        from repro.bench import experiments
        from repro.graph.generators import erdos_renyi_gnm

        tiny = erdos_renyi_gnm(60, 180, seed=2)
        monkeypatch.setattr(experiments, "load_all", lambda: {"tiny": tiny})
        return experiments

    def test_fig11_appends_peel_counters(self, tiny_datasets):
        headers, rows = tiny_datasets.fig11_rows(k=3, p=0.5, with_metrics=True)
        assert headers[-3:] == ("kp_peeled", "kp_survivors", "query_touched")
        (row,) = rows
        peeled, survivors = row[-3], row[-2]
        assert peeled + survivors == 60

    def test_fig11_without_metrics_keeps_base_columns(self, tiny_datasets):
        headers, _ = tiny_datasets.fig11_rows(k=3, p=0.5, with_metrics=False)
        assert headers[-1] == "speedup"

    def test_fig13_appends_decomposition_counters(self, tiny_datasets):
        headers, rows = tiny_datasets.fig13_rows(with_metrics=True)
        assert headers[-2:] == ("peels", "rekeys")
        (row,) = rows
        assert row[-2] > 0  # every k-core vertex is peeled at least once

    def test_fig15_appends_pruning_counters(self, tiny_datasets):
        headers, rows = tiny_datasets.fig15_rows(batch=5, with_metrics=True)
        assert headers[-3:] == ("thm_skips", "repeeled", "early_stops")
        (row,) = rows
        assert row[-2] >= 0

    def test_ablation_reports_full_reach_gap(self, tiny_datasets):
        headers, rows = tiny_datasets.ablation_rows(dataset="tiny", batch=5)
        assert headers[-2:] == ("full_reach_entries", "pnumbers_changed")
        (row,) = rows
        # a window re-peels a subset of each reached array's new members
        assert 0 < row[4] <= row[7]

    def test_default_follows_active_collector(self, tiny_datasets):
        from repro.obs import collecting

        headers_off, _ = tiny_datasets.fig13_rows()
        with collecting():
            headers_on, _ = tiny_datasets.fig13_rows()
        assert "peels" not in headers_off
        assert "peels" in headers_on


# Records the (u, v) stream Fig. 15 maintains on the facebook stand-in
# (string and int labels) without running the updates.
_FIG15_STREAM = """
from repro.bench.experiments import _maintenance_times
from repro.core.maintenance import KPIndexMaintainer
from repro.datasets import load

stream = []


def record(self, u, v):
    stream.append((u, v))


KPIndexMaintainer.delete_edge = KPIndexMaintainer.insert_edge = record
_maintenance_times(load("facebook"), 25)
print(repr(stream))
"""


def test_fig15_stream_does_not_follow_string_hash():
    streams = [
        subprocess.run(
            [sys.executable, "-c", _FIG15_STREAM],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert streams[0].count("(") == 50
    assert streams[0] == streams[1]
