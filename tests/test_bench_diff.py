"""Unit tests for bench regression diffing (``repro bench diff``)."""

from __future__ import annotations

import json

import pytest

from repro.bench.diffing import (
    DEFAULT_TOLERANCE,
    diff_files,
    diff_payloads,
    render_diff,
)
from repro.errors import ParameterError


def _payload(entries, audits=None, **top):
    payload = {"entries": entries}
    if audits is not None:
        payload["audits"] = audits
    payload.update(top)
    return payload


def _entry(**overrides):
    entry = {"dataset": "orkut", "workers": 1, "min_s": 1.0, "median_s": 1.1}
    entry.update(overrides)
    return entry


class TestMatching:
    def test_identical_payloads_do_not_regress(self):
        payload = _payload([_entry()])
        diff = diff_payloads(payload, payload)
        assert not diff.regressed
        assert diff.entries[0].status == "matched"

    def test_entries_match_on_identity_keys(self):
        old = _payload([_entry(workers=1), _entry(workers=4, min_s=0.5)])
        new = _payload([_entry(workers=4, min_s=0.5), _entry(workers=1)])
        diff = diff_payloads(old, new)
        assert not diff.regressed
        assert all(e.status == "matched" for e in diff.entries)

    def test_missing_entry_in_new_is_a_regression(self):
        old = _payload([_entry(workers=1), _entry(workers=4)])
        new = _payload([_entry(workers=1)])
        diff = diff_payloads(old, new)
        assert diff.regressed
        statuses = {e.identity: e.status for e in diff.entries}
        assert statuses["dataset=orkut workers=4"] == "missing_in_new"

    def test_new_entry_is_reported_but_not_a_regression(self):
        old = _payload([_entry(workers=1)])
        new = _payload([_entry(workers=1), _entry(workers=4)])
        diff = diff_payloads(old, new)
        assert not diff.regressed
        assert any(e.status == "missing_in_old" for e in diff.entries)

    def test_audits_are_compared_too(self):
        old = _payload([], audits=[{"cache": True, "stale_serves": 0}])
        new = _payload([], audits=[{"cache": True, "stale_serves": 3}])
        diff = diff_payloads(old, new)
        assert diff.regressed  # stale went 0 -> 3 (lower is better)


class TestTolerance:
    def test_slowdown_within_tolerance_is_noise(self):
        old = _payload([_entry(min_s=1.0)])
        new = _payload([_entry(min_s=1.2)])  # +20% < 25% default
        assert not diff_payloads(old, new).regressed

    def test_slowdown_beyond_tolerance_regresses(self):
        old = _payload([_entry(min_s=1.0)])
        new = _payload([_entry(min_s=1.3)])  # +30%
        diff = diff_payloads(old, new)
        assert diff.regressed
        (delta,) = diff.entries[0].regressions
        assert delta.name == "min_s"
        assert delta.relative_change == pytest.approx(0.3)

    def test_higher_is_better_metrics_regress_downward(self):
        old = _payload([{"threads": 2, "qps": 1000.0}])
        new = _payload([{"threads": 2, "qps": 100.0}])
        diff = diff_payloads(old, new)
        assert diff.regressed
        up = diff_payloads(new, old)
        assert not up.regressed
        assert up.entries[0].deltas[0].improved

    def test_custom_tolerance(self):
        old = _payload([_entry(min_s=1.0)])
        new = _payload([_entry(min_s=1.2)])
        assert diff_payloads(old, new, tolerance=0.1).regressed
        assert not diff_payloads(old, new, tolerance=0.5).regressed

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ParameterError, match="tolerance"):
            diff_payloads(_payload([]), _payload([]), tolerance=-0.1)

    def test_nested_latency_percentiles_are_directional(self):
        old = _payload([{"threads": 1, "latency_ms": {"p99": 1.0}}])
        new = _payload([{"threads": 1, "latency_ms": {"p99": 2.0}}])
        assert diff_payloads(old, new).regressed

    def test_undirected_metrics_never_regress(self):
        old = _payload([{"threads": 1, "queries": 100}])
        new = _payload([{"threads": 1, "queries": 900}])
        assert not diff_payloads(old, new).regressed

    def test_zero_baseline_regresses_only_when_bad_appears(self):
        old = _payload([{"cache": True, "stale_serves": 0}])
        new = _payload([{"cache": True, "stale_serves": 1}])
        diff = diff_payloads(old, new)
        assert diff.regressed
        (delta,) = diff.entries[0].regressions
        assert delta.relative_change == float("inf")


class TestNotesAndLabels:
    def test_latency_method_mismatch_noted(self):
        old = _payload([_entry()])
        new = _payload([_entry()], latency_method="interpolated-reservoir")
        diff = diff_payloads(old, new)
        assert any("latency methods differ" in note for note in diff.notes)
        assert not diff.regressed

    def test_provenance_labels_rendered(self):
        prov = {
            "git_commit": "abc1234",
            "recorded_at": "2026-08-08T00:00:00+00:00",
            "python": "3.11.0",
            "cpus": 4,
        }
        diff = diff_payloads(
            _payload([_entry()], provenance=prov), _payload([_entry()])
        )
        assert "abc1234" in diff.old_label
        assert diff.new_label == "no provenance recorded"

    def test_render_mentions_regressions_and_count(self):
        old = _payload([_entry(min_s=1.0)])
        new = _payload([_entry(min_s=2.0)])
        text = render_diff(diff_payloads(old, new))
        assert "REGRESSION" in text
        assert "1 regression(s) across 1 entries" in text
        clean = render_diff(diff_payloads(old, old))
        assert "no regressions across 1 entries" in clean

    def test_default_tolerance_value(self):
        assert DEFAULT_TOLERANCE == 0.25


class TestFiles:
    def test_diff_files_round_trip(self, tmp_path):
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(_payload([_entry(min_s=1.0)])))
        new_path.write_text(json.dumps(_payload([_entry(min_s=1.0)])))
        assert not diff_files(old_path, new_path).regressed

    def test_missing_file_raises_parameter_error(self, tmp_path):
        present = tmp_path / "old.json"
        present.write_text("{}")
        with pytest.raises(ParameterError, match="not found"):
            diff_files(present, tmp_path / "absent.json")

    def test_invalid_json_raises_parameter_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ParameterError, match="valid JSON"):
            diff_files(bad, bad)
