"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph.io import write_edge_list


@pytest.fixture
def edge_list_file(tmp_path, figure1_like_graph):
    path = tmp_path / "graph.txt"
    write_edge_list(figure1_like_graph, path)
    return str(path)


class TestStats:
    def test_prints_counts(self, edge_list_file, capsys):
        assert main(["stats", edge_list_file]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out
        assert "degeneracy" in out

    def test_missing_file(self, capsys):
        assert main(["stats", "/no/such/file"]) == 1
        assert "error" in capsys.readouterr().err


class TestKpCore:
    def test_members_printed(self, edge_list_file, capsys):
        assert main(["kpcore", edge_list_file, "-k", "3", "-p", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "-core:" in out

    def test_invalid_p_reports_error(self, edge_list_file, capsys):
        assert main(["kpcore", edge_list_file, "-k", "3", "-p", "1.5"]) == 1
        assert "error" in capsys.readouterr().err


class TestDecompose:
    def test_p_numbers_listed(self, edge_list_file, capsys):
        assert main(["decompose", edge_list_file, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "p-numbers for k=2" in out
        # tab-separated vertex/value lines
        lines = [l for l in out.splitlines() if "\t" in l]
        assert lines
        for line in lines:
            float(line.split("\t")[1])

    def test_engine_flag_matches_default(self, edge_list_file, capsys):
        assert main(["decompose", edge_list_file, "-k", "2"]) == 0
        default_out = capsys.readouterr().out
        assert main(
            ["decompose", edge_list_file, "-k", "2", "--engine", "heap"]
        ) == 0
        assert capsys.readouterr().out == default_out

    def test_full_decomposition_summary(self, edge_list_file, capsys):
        assert main(["decompose", edge_list_file]) == 0
        out = capsys.readouterr().out
        assert "degeneracy=" in out
        assert "k=1\t" in out

    def test_parallel_full_decomposition(self, edge_list_file, capsys):
        assert main(["decompose", edge_list_file]) == 0
        serial_out = capsys.readouterr().out.replace("workers=1", "workers=2")
        assert main(["decompose", edge_list_file, "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_workers_with_fixed_k_rejected(self, edge_list_file, capsys):
        assert main(
            ["decompose", edge_list_file, "-k", "2", "--workers", "2"]
        ) == 2
        assert "error" in capsys.readouterr().err


class TestIndexCommands:
    def test_build_then_query_round_trip(self, edge_list_file, tmp_path, capsys):
        index_path = str(tmp_path / "index.json")
        assert main(["index", "build", edge_list_file, "-o", index_path]) == 0
        document = json.load(open(index_path))
        assert document["format_version"] == 2
        assert "arrays" in document["payload"]
        assert "fingerprint" in document
        capsys.readouterr()
        assert main(["index", "query", index_path, "-k", "3", "-p", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "(3,0.5)-core" in out

    def test_query_corrupt_index_reports_error(self, tmp_path, capsys):
        # Truncated JSON must exit 1 with an `error:` line, not a traceback.
        path = tmp_path / "bad.json"
        path.write_text('{"num_edges": 3')
        assert main(["index", "query", str(path), "-k", "2", "-p", "0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_query_foreign_json_reports_error(self, tmp_path, capsys):
        path = tmp_path / "foreign.json"
        path.write_text('{"hello": "world"}')
        assert main(["index", "query", str(path), "-k", "2", "-p", "0.5"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_build_into_directory_reports_error(
        self, edge_list_file, tmp_path, capsys
    ):
        # IsADirectoryError is an OSError outside ReproError; it must be
        # reported cleanly instead of escaping as a traceback.
        assert main(
            ["index", "build", edge_list_file, "-o", str(tmp_path)]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestIndexUpdateRecover:
    @staticmethod
    def _write_stream(path, lines):
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def test_update_then_recover_round_trip(self, tmp_path, capsys):
        stream = self._write_stream(
            tmp_path / "stream.txt",
            ["+ 1 2", "+ 2 3", "+ 3 1", "+ 1 4", "- 1 4"],
        )
        state = str(tmp_path / "state")
        assert main(
            ["index", "update", state, "--stream", stream,
             "--checkpoint-every", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "applied 5 updates" in out
        assert main(["index", "recover", state]) == 0
        out = capsys.readouterr().out
        assert "recovered from checkpoint" in out

    def test_update_skip_policy_counts_duplicates(self, tmp_path, capsys):
        stream = self._write_stream(
            tmp_path / "stream.txt", ["+ 1 2", "+ 1 2", "- 9 9"]
        )
        state = str(tmp_path / "state")
        assert main(
            ["index", "update", state, "--stream", stream,
             "--on-error", "skip"]
        ) == 0
        assert "skipped 2" in capsys.readouterr().out

    def test_update_fail_policy_reports_error(self, tmp_path, capsys):
        stream = self._write_stream(tmp_path / "stream.txt", ["- 1 2"])
        state = str(tmp_path / "state")
        assert main(["index", "update", state, "--stream", stream]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_update_rejects_temporal_stream_without_optin(
        self, tmp_path, capsys
    ):
        stream = self._write_stream(tmp_path / "stream.txt", ["1 2 1700000000"])
        state = str(tmp_path / "state")
        assert main(["index", "update", state, "--stream", stream]) == 1
        assert "line 1" in capsys.readouterr().err
        capsys.readouterr()
        assert main(
            ["index", "update", state, "--stream", stream,
             "--ignore-extra-tokens"]
        ) == 0
        assert "applied 1 updates" in capsys.readouterr().out

    def test_recover_missing_directory_reports_error(self, tmp_path, capsys):
        assert main(["index", "recover", str(tmp_path / "nope")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestIndexServeBench:
    SPEC = "ops=60,vertices=12,kmax=3,prefill=15"

    def test_reports_throughput_and_cache(self, tmp_path, capsys):
        assert main(
            ["index", "serve-bench", str(tmp_path / "state"),
             "--workload", self.SPEC, "--threads", "2", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "threads 2  batch 1  cache on" in out
        assert "throughput" in out
        assert "latency ms" in out
        assert "hit_rate=" in out

    def test_probe_every_audits_against_naive(self, tmp_path, capsys):
        assert main(
            ["index", "serve-bench", str(tmp_path / "state"),
             "--workload", self.SPEC, "--threads", "1", "--seed", "1",
             "--probe-every", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "stale_serves 0 (vs naive fixpoint)" in out

    def test_no_cache_and_json_output(self, tmp_path, capsys):
        report = tmp_path / "serve.json"
        assert main(
            ["index", "serve-bench", str(tmp_path / "state"),
             "--workload", self.SPEC, "--no-cache", "--json", str(report)]
        ) == 0
        out = capsys.readouterr().out
        assert "cache off" in out
        document = json.load(open(report))
        assert document["cache"] is False
        assert document["cache_stats"]["hits"] == 0
        assert document["queries"] > 0

    def test_bad_workload_spec_reports_error(self, tmp_path, capsys):
        assert main(
            ["index", "serve-bench", str(tmp_path / "state"),
             "--workload", "bogus=1"]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_batch_size_flag_routes_updates_through_apply_batch(
        self, tmp_path, capsys
    ):
        report = tmp_path / "serve.json"
        assert main(
            ["index", "serve-bench", str(tmp_path / "state"),
             "--workload", self.SPEC, "--threads", "1", "--seed", "1",
             "--batch-size", "8", "--probe-every", "1",
             "--json", str(report)]
        ) == 0
        out = capsys.readouterr().out
        assert "batch 8" in out
        assert "stale_serves 0 (vs naive fixpoint)" in out
        document = json.load(open(report))
        assert document["batch"] == 8
        assert ",batch=8" in document["spec"]

    def test_batch_key_in_spec_is_honoured(self, tmp_path, capsys):
        assert main(
            ["index", "serve-bench", str(tmp_path / "state"),
             "--workload", self.SPEC + ",batch=4", "--threads", "1",
             "--seed", "1"]
        ) == 0
        assert "batch 4" in capsys.readouterr().out


class TestDataset:
    def test_stats_only(self, capsys):
        assert main(["dataset", "facebook"]) == 0
        out = capsys.readouterr().out
        assert "facebook" in out and "davg" in out

    def test_write_edge_list(self, tmp_path, capsys):
        target = str(tmp_path / "fb.txt")
        assert main(["dataset", "facebook", "-o", target]) == 0
        content = open(target).read()
        assert content.startswith("# synthetic stand-in for facebook")

    def test_unknown_dataset(self, capsys):
        assert main(["dataset", "imaginary"]) == 1
        assert "unknown dataset" in capsys.readouterr().err


class TestBuiltinGraphs:
    def test_builtin_prefix_loads_a_dataset(self, capsys):
        assert main(["stats", "builtin:facebook"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "degeneracy" in out

    def test_unknown_builtin_reports_error(self, capsys):
        assert main(["stats", "builtin:imaginary"]) == 1
        assert "error" in capsys.readouterr().err


class TestProfile:
    ARGS = ["kpcore", "builtin:facebook", "-k", "3", "-p", "0.5"]

    def test_profile_prints_metrics_report(self, capsys):
        assert main(["profile", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "profile: kpcore" in out
        assert "kcore.peel.calls" in out
        assert "kpcore" in out  # span table

    def test_profile_restores_the_previous_collector(self):
        from repro.obs import get_collector

        before = get_collector()
        main(["profile", *self.ARGS])
        assert get_collector() is before

    def test_profile_json_snapshot_round_trips(self, tmp_path, capsys):
        from repro.obs import MetricsSnapshot, render_report

        target = str(tmp_path / "metrics.json")
        assert main(["profile", "--json", target, *self.ARGS]) == 0
        capsys.readouterr()
        snapshot = MetricsSnapshot.load(target)
        assert snapshot.counter("kpcore.calls") == 1
        # the reloaded snapshot renders through the same reporting table
        assert "kcore.peel.calls" in render_report(snapshot)

    def test_profile_without_command_errors(self, capsys):
        assert main(["profile"]) == 2
        assert "error" in capsys.readouterr().err

    def test_profile_cannot_wrap_itself(self, capsys):
        assert main(["profile", "profile", "stats", "x"]) == 2
        assert "error" in capsys.readouterr().err


class TestTrace:
    """The trace half of ``repro profile``: attribution tables and the
    Chrome / JSONL exports."""

    SPEC = "ops=60,vertices=12,kmax=3,prefill=15"

    def _trace_args(self, tmp_path, *extra):
        return [
            "profile", *extra,
            "index", "serve-bench", str(tmp_path / "state"),
            "--workload", self.SPEC, "--threads", "1", "--seed", "1",
        ]

    def test_attribution_table_splits_latency_buckets(self, tmp_path, capsys):
        assert main(self._trace_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "profile: index serve-bench" in out  # the metrics report
        assert "service.cache.hits" in out
        assert "trace attribution" in out
        for bucket in ("lock-wait", "cache-probe", "answer-build"):
            assert bucket in out
        assert "slowest spans" in out

    def test_chrome_export_is_schema_valid(self, tmp_path, capsys):
        from repro.obs import MetricsSnapshot
        from repro.obs.trace_export import validate_chrome_trace

        trace_json = tmp_path / "trace.json"
        assert main(
            self._trace_args(tmp_path, "--json", str(trace_json))
        ) == 0
        capsys.readouterr()
        payload = json.load(open(trace_json))
        assert validate_chrome_trace(payload) == []
        assert payload["traceEvents"], "traced run must emit events"
        names = {event["name"] for event in payload["traceEvents"]}
        assert "trace.command" in names
        # serve-bench issues batched reads, so the request root is query_many
        assert "trace.server.query_many" in names
        assert "trace.query.answer" in names
        # the same file carries the metrics snapshot
        snapshot = MetricsSnapshot.load(str(trace_json))
        assert snapshot.counter("service.server.queries") > 0

    def test_jsonl_export_round_trips(self, tmp_path, capsys):
        from repro.obs.trace_export import read_jsonl

        trace_jsonl = tmp_path / "trace.jsonl"
        assert main(
            self._trace_args(tmp_path, "--jsonl", str(trace_jsonl))
        ) == 0
        capsys.readouterr()
        events = read_jsonl(trace_jsonl)
        assert events
        assert all(event.trace_id for event in events)

    def test_trace_restores_the_previous_tracer(self, tmp_path, capsys):
        """An outer collector is restored and receives none of the
        wrapped command's events."""
        from repro.obs import collecting, get_collector

        with collecting() as outer:
            main(self._trace_args(tmp_path))
            assert get_collector() is outer
        capsys.readouterr()
        assert outer.events() == []

    def test_buffer_overflow_is_reported(self, tmp_path, capsys):
        assert main(self._trace_args(tmp_path, "--buffer", "4")) == 0
        out = capsys.readouterr().out
        assert "ring buffer dropped" in out

    def test_trace_without_command_errors(self, capsys):
        assert main(["profile", "--json", "t.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_cannot_wrap_itself(self, capsys):
        assert main(["profile", "--json", "t.json", "profile", "stats", "x"]) == 2
        assert "error" in capsys.readouterr().err


class TestBenchDiff:
    @staticmethod
    def _write(path, entries):
        path.write_text(json.dumps({"entries": entries}))
        return str(path)

    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json", [{"engine": "bucket", "min_s": 1.0}]
        )
        new = self._write(
            tmp_path / "new.json", [{"engine": "bucket", "min_s": 1.05}]
        )
        assert main(["bench", "diff", old, new]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json", [{"engine": "bucket", "min_s": 1.0}]
        )
        new = self._write(
            tmp_path / "new.json", [{"engine": "bucket", "min_s": 2.0}]
        )
        assert main(["bench", "diff", old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_tolerance_flag_loosens_the_gate(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json", [{"engine": "bucket", "min_s": 1.0}]
        )
        new = self._write(
            tmp_path / "new.json", [{"engine": "bucket", "min_s": 2.0}]
        )
        assert main(["bench", "diff", old, new, "--tolerance", "2.0"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_missing_file_reports_error(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", [])
        assert main(
            ["bench", "diff", old, str(tmp_path / "absent.json")]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_committed_serving_baseline_self_diffs_clean(self, capsys):
        assert main(
            ["bench", "diff", "BENCH_serve.json", "BENCH_serve.json"]
        ) == 0
        assert "no regressions" in capsys.readouterr().out


class TestReport:
    def test_table2(self, capsys):
        assert main(["report", "table2"]) == 0
        out = capsys.readouterr().out
        assert "orkut" in out

    def test_fig6(self, capsys):
        assert main(["report", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "|k-core|" in out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["report", "fig99"])
