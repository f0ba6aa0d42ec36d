"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from kpbench import layers  # noqa: E402
from kpbench.inputs import make_plan  # noqa: E402
from kpbench.session import run_session  # noqa: E402
from kpbench.stats import tail_quantile  # noqa: E402
from kpbench.tracer import SpanIndex, Tracer, install  # noqa: E402


def traced_counts(workdir: str) -> dict:
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        out = run_session("facebook", 7, make_plan(1), workdir, tracer=tracer)
    finally:
        uninstall()
    assert out.failed == 0
    return layers.compute(SpanIndex(tracer.spans), out.counts, 1.0)


def test_deterministic_counts_repeat_across_runs_of_one_seed(tmp_path):
    first = traced_counts(str(tmp_path / "a"))
    second = traced_counts(str(tmp_path / "b"))
    for name in layers.DETERMINISTIC:
        assert first[name] == second[name], name
    assert first["core.vertices_repeeled"] > 0
    assert first["service.replayed_records"] == 2


def test_wrong_answer_fails_the_run(monkeypatch, capsys):
    from repro.service.server import KPCoreServer

    real_query = KPCoreServer.query

    def drop_one(self, k, p):
        return real_query(self, k, p)[1:]

    monkeypatch.setattr(KPCoreServer, "query", drop_one)
    monkeypatch.chdir(ROOT)
    status = run.main(["--workload", "dense", "--seed", "3", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _moves) in layers.LAYERS.items()
    }


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.parametrize("n, expected", [(9, 0.5), (100, 0.9), (2000, 0.99), (10000, 0.999)])
def test_tail_quantile_keeps_ten_samples_beyond(n, expected):
    assert tail_quantile(n) == expected
