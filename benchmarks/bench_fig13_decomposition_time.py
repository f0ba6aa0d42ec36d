"""Fig. 13 — decomposition time of kcoreDecomp vs kpCoreDecomp."""

import pytest

from repro.bench.experiments import fig13_rows
from repro.bench.reporting import print_table
from repro.core.decomposition import kp_core_decomposition
from repro.datasets import dataset_names
from repro.graph.compact import CompactAdjacency
from repro.kcore.decomposition import core_numbers_compact


@pytest.mark.parametrize("name", dataset_names())
def test_kcore_decomp(benchmark, graphs, name):
    graph = graphs[name]
    core, _ = benchmark.pedantic(
        lambda: core_numbers_compact(CompactAdjacency(graph)),
        rounds=3,
        iterations=1,
    )
    assert len(core) == graph.num_vertices


@pytest.mark.parametrize("name", dataset_names())
def test_kpcore_decomp(benchmark, graphs, name):
    graph = graphs[name]
    decomposition = benchmark.pedantic(
        kp_core_decomposition,
        args=(graph,),
        rounds=1,
        iterations=1,
    )
    assert decomposition.degeneracy >= 10


def test_report_fig13(benchmark):
    headers, rows = benchmark.pedantic(fig13_rows, rounds=1, iterations=1)
    print_table(headers, rows, title="Fig. 13: decomposition time")
    for name, t_core, t_kp, *_ in rows:
        # kpCoreDecomp repeats the peel per k: slower, by roughly d(G)-ish
        assert t_kp > t_core, name
