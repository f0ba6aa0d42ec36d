"""Fig. 14 — scalability of the decompositions over vertex/edge samples."""

import pytest

from repro.bench.experiments import fig14_rows
from repro.bench.reporting import print_table
from repro.core.decomposition import kp_core_decomposition
from repro.graph.views import sample_edges, sample_vertices


@pytest.mark.parametrize("ratio", (0.2, 0.6, 1.0))
def test_kpcore_decomp_on_vertex_samples(benchmark, graphs, ratio):
    sampled = sample_vertices(graphs["orkut"], ratio, seed=17)
    benchmark.pedantic(
        kp_core_decomposition, args=(sampled,), rounds=1, iterations=1
    )


@pytest.mark.parametrize("ratio", (0.2, 0.6, 1.0))
def test_kpcore_decomp_on_edge_samples(benchmark, graphs, ratio):
    sampled = sample_edges(graphs["orkut"], ratio, seed=17)
    benchmark.pedantic(
        kp_core_decomposition, args=(sampled,), rounds=1, iterations=1
    )


def test_kpcore_decomp_full_graph(benchmark, graphs):
    decomposition = benchmark.pedantic(
        kp_core_decomposition, args=(graphs["orkut"],), rounds=1, iterations=1
    )
    assert decomposition.degeneracy >= 10


def test_report_fig14(benchmark):
    headers, rows = benchmark.pedantic(fig14_rows, rounds=1, iterations=1)
    print_table(
        headers, rows, title="Fig. 14: scalability of decomposition (orkut)"
    )
    # both decompositions get monotonically more expensive with sample size
    for mode in ("vertex", "edge"):
        times = [row[5] for row in rows if row[0] == mode]
        assert times[0] < times[-1]
