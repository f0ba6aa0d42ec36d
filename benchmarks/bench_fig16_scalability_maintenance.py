"""Fig. 16 — scalability of KP-Index maintenance over graph samples."""

import random

import pytest

from repro.bench.experiments import fig16_rows
from repro.bench.reporting import print_table
from repro.core.maintenance import KPIndexMaintainer
from repro.graph.views import ordered_edges, sample_vertices


@pytest.mark.parametrize("ratio", (0.2, 0.6, 1.0))
def test_maintenance_on_samples(benchmark, graphs, ratio):
    sampled = sample_vertices(graphs["orkut"], ratio, seed=19)
    maintainer = KPIndexMaintainer(sampled)
    edges = random.Random(7).sample(
        ordered_edges(maintainer.graph), min(20, maintainer.graph.num_edges)
    )
    cursor = {"i": 0}

    def cycle():
        u, v = edges[cursor["i"] % len(edges)]
        cursor["i"] += 1
        maintainer.delete_edge(u, v)
        maintainer.insert_edge(u, v)

    benchmark.pedantic(cycle, rounds=5, iterations=1)


def test_report_fig16(benchmark):
    headers, rows = benchmark.pedantic(
        fig16_rows, kwargs={"dataset": "orkut", "batch": 12}, rounds=1, iterations=1
    )
    print_table(
        headers, rows,
        title="Fig. 16: scalability of KP-Index maintenance (orkut, batch=12)",
    )
    # maintenance cost grows with the sample, but no faster than rebuild
    # does — per-edge updates stay a bounded fraction of a rebuild
    for mode in ("vertex", "edge"):
        series = [row for row in rows if row[0] == mode]
        first, last = series[0], series[-1]
        assert last[3] >= first[3] * 0.5  # insert time roughly grows
        assert last[5] > first[5]  # rebuild clearly grows
