"""Ablation — what each maintenance ingredient buys.

Not a figure in the paper, but the design discussion of Sec. VI implies
it: on one heavy-tailed dataset, measure the window machinery
(Theorems 3-9 bounds, Theorem 6 skips, early stop) against re-peeling
every array an update reaches in full (the Theorem 2/7 skip rules only)
and against rebuild-per-update.
"""

import random

from repro.bench.experiments import ablation_rows
from repro.bench.reporting import print_table
from repro.core.maintenance import KPIndexMaintainer
from repro.graph.views import ordered_edges


def _cycle_factory(maintainer, edges):
    cursor = {"i": 0}

    def cycle():
        u, v = edges[cursor["i"] % len(edges)]
        cursor["i"] += 1
        maintainer.delete_edge(u, v)
        maintainer.insert_edge(u, v)

    return cycle


def test_range_mode(benchmark, graphs):
    maintainer = KPIndexMaintainer(graphs["gowalla"].copy())
    edges = random.Random(9).sample(ordered_edges(maintainer.graph), 20)
    benchmark.pedantic(_cycle_factory(maintainer, edges), rounds=10, iterations=1)


def test_report_ablation(benchmark):
    headers, rows = benchmark.pedantic(
        ablation_rows, kwargs={"dataset": "gowalla", "batch": 25}, rounds=1, iterations=1
    )
    print_table(headers, rows, title="Ablation: maintenance ingredients (gowalla)")
    (row,) = rows
    # the window bounds re-peel strictly fewer vertices than a full
    # re-peel of every reached array, and enable skips
    assert row[4] < row[7]
    assert row[5] > 0  # Theorem 6 fires
    assert row[6] > 0  # early stops fire
