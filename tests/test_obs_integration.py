"""Algorithm-level metric assertions: operation counts and pruning.

Two families of regression guards ride on the obs counters:

* **complexity** — the peel operation counters must scale linearly in the
  edge count, pinning the O(m) claim of Algorithm 1 to observable
  numbers (all graphs are seeded, so the counts are deterministic);
* **pruning** — the maintenance theorems (Thms. 2, 6, 7) must actually
  fire on workloads shaped to trigger them, and every recomputed
  ``[p_-, p_+]`` window must respect the Defs. 5-7 bounds.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core.decomposition import kp_core_decomposition
from repro.core.index import KPIndex
from repro.core.kpcore import kp_core_vertices
from repro.core.maintenance import KPIndexMaintainer
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi_gnm
from repro.obs import collecting, set_collector
from repro.obs import names


@pytest.fixture(autouse=True)
def _no_ambient_collector():
    previous = set_collector(None)
    yield
    set_collector(previous)


def _collect_kpcore(n: int, m: int, k: int = 4, p: float = 0.5):
    graph = erdos_renyi_gnm(n, m, seed=11)
    with collecting() as metrics:
        members = kp_core_vertices(graph, k, p)
    return members, metrics.snapshot()


# ----------------------------------------------------------------------
# operation counts scale linearly in m (satellite: complexity regression)
# ----------------------------------------------------------------------
class TestPeelComplexity:
    SMALL = (1500, 4500)
    LARGE = (6000, 18000)  # 4x the edges, same average degree

    @staticmethod
    def _operations(snapshot) -> int:
        """Total per-edge/per-vertex work of one kpCore run."""
        return snapshot.counter(names.KCORE_PEEL_EDGE_SCANS) + snapshot.counter(
            names.KPCORE_THRESHOLDS_TOTAL
        )

    def test_edge_scans_bounded_by_2m(self):
        for n, m in (self.SMALL, self.LARGE):
            _, snapshot = _collect_kpcore(n, m)
            assert snapshot.counter(names.KCORE_PEEL_EDGE_SCANS) <= 2 * m
            assert snapshot.counter(names.KPCORE_THRESHOLDS_TOTAL) == n

    def test_operation_ratio_tracks_edge_ratio(self):
        _, small = _collect_kpcore(*self.SMALL)
        _, large = _collect_kpcore(*self.LARGE)
        ratio = self._operations(large) / self._operations(small)
        edge_ratio = self.LARGE[1] / self.SMALL[1]  # = 4.0
        # Linear in m: the work ratio stays within a constant factor of
        # the edge ratio.  A superlinear regression (say O(m^2)) would
        # push the ratio toward edge_ratio**2 = 16.
        assert edge_ratio / 1.6 <= ratio <= edge_ratio * 1.6

    def test_counters_agree_with_returned_core(self):
        members, snapshot = _collect_kpcore(*self.SMALL)
        n = self.SMALL[0]
        survivors = snapshot.counter(names.KCORE_PEEL_SURVIVORS)
        peeled = snapshot.counter(names.KCORE_PEEL_PEELED)
        assert survivors == len(members)
        assert survivors + peeled == n
        assert snapshot.counter(names.KPCORE_CALLS) == 1
        assert snapshot.spans[names.KPCORE_SPAN].count == 1


class TestDecompositionCounters:
    def test_rounds_and_peels_match_the_output(self):
        graph = erdos_renyi_gnm(200, 700, seed=3)
        with collecting() as metrics:
            decomposition = kp_core_decomposition(graph)
        snapshot = metrics.snapshot()
        assert (
            snapshot.counter(names.DECOMP_ROUNDS) == decomposition.degeneracy
        )
        total_array_entries = sum(
            len(fixed) for fixed in decomposition.arrays.values()
        )
        assert snapshot.counter(names.DECOMP_PEELS) == total_array_entries
        hist = snapshot.histograms[names.DECOMP_ARRAY_SIZE]
        assert hist.count == decomposition.degeneracy
        assert hist.total == total_array_entries
        # every re-key recomputes one threshold; the count is bounded by
        # the total peel-adjacency work, sum over k of 2*m_k
        assert snapshot.counter(names.DECOMP_REKEYS) <= (
            decomposition.degeneracy * 2 * graph.num_edges
        )

    def test_span_tree_has_the_three_phases(self):
        graph = erdos_renyi_gnm(120, 360, seed=9)
        with collecting() as metrics:
            kp_core_decomposition(graph)
        spans = metrics.snapshot().spans
        root = names.DECOMP_SPAN
        for child in (
            names.DECOMP_SPAN_CORE_NUMBERS,
            names.DECOMP_SPAN_SORT,
            names.DECOMP_SPAN_PEEL,
        ):
            assert f"{root}/{child}" in spans
        # direct children only: the per-k peel records nest one level
        # deeper (under peel_all_k) and are already inside its seconds
        children_total = sum(
            summary.seconds
            for path, summary in spans.items()
            if path.startswith(f"{root}/") and path.count("/") == 1
        )
        assert spans[root].seconds >= children_total


# ----------------------------------------------------------------------
# maintenance pruning: the theorems fire, the windows respect the bounds
# ----------------------------------------------------------------------
class TestMaintenancePruning:
    def test_thm6_fires_and_windows_respect_definition_bounds(self):
        graph = erdos_renyi_gnm(300, 1200, seed=5)
        maintainer = KPIndexMaintainer(graph)
        rng = random.Random(7)
        edges = rng.sample(list(graph.edges()), 20)
        with collecting() as metrics:
            for u, v in edges:
                maintainer.delete_edge(u, v)
            for u, v in edges:
                maintainer.insert_edge(u, v)
        snapshot = metrics.snapshot()

        assert snapshot.counter(names.MAINT_THM6_SKIPS) >= 1
        # Single-edge updates are batches of one: every examined array is
        # either skipped by Theorem 6 or re-peeled through one recorded
        # window (no array of a one-op batch re-peels in full).
        repeeled = snapshot.counter(names.MAINT_ARRAYS_REPEELED)
        assert repeeled + snapshot.counter(
            names.MAINT_THM6_SKIPS
        ) == snapshot.counter(names.MAINT_ARRAYS_EXAMINED)
        assert snapshot.histograms[names.MAINT_WINDOW_WIDTH].count == repeeled

        # Defs. 5-7: windows are real sub-intervals of [0, 1], never
        # inverted — a negative width would mean p_- exceeded p_+.
        width = snapshot.histograms[names.MAINT_WINDOW_WIDTH]
        p_minus = snapshot.histograms[names.MAINT_WINDOW_P_MINUS]
        p_plus = snapshot.histograms[names.MAINT_WINDOW_P_PLUS]
        assert width.count == p_minus.count == p_plus.count
        assert width.minimum >= 0.0
        assert p_minus.minimum >= 0.0
        assert p_plus.maximum <= 1.0
        assert p_minus.maximum <= p_plus.maximum

        # both update spans were recorded, once per edge operation
        assert snapshot.spans[names.MAINT_SPAN_INSERT].count == len(edges)
        assert snapshot.spans[names.MAINT_SPAN_DELETE].count == len(edges)

    def test_thm2_and_thm7_skip_arrays_above_the_touched_cores(self):
        # A dense clique drives the degeneracy to 11 while the ring
        # endpoints stay at core number 2, so the k-range cut (Thm. 2 on
        # insert, Thm. 7 on delete) provably skips the high-k arrays.
        clique = list(combinations(range(12), 2))
        ring = [(100 + i, 100 + (i + 1) % 20) for i in range(20)]
        graph = Graph(clique + ring)
        maintainer = KPIndexMaintainer(graph)
        assert maintainer.index.degeneracy == 11

        with collecting() as metrics:
            maintainer.insert_edge(100, 103)
            maintainer.delete_edge(100, 103)
        snapshot = metrics.snapshot()
        assert snapshot.counter(names.MAINT_THM2_SKIPS) >= 1
        assert snapshot.counter(names.MAINT_THM7_SKIPS) >= 1


# ----------------------------------------------------------------------
# index query touch counts
# ----------------------------------------------------------------------
class TestQueryCounters:
    def test_touched_vertices_equal_answer_sizes(self):
        graph = erdos_renyi_gnm(200, 800, seed=13)
        index = KPIndex.build(graph)
        with collecting() as metrics:
            sizes = [
                len(index.query(k, p))
                for k, p in ((2, 0.3), (3, 0.5), (50, 0.5))
            ]
        snapshot = metrics.snapshot()
        assert snapshot.counter(names.INDEX_QUERIES) == 3
        assert snapshot.counter(names.INDEX_VERTICES_TOUCHED) == sum(sizes)
        answer = snapshot.histograms[names.INDEX_ANSWER_SIZE]
        assert answer.count == 3
        assert answer.maximum == max(sizes)
        # k=50 exceeds the degeneracy: that query is empty
        assert sizes[-1] == 0
        assert snapshot.counter(names.INDEX_EMPTY_QUERIES) >= 1
