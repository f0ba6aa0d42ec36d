"""Unit tests for the CSR snapshot."""

import pickle

import pytest

from repro.errors import VertexNotFoundError
from repro.graph.adjacency import Graph
from repro.graph.compact import CompactAdjacency
from repro.graph.generators import erdos_renyi_gnm
from repro.kcore.decomposition import core_numbers_compact


class TestLayout:
    def test_sizes(self, two_triangles_bridge):
        snap = CompactAdjacency(two_triangles_bridge)
        assert snap.num_vertices == 6
        assert snap.num_edges == 7
        assert len(snap.indices) == 14  # both directions

    def test_round_trip_neighbors(self, figure1_like_graph):
        g = figure1_like_graph
        snap = CompactAdjacency(g)
        for v in g.vertices():
            i = snap.index_of(v)
            got = {snap.labels[j] for j in snap.neighbor_slice(i)}
            assert got == g.neighbors(v)

    def test_degrees_match(self, figure1_like_graph):
        g = figure1_like_graph
        snap = CompactAdjacency(g)
        for v in g.vertices():
            assert snap.degree(snap.index_of(v)) == g.degree(v)
        assert snap.degrees() == [
            g.degree(snap.labels[i]) for i in range(snap.num_vertices)
        ]

    def test_index_of_unknown_raises(self, triangle):
        snap = CompactAdjacency(triangle)
        with pytest.raises(VertexNotFoundError):
            snap.index_of(42)

    def test_iter_neighbors_matches_slice(self, triangle_with_tail):
        snap = CompactAdjacency(triangle_with_tail)
        for i in range(snap.num_vertices):
            assert list(snap.iter_neighbors(i)) == list(snap.neighbor_slice(i))

    def test_empty_graph(self):
        snap = CompactAdjacency(Graph())
        assert snap.num_vertices == 0
        assert snap.num_edges == 0


class TestRankPrefix:
    def test_sorted_prefixes(self):
        g = erdos_renyi_gnm(40, 120, seed=5)
        snap = CompactAdjacency(g)
        rank = [i % 5 for i in range(snap.num_vertices)]
        snap.sort_neighbors_by_rank_desc(rank)
        for i in range(snap.num_vertices):
            ranks = [rank[j] for j in snap.neighbor_slice(i)]
            assert ranks == sorted(ranks, reverse=True)

    def test_prefix_length_counts_threshold(self):
        g = erdos_renyi_gnm(40, 120, seed=6)
        snap = CompactAdjacency(g)
        rank = [(i * 7) % 11 for i in range(snap.num_vertices)]
        snap.sort_neighbors_by_rank_desc(rank)
        for i in range(snap.num_vertices):
            for k in range(0, 12):
                expected = sum(1 for j in snap.neighbor_slice(i) if rank[j] >= k)
                assert snap.rank_prefix_length(i, k, rank) == expected

    def test_prefix_length_degenerate_cases(self, triangle):
        snap = CompactAdjacency(triangle)
        rank = [1, 1, 1]
        snap.sort_neighbors_by_rank_desc(rank)
        i = snap.index_of(0)
        assert snap.rank_prefix_length(i, 0, rank) == 2
        assert snap.rank_prefix_length(i, 2, rank) == 0


class TestPickling:
    """Default pickling round-trips a snapshot (no custom hooks)."""

    def test_round_trip_preserves_csr_and_labels(self, figure1_like_graph):
        snapshot = CompactAdjacency(figure1_like_graph)
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.indptr == snapshot.indptr
        assert clone.indices == snapshot.indices
        assert clone.labels == snapshot.labels

    def test_round_trip_preserves_label_index(self, figure1_like_graph):
        snapshot = CompactAdjacency(figure1_like_graph)
        clone = pickle.loads(pickle.dumps(snapshot))
        for v in figure1_like_graph.vertices():
            assert clone.index_of(v) == snapshot.index_of(v)

    def test_round_trip_preserves_rank_sorting(self):
        g = erdos_renyi_gnm(40, 160, seed=3)
        snapshot = CompactAdjacency(g)
        core, _ = core_numbers_compact(snapshot)
        snapshot.sort_neighbors_by_rank_desc(core)
        clone = pickle.loads(pickle.dumps(snapshot))
        for i in range(snapshot.num_vertices):
            for k in range(0, max(core, default=0) + 2):
                assert clone.rank_prefix_length(
                    i, k, core
                ) == snapshot.rank_prefix_length(i, k, core)
