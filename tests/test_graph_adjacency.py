"""Unit tests for the dynamic adjacency-set Graph."""

import os
import subprocess
import sys

import pytest

from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.graph.adjacency import Graph


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.vertices()) == []
        assert list(g.edges()) == []

    def test_from_edge_iterable(self):
        g = Graph([(1, 2), (2, 3)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_from_edges_with_isolated_vertices(self):
        g = Graph.from_edges([(1, 2)], vertices=[7, 8])
        assert g.has_vertex(7)
        assert g.degree(7) == 0
        assert g.num_vertices == 4

    def test_duplicate_edges_merge(self):
        g = Graph([(1, 2), (2, 1), (1, 2)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph([(1, 1)])

    def test_copy_is_independent(self):
        g = Graph([(1, 2)])
        clone = g.copy()
        clone.add_edge(2, 3)
        assert g.num_edges == 1
        assert clone.num_edges == 2
        assert not g.has_vertex(3)


class TestVertexOps:
    def test_add_vertex_idempotent(self):
        g = Graph()
        assert g.add_vertex(5) is True
        assert g.add_vertex(5) is False
        assert g.num_vertices == 1

    def test_remove_vertex_drops_incident_edges(self):
        g = Graph([(1, 2), (1, 3), (2, 3)])
        g.remove_vertex(1)
        assert g.num_edges == 1
        assert not g.has_vertex(1)
        assert g.has_edge(2, 3)

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(VertexNotFoundError):
            Graph().remove_vertex(9)

    def test_contains(self):
        g = Graph([(1, 2)])
        assert 1 in g
        assert 9 not in g


class TestEdgeOps:
    def test_add_edge_creates_endpoints(self):
        g = Graph()
        assert g.add_edge("a", "b") is True
        assert g.has_vertex("a") and g.has_vertex("b")

    def test_add_edge_duplicate_returns_false(self):
        g = Graph([(1, 2)])
        assert g.add_edge(1, 2) is False
        assert g.add_edge(2, 1) is False
        assert g.num_edges == 1

    def test_add_edge_strict_raises_on_duplicate(self):
        g = Graph([(1, 2)])
        with pytest.raises(EdgeExistsError):
            g.add_edge_strict(2, 1)

    def test_add_edges_counts_new_only(self):
        g = Graph([(1, 2)])
        assert g.add_edges([(1, 2), (2, 3), (3, 1)]) == 2

    def test_remove_edge_keeps_endpoints(self):
        g = Graph([(1, 2)])
        g.remove_edge(1, 2)
        assert g.num_edges == 0
        assert g.has_vertex(1) and g.has_vertex(2)

    def test_remove_missing_edge_raises(self):
        g = Graph([(1, 2)])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 3)

    def test_has_edge_is_symmetric(self):
        g = Graph([(1, 2)])
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(1, 9)


class TestAccessors:
    def test_edges_yields_each_once(self, two_triangles_bridge):
        edges = list(two_triangles_bridge.edges())
        assert len(edges) == two_triangles_bridge.num_edges
        normalized = {frozenset(e) for e in edges}
        assert len(normalized) == len(edges)

    def test_degree_and_neighbors(self, triangle_with_tail):
        assert triangle_with_tail.degree(0) == 3
        assert triangle_with_tail.neighbors(0) == {1, 2, 3}

    def test_neighbors_missing_vertex_raises(self, triangle):
        with pytest.raises(VertexNotFoundError):
            triangle.neighbors(99)

    def test_degrees_map(self, triangle_with_tail):
        assert triangle_with_tail.degrees() == {0: 3, 1: 2, 2: 2, 3: 1}

    def test_len_and_iter(self, triangle):
        assert len(triangle) == 3
        assert sorted(triangle) == [0, 1, 2]

    def test_equality_ignores_insertion_order(self):
        a = Graph([(1, 2), (2, 3)])
        b = Graph([(2, 3), (1, 2)])
        assert a == b
        assert a != Graph([(1, 2)])

    def test_repr_mentions_sizes(self, triangle):
        assert "n=3" in repr(triangle) and "m=3" in repr(triangle)


class TestDerivedGraphs:
    def test_induced_subgraph(self, two_triangles_bridge):
        sub = two_triangles_bridge.induced_subgraph([0, 1, 2, 3])
        assert sub.num_vertices == 4
        assert sub.num_edges == 4  # the triangle plus the bridge stub

    def test_induced_subgraph_unknown_vertex_raises(self, triangle):
        with pytest.raises(VertexNotFoundError):
            triangle.induced_subgraph([0, 9])

    def test_induced_subgraph_keeps_the_graph_order(self):
        g = Graph([("c", "a"), ("a", "b"), ("b", "d"), ("d", "c")])
        sub = g.induced_subgraph(["d", "b", "c"])
        assert list(sub.vertices()) == ["c", "b", "d"]

    def test_induced_subgraph_does_not_follow_string_hash(self):
        # facebook mixes int and string labels; a subgraph built in set
        # order gave A_3 a different in-round order per PYTHONHASHSEED.
        script = (
            "from repro.core.index import KPIndex\n"
            "from repro.datasets import load\n"
            "from repro.graph.views import sample_vertices\n"
            "sub = sample_vertices(load('facebook'), 0.5, seed=19)\n"
            "print(repr(KPIndex.build(sub).array(3).vertices))\n"
        )
        orders = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert orders[0].count(",") > 100
        assert orders[0] == orders[1]

    def test_edge_subgraph(self, triangle_with_tail):
        sub = triangle_with_tail.edge_subgraph([(0, 1), (0, 3)])
        assert sub.num_edges == 2
        assert sub.num_vertices == 3

    def test_edge_subgraph_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.edge_subgraph([(0, 9)])
