"""Unit tests for vertex/edge sampling (Figs. 14/16 substrate)."""

import pytest

from repro.errors import ParameterError
from repro.graph.generators import erdos_renyi_gnm
from repro.graph.adjacency import Graph
from repro.graph.views import (
    ordered_edges, sample_edges, sample_ratios, sample_vertices,
)


@pytest.fixture
def base():
    return erdos_renyi_gnm(100, 400, seed=3)


class TestVertexSampling:
    def test_full_ratio_returns_copy(self, base):
        sampled = sample_vertices(base, 1.0)
        assert sampled == base
        sampled.add_edge(998, 999)
        assert not base.has_vertex(998)

    def test_ratio_controls_vertex_count(self, base):
        sampled = sample_vertices(base, 0.4, seed=1)
        assert sampled.num_vertices == 40

    def test_result_is_induced(self, base):
        sampled = sample_vertices(base, 0.5, seed=2)
        kept = set(sampled.vertices())
        for u, v in sampled.edges():
            assert base.has_edge(u, v)
        # every base edge between kept vertices must be present
        for u, v in base.edges():
            if u in kept and v in kept:
                assert sampled.has_edge(u, v)

    def test_deterministic_per_seed(self, base):
        a = sample_vertices(base, 0.3, seed=7)
        b = sample_vertices(base, 0.3, seed=7)
        c = sample_vertices(base, 0.3, seed=8)
        assert a == b
        assert a != c

    def test_invalid_ratio_raises(self, base):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                sample_vertices(base, bad)


class TestEdgeSampling:
    def test_ratio_controls_edge_count(self, base):
        sampled = sample_edges(base, 0.25, seed=4)
        assert sampled.num_edges == 100

    def test_sampled_edges_exist_in_base(self, base):
        sampled = sample_edges(base, 0.5, seed=5)
        for u, v in sampled.edges():
            assert base.has_edge(u, v)

    def test_isolated_vertices_dropped(self, base):
        sampled = sample_edges(base, 0.1, seed=6)
        assert all(sampled.degree(v) > 0 for v in sampled.vertices())

    def test_invalid_ratio_raises(self, base):
        with pytest.raises(ParameterError):
            sample_edges(base, 0.0)


def test_ordered_edges_sorts_mixed_labels_once_per_edge():
    g = Graph([("b", "a"), (3, "a"), (2, 1), ("z", 1), (2, "a")])
    assert ordered_edges(g) == [
        (1, 2), (1, "z"), (2, "a"), (3, "a"), ("a", "b"),
    ]


def test_paper_sampling_grid():
    assert tuple(sample_ratios) == (0.2, 0.4, 0.6, 0.8, 1.0)
