"""End-to-end integration tests across the whole pipeline.

These exercise the flows a downstream user would run: load a dataset,
decompose it, build the index, query it, mutate the graph through the
maintainer, and read the analyses — asserting cross-module agreement at
every step.
"""

import random

import pytest

from repro import (
    Graph,
    KPIndex,
    KPIndexMaintainer,
    core_decomposition,
    kp_core_vertices,
    read_edge_list,
    write_edge_list,
)
from repro.analysis.comparison import compare_cores
from repro.datasets import load, simulate_checkins
from repro.datasets.dblp import generate_corpus


class TestDatasetPipeline:
    def test_brightkite_full_pipeline(self):
        g = load("brightkite")
        cd = core_decomposition(g)
        index = KPIndex.build(g)
        index.validate()
        assert index.degeneracy == cd.degeneracy
        # index answers agree with direct computation on a parameter grid
        for k in (2, 5, 10):
            for p in (0.3, 0.6, 0.9):
                assert set(index.query(k, p)) == kp_core_vertices(g, k, p)

    def test_comparison_consistent_with_index(self):
        g = load("youtube")
        index = KPIndex.build(g)
        c = compare_cores(g, 10, 0.6)
        assert c.kpcore_vertices == len(index.query(10, 0.6))

    def test_checkin_analysis_runs_on_fresh_decomposition(self):
        g = load("brightkite")
        counts = simulate_checkins(g)
        assert len(counts) == g.num_vertices


class TestDynamicPipeline:
    def test_maintained_index_serves_queries_through_updates(self):
        g = load("brightkite").copy()
        maintainer = KPIndexMaintainer(g)
        rng = random.Random(99)
        edges = rng.sample(list(maintainer.graph.edges()), 15)
        for u, v in edges:
            maintainer.delete_edge(u, v)
        for u, v in edges:
            maintainer.insert_edge(u, v)
        fresh = KPIndex.build(maintainer.graph)
        assert maintainer.index.semantically_equal(fresh)
        for k in (2, 5, 10):
            assert set(maintainer.query(k, 0.6)) == kp_core_vertices(
                maintainer.graph, k, 0.6
            )

    def test_growing_graph_from_scratch(self):
        maintainer = KPIndexMaintainer(Graph())
        rng = random.Random(5)
        for _ in range(60):
            u, v = rng.randrange(12), rng.randrange(12)
            if u == v or maintainer.graph.has_edge(u, v):
                continue
            maintainer.insert_edge(u, v)
        assert maintainer.index.semantically_equal(
            KPIndex.build(maintainer.graph)
        )

    def test_shrinking_graph_to_empty(self):
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        maintainer = KPIndexMaintainer(g)
        for u, v in list(g.edges()):
            maintainer.delete_edge(u, v)
        assert maintainer.index.query(1, 0.0) == []
        assert maintainer.index.degeneracy == 0


class TestPersistenceRoundTrips:
    def test_edge_list_then_index_round_trip(self, tmp_path):
        g = load("facebook")
        path = tmp_path / "facebook.txt"
        write_edge_list(g, path)
        again = read_edge_list(path, int_vertices=False)
        # labels come back as strings; sizes and index structure agree
        assert again.num_vertices == g.num_vertices
        assert again.num_edges == g.num_edges
        a = KPIndex.build(g).space_stats()
        b = KPIndex.build(again).space_stats()
        assert a == b

    def test_index_serialization_survives_queries(self, tmp_path):
        import json

        g = load("brightkite")
        index = KPIndex.build(g)
        payload = json.dumps(index.to_dict())
        restored = KPIndex.from_dict(json.loads(payload))
        for k in (2, 5, 10):
            assert restored.query(k, 0.6) == index.query(k, 0.6)


class TestDblpPipeline:
    def test_corpus_to_case_study(self):
        from repro.analysis.casestudy import case_study

        corpus = generate_corpus(
            num_authors=300, num_papers=900, num_fields=6, seed=3,
            num_labs=2, lab_size=14, papers_per_lab=4,
        )
        g = corpus.graph(1)
        cd = core_decomposition(g)
        k = min(5, cd.degeneracy)
        if k >= 1:
            report = case_study(g, k, 0.4)
            assert report.members
            assert report.cascade
