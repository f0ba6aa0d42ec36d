"""Hypothesis property tests over the core invariants of the paper.

Strategies generate small random graphs (edge lists over a bounded vertex
universe); the properties mirror the paper's structural claims:
uniqueness/maximality of (k,p)-cores, containment, p-number semantics,
index/query agreement, Lemma 1 space bounds, and maintenance exactness.
"""

from __future__ import annotations

import os
import random
import tempfile

from hypothesis import given, settings, strategies as st

from repro.graph.adjacency import Graph
from repro.core.decomposition import kp_core_decomposition, p_numbers_fixed_k
from repro.core.index import KPIndex
from repro.core.kpcore import kp_core_vertices, satisfies_kp_constraints
from repro.core.maintenance import KPIndexMaintainer, MaintenanceMode
from repro.core.naive import naive_kp_core_vertices
from repro.kcore.decomposition import core_decomposition
from repro.kcore.maintenance import CoreMaintainer
from repro.kcore.onion import onion_decomposition


MAX_N = 12

edges_strategy = st.lists(
    st.tuples(st.integers(0, MAX_N - 1), st.integers(0, MAX_N - 1)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=36,
)

k_strategy = st.integers(1, 5)
p_strategy = st.one_of(
    st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 0.6, 2 / 3, 0.75, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)


def graph_from(edges) -> Graph:
    return Graph(edges)


@given(edges_strategy, k_strategy, p_strategy)
@settings(max_examples=120, deadline=None)
def test_kp_core_matches_naive_fixpoint(edges, k, p):
    g = graph_from(edges)
    assert kp_core_vertices(g, k, p) == naive_kp_core_vertices(g, k, p)


@given(edges_strategy, k_strategy, p_strategy)
@settings(max_examples=120, deadline=None)
def test_kp_core_satisfies_and_is_maximal(edges, k, p):
    g = graph_from(edges)
    members = kp_core_vertices(g, k, p)
    assert satisfies_kp_constraints(g, members, k, p)
    for extra in set(g.vertices()) - members:
        assert not satisfies_kp_constraints(g, members | {extra}, k, p)


@given(edges_strategy, k_strategy, p_strategy, p_strategy)
@settings(max_examples=100, deadline=None)
def test_containment_property(edges, k, p1, p2):
    g = graph_from(edges)
    lo, hi = sorted((p1, p2))
    assert kp_core_vertices(g, k, hi) <= kp_core_vertices(g, k, lo)
    assert kp_core_vertices(g, k + 1, p1) <= kp_core_vertices(g, k, p1)


@given(edges_strategy, k_strategy)
@settings(max_examples=80, deadline=None)
def test_p_number_defines_membership_at_every_level(edges, k):
    g = graph_from(edges)
    pn = p_numbers_fixed_k(g, k)
    for level in sorted(set(pn.values())):
        assert kp_core_vertices(g, k, level) == {
            v for v, value in pn.items() if value >= level
        }


@given(edges_strategy)
@settings(max_examples=80, deadline=None)
def test_index_answers_every_query(edges):
    g = graph_from(edges)
    index = KPIndex.build(g)
    index.validate()
    d = core_decomposition(g).degeneracy
    for k in range(1, d + 2):
        for p in (0.0, 0.3, 0.5, 0.75, 1.0):
            assert set(index.query(k, p)) == kp_core_vertices(g, k, p)


@given(edges_strategy)
@settings(max_examples=80, deadline=None)
def test_index_space_bound(edges):
    g = graph_from(edges)
    stats = KPIndex.build(g).space_stats()
    assert stats.vertex_entries <= stats.two_m
    assert stats.p_number_entries <= max(stats.vertex_entries, 0)


@given(edges_strategy)
@settings(max_examples=60, deadline=None)
def test_onion_core_numbers_match_bucket_algorithm(edges):
    g = graph_from(edges)
    assert onion_decomposition(g).core_numbers == core_decomposition(g).core_numbers


@given(edges_strategy, st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_core_maintenance_equals_recomputation(edges, seed):
    g = graph_from(edges)
    maintainer = CoreMaintainer(g.copy())
    rng = random.Random(seed)
    live = list(maintainer.graph.edges())
    for _ in range(8):
        if live and rng.random() < 0.5:
            u, v = live.pop(rng.randrange(len(live)))
            maintainer.delete_edge(u, v)
        else:
            u, v = rng.randrange(MAX_N), rng.randrange(MAX_N)
            if u == v or maintainer.graph.has_edge(u, v):
                continue
            maintainer.insert_edge(u, v)
            live.append((u, v))
    assert (
        maintainer.core_numbers()
        == core_decomposition(maintainer.graph).core_numbers
    )


@given(edges_strategy, st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_index_maintenance_equals_rebuild(edges, seed):
    g = graph_from(edges)
    maintainer = KPIndexMaintainer(
        g.copy(), mode=MaintenanceMode.RANGE
    )
    rng = random.Random(seed)
    live = list(maintainer.graph.edges())
    for _ in range(6):
        if live and rng.random() < 0.5:
            u, v = live.pop(rng.randrange(len(live)))
            maintainer.delete_edge(u, v)
        else:
            u, v = rng.randrange(MAX_N), rng.randrange(MAX_N)
            if u == v or maintainer.graph.has_edge(u, v):
                continue
            maintainer.insert_edge(u, v)
            live.append((u, v))
    assert maintainer.index.semantically_equal(KPIndex.build(maintainer.graph))


@given(edges_strategy, k_strategy)
@settings(max_examples=60, deadline=None)
def test_decomposition_agrees_with_direct_kp_core_between_levels(edges, k):
    # For p strictly between two adjacent levels, the (k,p)-core equals the
    # core at the next level up.
    g = graph_from(edges)
    pn = p_numbers_fixed_k(g, k)
    levels = sorted(set(pn.values()))
    for low, high in zip(levels, levels[1:]):
        midpoint = (low + high) / 2
        assert kp_core_vertices(g, k, midpoint) == {
            v for v, value in pn.items() if value >= high
        }


@given(edges_strategy)
@settings(max_examples=60, deadline=None)
def test_index_save_load_round_trip_is_semantically_equal(edges):
    """Persistence property: save -> load preserves index semantics exactly
    (pn_maps compare with exact doubles, no float drift through JSON)."""
    index = KPIndex.build(graph_from(edges))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.json")
        index.save(path)
        restored = KPIndex.load(path)
    assert restored.semantically_equal(index)


@given(edges_strategy, st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_maintainer_resumed_from_loaded_index_stays_exact(edges, seed):
    """A maintainer resumed on a *loaded* snapshot must stay exact under a
    random update stream, vs. from-scratch decomposition of the end graph."""
    g = graph_from(edges)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.json")
        KPIndex.build(g).save(path)
        loaded = KPIndex.load(path)
    maintainer = KPIndexMaintainer(g.copy(), index=loaded)
    rng = random.Random(seed)
    for _ in range(8):
        live = list(maintainer.graph.edges())
        if live and rng.random() < 0.4:
            u, v = live[rng.randrange(len(live))]
            maintainer.delete_edge(u, v)
        else:
            u, v = rng.randrange(MAX_N), rng.randrange(MAX_N)
            if u == v or maintainer.graph.has_edge(u, v):
                continue
            maintainer.insert_edge(u, v)
    expected = kp_core_decomposition(maintainer.graph)
    pn_maps = maintainer.index.pn_maps()
    assert set(pn_maps) == set(expected.arrays)
    for k, fixed in expected.arrays.items():
        assert pn_maps[k] == fixed.pn_map()  # noqa: KP002 exact-double oracle


@given(edges_strategy, st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_index_maintenance_with_vertex_dynamics(edges, seed):
    """Mixed vertex and edge updates keep the index exact."""
    g = graph_from(edges)
    maintainer = KPIndexMaintainer(
        g.copy(), mode=MaintenanceMode.RANGE
    )
    rng = random.Random(seed)
    next_label = MAX_N
    for _ in range(6):
        roll = rng.random()
        vertices = list(maintainer.graph.vertices())
        if roll < 0.3 and vertices:
            anchors = rng.sample(vertices, min(len(vertices), rng.randint(1, 3)))
            maintainer.insert_vertex(next_label, neighbors=anchors)
            next_label += 1
        elif roll < 0.5 and vertices:
            maintainer.delete_vertex(rng.choice(vertices))
        elif roll < 0.75:
            live = list(maintainer.graph.edges())
            if not live:
                continue
            u, v = live[rng.randrange(len(live))]
            maintainer.delete_edge(u, v)
        else:
            if len(vertices) < 2:
                continue
            u, v = rng.sample(vertices, 2)
            if maintainer.graph.has_edge(u, v):
                continue
            maintainer.insert_edge(u, v)
    assert maintainer.index.semantically_equal(KPIndex.build(maintainer.graph))
