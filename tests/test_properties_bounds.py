"""Hypothesis property tests for the Sec. VI bound machinery.

The one-hop cap soak is the soundness argument of the maintenance
planner's ``p_+``: after one insert or delete, every endpoint ``x`` in
``C_k(G')`` has ``pn'(x) <= deg(x, C_k(G')) / deg(x, G')``, because
``x`` keeps that share of its neighbours in ``C_{k,pn'(x)}(G') ⊆
C_k(G')``.  Run it under ``REPRO_VERIFY=1`` to add the runtime contracts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.graph.adjacency import Graph
from repro.graph.generators import complete_graph, erdos_renyi_gnm
from repro.core.index import KPIndex
from repro.core.maintenance import KPIndexMaintainer
from repro.core.naive import naive_kp_core_vertices, naive_p_number
from repro.core.pvalue import as_fraction, fraction_threshold


#: The conftest ``cascade_graph``: a triangle {3, 5, 6} whose members
#: inherit the gateway's fraction 2/3 when it peels.
CASCADE_EDGES = [(0, 2), (0, 4), (1, 3), (1, 4), (3, 5), (3, 6), (5, 6)]


@st.composite
def graph_and_update(draw):
    """A small ER / clique-with-tail / cascade graph and one valid op."""
    family = draw(st.sampled_from(("er", "clique", "cascade")))
    if family == "er":
        n = draw(st.integers(4, 11))
        m = draw(st.integers(n - 1, min(n * (n - 1) // 2, 3 * n)))
        graph = erdos_renyi_gnm(n, m, seed=draw(st.integers(0, 10_000)))
    elif family == "clique":
        n = draw(st.integers(3, 7))
        graph = complete_graph(n)
        graph.add_edge(0, n)
        graph.add_edge(n, n + 1)
    else:
        graph = Graph(CASCADE_EDGES)
    vertices = sorted(graph.vertices())
    absent = [e for e in combinations(vertices, 2) if not graph.has_edge(*e)]
    present = sorted(tuple(sorted(e)) for e in graph.edges())
    pools = {"insert": absent, "delete": present}
    kind = draw(st.sampled_from([kind for kind, pool in pools.items() if pool]))
    u, v = draw(st.sampled_from(pools[kind]))
    return graph, (kind, u, v)


@given(graph_and_update())
@settings(max_examples=300, deadline=None)
def test_one_hop_cap_bounds_new_p_numbers(case):
    graph, (kind, u, v) = case
    maintainer = KPIndexMaintainer(graph.copy())
    if kind == "insert":
        maintainer.insert_edge(u, v)
    else:
        maintainer.delete_edge(u, v)
    after = maintainer.graph
    max_degree = max(after.degree(w) for w in after.vertices())
    k = 2
    core = naive_kp_core_vertices(after, k, 0.0)
    while core:
        for x in (u, v):
            if x not in core:
                continue
            pn = naive_p_number(after, x, k)
            assert pn is not None
            inside = sum(1 for w in after.neighbors(x) if w in core)
            cap = Fraction(inside, after.degree(x))
            assert as_fraction(pn, max_degree) <= cap, (kind, u, v, k, x)
        k += 1
        core = naive_kp_core_vertices(after, k, 0.0)
    assert maintainer.index.semantically_equal(KPIndex.build(after))


@given(st.integers(1, 2000), st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_fraction_threshold_defining_property(degree, p):
    t = fraction_threshold(p, degree)
    assert 0 <= t <= degree
    assert t / degree >= p  # noqa: KP001 reference fraction oracle
    assert t == 0 or (t - 1) / degree < p  # noqa: KP001 reference fraction oracle


@given(st.integers(1, 300), st.integers(0, 300))
@settings(max_examples=300, deadline=None)
def test_as_fraction_round_trips_small_rationals(den, num_raw):
    num = num_raw % (den + 1)
    assert as_fraction(num / den, den) == Fraction(num, den)
