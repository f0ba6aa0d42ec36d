"""Unit tests for the maintenance window bounds of Sec. VI.

The planner's ``p_+`` caps an endpoint's new p-number by its one-hop
fraction ``deg(x, C_k) / deg(x)``; its ``p_-`` is the clamped witness
rule.  Includes the cascade case showing why the paper's literal grid
bounds are insufficient.
"""

from fractions import Fraction

import pytest

from repro.graph.generators import erdos_renyi_gnm
from repro.core.decomposition import p_numbers_fixed_k
from repro.core.maintenance import KPIndexMaintainer
from repro.core.pvalue import as_fraction
from repro.kcore.compute import k_core_vertices
from repro.kcore.decomposition import core_decomposition


class TestUpperBoundsAreSound:
    def test_cascade_regression(self, cascade_graph):
        """A cascade p-number is off its own grid; the one-hop cap holds."""
        g = cascade_graph
        kcore = k_core_vertices(g, 2)
        pn = p_numbers_fixed_k(g, 2)
        # vertex 5 inherits 3's fraction 2/3, not a multiple of 1/deg(5),
        # so the paper's grid bound (1/2 here) would cut it off
        assert g.degree(5) == 2
        assert as_fraction(pn[5], max(g.degrees().values())) == Fraction(2, 3)
        inside = sum(1 for x in g.neighbors(5) if x in kcore)
        assert Fraction(inside, g.degree(5)) >= Fraction(2, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_hop_cap_dominates_pn(self, seed):
        """``pn(w) <= deg(w, C_k) / deg(w)`` for every k-core member."""
        g = erdos_renyi_gnm(18, 50, seed=seed)
        max_degree = max(g.degrees().values())
        d = core_decomposition(g).degeneracy
        for k in range(1, d + 1):
            kcore = k_core_vertices(g, k)
            pn = p_numbers_fixed_k(g, k)
            for w in kcore:
                inside = sum(1 for x in g.neighbors(w) if x in kcore)
                cap = Fraction(inside, g.degree(w))
                assert as_fraction(pn[w], max_degree) <= cap, (seed, k, w)


def _planner_window(graph, op, k, *, witness_only=False):
    """The maintenance planner's ``[p_-, p_+]`` for ``op`` on ``A_k``.

    The window is derived the way a single-op update derives it: from the
    pre-update ``A_k`` on the post-update graph, with the post-update
    k-core passed only when the membership changed (``witness_only``
    never passes it, so the ``p_-`` witness rule runs regardless).
    ``None`` is the Theorem 6 skip.
    """
    maintainer = KPIndexMaintainer(graph.copy())
    array = maintainer.index.array(k)
    kind, u, v = op
    after = maintainer.graph
    if kind == "insert":
        after.add_edge(u, v)
    else:
        after.remove_edge(u, v)
    core = k_core_vertices(after, k)
    members = None if witness_only or core == array.vertex_set() else core
    return maintainer._batch_window(array, op, members)


def _assert_prefix_kept(pn_before, pn_after, window, label):
    """Vertices below ``p_-`` keep their p-numbers (all of them on a skip)."""
    p_minus = 2.0 if window is None else window[0]
    for w, old in pn_before.items():
        if old < p_minus:
            assert pn_after.get(w) == old, (label, w)


class TestLowerBoundsAreSound:
    """The planner's ``p_-`` witness rule (Thms. 3/5/8, Def. 7, clamped)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_insertion_bound(self, seed):
        """After inserting (u,v) with cn(u) < k <= cn(v), ``p_-`` must not
        exceed v's new p-number, and the prefix below it is unchanged."""
        import random

        rng = random.Random(seed)
        g = erdos_renyi_gnm(16, 44, seed=seed)
        cd = core_decomposition(g)
        vertices = list(g.vertices())
        for _ in range(15):
            u, v = rng.sample(vertices, 2)
            if g.has_edge(u, v):
                continue
            cn_u, cn_v = cd.core_numbers[u], cd.core_numbers[v]
            if cn_u >= cn_v:
                u, v, cn_u, cn_v = v, u, cn_v, cn_u
            for k in range(max(2, cn_u + 1), cn_v + 1):
                pn_before = p_numbers_fixed_k(g, k)
                window = _planner_window(g, ("insert", u, v), k)
                g.add_edge(u, v)
                try:
                    pn_after = p_numbers_fixed_k(g, k)
                    if window is not None:
                        assert window[0] <= pn_after.get(v, 0.0) + 1e-12, (
                            seed, u, v, k,
                        )
                    _assert_prefix_kept(
                        pn_before, pn_after, window, (seed, u, v, k)
                    )
                finally:
                    g.remove_edge(u, v)

    @pytest.mark.parametrize("seed", range(8))
    def test_deletion_bound(self, seed):
        """After deleting (u,v), vertices below the planner's ``p_-`` keep
        their p-numbers (the Thm. 8 guarantee under the corrected bound)."""
        import random

        rng = random.Random(100 + seed)
        g = erdos_renyi_gnm(16, 48, seed=200 + seed)
        cd = core_decomposition(g)
        edges = list(g.edges())
        for u, v in rng.sample(edges, min(10, len(edges))):
            low = min(cd.core_numbers[u], cd.core_numbers[v])
            for k in range(2, low + 1):
                pn_before = p_numbers_fixed_k(g, k)
                window = _planner_window(g, ("delete", u, v), k)
                g.remove_edge(u, v)
                try:
                    pn_after = p_numbers_fixed_k(g, k)
                    _assert_prefix_kept(
                        pn_before, pn_after, window, (seed, u, v, k)
                    )
                finally:
                    g.add_edge(u, v)

    def test_deletion_bound_collapsed_witness_is_zero(self, cascade_graph):
        # Vertex 5 keeps only one member-neighbour once (3, 5) goes, so
        # the witness C_{2,p1} collapses: the rule itself must give
        # p_- = 0 even before the membership change is taken into account.
        window = _planner_window(
            cascade_graph, ("delete", 3, 5), 2, witness_only=True
        )
        assert window is not None and window[0] == 0.0
