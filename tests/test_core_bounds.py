"""Unit tests for the p-number bounds of Sec. VI.

Includes the regression case showing why the paper's literal grid bounds
are insufficient and the corrected forms are required.
"""

import pytest

from repro.graph.generators import erdos_renyi_gnm
from repro.core.bounds import (
    BoundsCache,
    degree_in,
    fraction_in,
    p_hat,
    p_tilde,
    scaled_h_index,
    upper_h_value,
)
from repro.core.decomposition import p_numbers_fixed_k
from repro.core.maintenance import KPIndexMaintainer
from repro.kcore.compute import k_core_vertices
from repro.kcore.decomposition import core_decomposition


class TestHValues:
    def test_grid_h_index(self):
        assert scaled_h_index([1.0, 0.8, 0.5], 4) == pytest.approx(0.5)
        assert scaled_h_index([], 5) == 0.0
        assert scaled_h_index([0.1], 0) == 0.0

    def test_upper_h_dominates_grid(self):
        import random

        rng = random.Random(3)
        for _ in range(300):
            values = [rng.random() for _ in range(rng.randint(0, 12))]
            d = rng.randint(1, 15)
            assert upper_h_value(values, d) >= scaled_h_index(values, d)

    def test_upper_h_known_case(self):
        # the cascade example: values [1, 2/3], denominator 2
        assert upper_h_value([1.0, 2 / 3], 2) == pytest.approx(2 / 3)
        assert scaled_h_index([1.0, 2 / 3], 2) == pytest.approx(0.5)

    def test_upper_h_order_insensitive(self):
        assert upper_h_value([0.2, 0.9, 0.5], 3) == upper_h_value(
            [0.9, 0.5, 0.2], 3
        )


class TestSetHelpers:
    def test_degree_and_fraction_in(self, triangle_with_tail):
        members = {0, 1, 2}
        assert degree_in(triangle_with_tail, members, 0) == 2
        assert fraction_in(triangle_with_tail, members, 0) == pytest.approx(2 / 3)


class TestUpperBoundsAreSound:
    def test_cascade_regression(self, cascade_graph):
        """The paper's Lemma 2 grid bound under-estimates on cascades."""
        g = cascade_graph
        kcore = k_core_vertices(g, 2)
        pn = p_numbers_fixed_k(g, 2)
        # vertex 5 has pn = 2/3 but the grid bound says 1/2
        grid = scaled_h_index(
            [fraction_in(g, kcore, x) for x in g.neighbors(5) if x in kcore],
            g.degree(5),
        )
        assert grid < pn[5]
        # the corrected bounds remain sound
        assert p_hat(g, kcore, 5) >= pn[5]
        assert p_tilde(g, kcore, 5) >= pn[5]

    @pytest.mark.parametrize("seed", range(6))
    def test_p_hat_and_p_tilde_dominate_pn(self, seed):
        g = erdos_renyi_gnm(18, 50, seed=seed)
        d = core_decomposition(g).degeneracy
        for k in range(1, d + 1):
            kcore = k_core_vertices(g, k)
            pn = p_numbers_fixed_k(g, k)
            cache = BoundsCache(g, kcore)
            for w in kcore:
                hat = cache.p_hat(w)
                tilde = cache.p_tilde(w)
                assert hat >= pn[w] - 1e-12, (seed, k, w)
                assert tilde >= pn[w] - 1e-12, (seed, k, w)
                # Lemma 3 ordering: p_hat >= p_tilde
                assert hat >= tilde - 1e-12

    def test_cache_matches_direct(self, cascade_graph):
        kcore = k_core_vertices(cascade_graph, 2)
        cache = BoundsCache(cascade_graph, kcore)
        for w in kcore:
            assert cache.p_hat(w) == p_hat(cascade_graph, kcore, w)  # noqa: KP002 exact-double oracle
            assert cache.p_tilde(w) == p_tilde(cascade_graph, kcore, w)  # noqa: KP002 exact-double oracle


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
