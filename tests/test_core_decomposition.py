"""Unit tests for Algorithm 2 (kpCoreDecom) and p-numbers."""

import pytest

from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.generators import complete_graph, cycle_graph, erdos_renyi_gnm
from repro.core.decomposition import kp_core_decomposition, p_numbers_fixed_k
from repro.core.kpcore import kp_core_vertices
from repro.core.naive import naive_p_numbers_fixed_k
from repro.kcore.decomposition import core_decomposition


class TestKnownGraphs:
    def test_k1_p_numbers_are_one(self, figure1_like_graph):
        # For k = 1 every non-isolated vertex keeps all its neighbours in
        # the 1-core, so the (1,p)-core equals it for every p (Example 3).
        pn = p_numbers_fixed_k(figure1_like_graph, 1)
        assert set(pn.values()) == {1.0}
        assert set(pn) == set(figure1_like_graph.vertices())

    def test_cycle_k2(self):
        pn = p_numbers_fixed_k(cycle_graph(8), 2)
        assert set(pn.values()) == {1.0}

    def test_complete_graph(self):
        g = complete_graph(5)
        for k in range(1, 5):
            pn = p_numbers_fixed_k(g, k)
            assert set(pn.values()) == {1.0}

    def test_cascade_graph_inherited_levels(self, cascade_graph):
        # vertices 5 and 6 inherit 3's fraction 2/3 as their p-number,
        # even though 2/3 is not a multiple of 1/deg for them
        pn = p_numbers_fixed_k(cascade_graph, 2)
        assert pn[3] == pytest.approx(2 / 3)  # noqa: KP002 exact-double oracle
        assert pn[5] == pytest.approx(2 / 3)  # noqa: KP002 exact-double oracle
        assert pn[6] == pytest.approx(2 / 3)  # noqa: KP002 exact-double oracle

    def test_k_beyond_degeneracy_is_empty(self, triangle):
        assert p_numbers_fixed_k(triangle, 5) == {}  # noqa: KP002 exact-double oracle

    def test_invalid_k(self, triangle):
        with pytest.raises(ParameterError):
            p_numbers_fixed_k(triangle, 0)


class TestAgainstNaive:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed, random_graph_factory):
        g = random_graph_factory(seed, n_range=(5, 14))
        d = core_decomposition(g).degeneracy
        for k in range(1, d + 1):
            assert p_numbers_fixed_k(g, k) == naive_p_numbers_fixed_k(g, k)  # noqa: KP002 exact-double oracle


class TestFullDecomposition:
    def test_covers_every_k(self):
        g = erdos_renyi_gnm(25, 80, seed=2)
        decomposition = kp_core_decomposition(g)
        assert set(decomposition.arrays) == set(
            range(1, decomposition.degeneracy + 1)
        )
        for k, fixed in decomposition.arrays.items():
            assert fixed.k == k
            assert len(fixed.order) == len(fixed.p_numbers)

    def test_array_membership_is_the_k_core(self):
        g = erdos_renyi_gnm(25, 80, seed=3)
        decomposition = kp_core_decomposition(g)
        cd = core_decomposition(g)
        for k, fixed in decomposition.arrays.items():
            assert set(fixed.order) == cd.k_core_vertices(k)

    def test_p_numbers_non_decreasing_along_order(self):
        g = erdos_renyi_gnm(25, 80, seed=4)
        decomposition = kp_core_decomposition(g)
        for fixed in decomposition.arrays.values():
            pns = list(fixed.p_numbers)
            assert pns == sorted(pns)

    def test_p_number_defines_membership(self):
        # v in (k,p)-core  <=>  pn(v,k) >= p, for p at every distinct level
        g = erdos_renyi_gnm(18, 50, seed=5)
        decomposition = kp_core_decomposition(g)
        for k, fixed in decomposition.arrays.items():
            pn = fixed.pn_map()
            for level in sorted(set(fixed.p_numbers)):
                expected = {v for v, value in pn.items() if value >= level}
                assert kp_core_vertices(g, k, level) == expected

    def test_p_number_lookup_matches_arrays(self):
        g = erdos_renyi_gnm(30, 120, seed=9)
        decomposition = kp_core_decomposition(g)
        for k, fixed in decomposition.arrays.items():
            for v, pn in zip(fixed.order, fixed.p_numbers):
                assert decomposition.p_number(v, k) == pn  # noqa: KP002 exact-double oracle

    def test_string_labels_match_integer_labels(self):
        g = erdos_renyi_gnm(25, 90, seed=4)
        relabelled = Graph((f"v{u}", f"v{w}") for u, w in g.edges())
        by_int = kp_core_decomposition(g)
        by_str = kp_core_decomposition(relabelled)
        assert by_str.degeneracy == by_int.degeneracy
        for k, fixed in by_int.arrays.items():
            relabelled_pn = {f"v{v}": pn for v, pn in fixed.pn_map().items()}
            assert by_str.arrays[k].pn_map() == relabelled_pn  # noqa: KP002 exact-double oracle

    def test_p_number_accessor(self, triangle):
        decomposition = kp_core_decomposition(triangle)
        assert decomposition.p_number(0, 2) == 1.0  # noqa: KP002 exact-double oracle
        with pytest.raises(KeyError):
            decomposition.p_number(0, 5)
        with pytest.raises(KeyError):
            decomposition.p_number(99, 1)

    def test_core_numbers_exposed(self, triangle_with_tail):
        decomposition = kp_core_decomposition(triangle_with_tail)
        assert decomposition.core_numbers[3] == 1
        assert decomposition.core_numbers[0] == 2

    def test_empty_graph(self):
        decomposition = kp_core_decomposition(Graph())
        assert decomposition.degeneracy == 0
        assert decomposition.arrays == {}
