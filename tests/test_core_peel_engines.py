"""Tests for the peel kernel (:mod:`repro.core.peel_flat`) and its registry.

The contract under test: for every graph and every ``k`` the kernel's
p-numbers equal the definition-literal oracle
:func:`repro.core.naive.naive_p_numbers_fixed_k` — including ties at the
minimum fraction and degree-violation cascades, where a peel goes wrong
first — its deletion order is canonical, and a shared scratch gives the
same output as a fresh one.  The window re-peel
(:meth:`repro.core.peel_flat.PeelState.peel_window`) is checked against
:meth:`KPIndex.build`, directly and through maintainers.
"""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexStateError, ParameterError
from repro.graph.adjacency import Graph
from repro.graph.compact import CompactAdjacency
from repro.graph.generators import erdos_renyi_gnm
from repro.kcore.decomposition import core_numbers_compact
from repro.core.index import KPIndex
from repro.core.maintenance import KPIndexMaintainer
from repro.core.naive import naive_p_numbers_fixed_k
from repro.core.peel_engines import ENGINES, make_scratch
from repro.core.peel_flat import (
    FlatScratch,
    PeelState,
    composite_key,
    key_scale,
    peel_fixed_k_flat,
)


def _prepared(graph: Graph):
    """(snapshot, core numbers) ready for the kernel."""
    snapshot = CompactAdjacency(graph)
    core, _ = core_numbers_compact(snapshot)
    snapshot.sort_neighbors_by_rank_desc(core)
    return snapshot, core


def _assert_canonical(order, p_numbers) -> None:
    """Levels non-decreasing; ids increasing within each level's run."""
    for i in range(1, len(order)):
        assert p_numbers[i - 1] <= p_numbers[i]
        if p_numbers[i - 1] == p_numbers[i]:  # noqa: KP002 exact-double run
            assert order[i - 1] < order[i]


def _assert_kernel_matches_naive(graph: Graph) -> None:
    """Kernel (fresh and shared scratch) == naive oracle for every k."""
    snapshot, core = _prepared(graph)
    labels = snapshot.labels
    degeneracy = max(core, default=0)
    scratch = make_scratch(snapshot, core)
    for k in range(1, degeneracy + 1):
        order, p_numbers = peel_fixed_k_flat(snapshot, core, k)
        shared = peel_fixed_k_flat(snapshot, core, k, scratch=scratch)
        assert shared == (order, p_numbers), (k, "scratch")
        _assert_canonical(order, p_numbers)
        got = {labels[v]: pn for v, pn in zip(order, p_numbers)}
        assert got == naive_p_numbers_fixed_k(graph, k), k


class TestRegistry:
    def test_known_engines(self):
        assert ENGINES == {"flat": peel_fixed_k_flat}


class TestEngineBasics:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_empty_k_core(self, triangle, name):
        snapshot, core = _prepared(triangle)
        assert ENGINES[name](snapshot, core, 3) == ([], [])

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_triangle_all_peel_at_one(self, triangle, name):
        snapshot, core = _prepared(triangle)
        order, p_numbers = ENGINES[name](snapshot, core, 2)
        assert sorted(order) == [0, 1, 2]
        assert p_numbers == [1.0, 1.0, 1.0]  # noqa: KP002 exact-double oracle

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_k_below_one_rejected(self, triangle, name):
        snapshot, core = _prepared(triangle)
        with pytest.raises(ParameterError, match="k must be >= 1"):
            ENGINES[name](snapshot, core, 0)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_canonical_order_within_rounds(self, name):
        # K4 peels in a single round at level 1.0: canonical order is by
        # internal id.
        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        snapshot, core = _prepared(g)
        order, p_numbers = ENGINES[name](snapshot, core, 3)
        assert order == sorted(order)
        assert len(set(p_numbers)) == 1


class TestEngineEquivalence:
    def test_tie_at_minimum_fraction(self):
        # Two components whose minimum fractions tie exactly at 1/2:
        # a K4 whose vertex 0 carries three pendants (3/6 = 0.5) and a K5
        # whose vertex 10 carries four pendants (4/8 = 0.5).  Both seeds
        # must start the same round.
        edges = [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (0, 4), (0, 5), (0, 6),
            (10, 11), (10, 12), (10, 13), (10, 14),
            (11, 12), (11, 13), (11, 14), (12, 13), (12, 14), (13, 14),
            (10, 15), (10, 16), (10, 17), (10, 18),
        ]
        _assert_kernel_matches_naive(Graph(edges))

    def test_degree_violation_cascade(self):
        # At k=3 the K5's satellites die immediately; deleting the K4-ring
        # bridge drags vertices below degree 3 mid-round, so the drain
        # must cascade degree violators within the round.
        edges = [
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (5, 0), (5, 1), (5, 2),
            (6, 5), (6, 0), (6, 1),
            (7, 6), (7, 5), (7, 0),
        ]
        _assert_kernel_matches_naive(Graph(edges))

    def test_inherited_p_number_cascade(self, cascade_graph):
        _assert_kernel_matches_naive(cascade_graph)

    def test_figure1_like(self, figure1_like_graph):
        _assert_kernel_matches_naive(figure1_like_graph)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graph_sweep(self, random_graph_factory, seed):
        _assert_kernel_matches_naive(random_graph_factory(seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_denser_random_graphs(self, seed):
        _assert_kernel_matches_naive(erdos_renyi_gnm(40, 300, seed=seed))

    def test_single_vertex_graph(self):
        g = Graph()
        g.add_vertex("lonely")
        # Degeneracy 0: no k to peel, and the 1-core is empty.
        snapshot, core = _prepared(g)
        assert peel_fixed_k_flat(snapshot, core, 1) == ([], [])

    def test_star_max_degree_graph(self):
        # A hub of maximum degree stresses the composite-key scale: the
        # ladder of the hub holds d_max distinct fractions a/d_max.
        hub_edges = [("hub", i) for i in range(25)]
        _assert_kernel_matches_naive(Graph(hub_edges))

    def test_max_degree_clique_with_pendants(self):
        edges = [(u, w) for u in range(8) for w in range(u + 1, 8)]
        edges += [(0, f"p{i}") for i in range(12)]
        _assert_kernel_matches_naive(Graph(edges))

    @given(
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_engines_agree(self, edges):
        _assert_kernel_matches_naive(Graph(edges))


class TestCompositeKeys:
    """The kernel's integer keys must order exactly like rationals."""

    def test_key_ordering_equals_fraction_ordering_exhaustive(self):
        for d_max in (1, 2, 3, 7, 16, 31):
            scale = key_scale(d_max)
            pairs = [
                (a, b) for b in range(1, d_max + 1) for a in range(0, b + 1)
            ]
            for a1, b1 in pairs:
                for a2, b2 in pairs:
                    k1 = composite_key(a1, b1, scale)
                    k2 = composite_key(a2, b2, scale)
                    f1, f2 = Fraction(a1, b1), Fraction(a2, b2)
                    assert (k1 < k2) == (f1 < f2), (a1, b1, a2, b2, d_max)
                    assert (k1 == k2) == (f1 == f2), (a1, b1, a2, b2, d_max)

    @given(
        st.integers(1, 10_000),
        st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
        st.tuples(st.integers(1, 10_000), st.integers(1, 10_000)),
    )
    @settings(max_examples=300, deadline=None)
    def test_key_ordering_property(self, d_max, numerators, denominators):
        b1 = 1 + (denominators[0] - 1) % d_max
        b2 = 1 + (denominators[1] - 1) % d_max
        a1 = numerators[0] % (b1 + 1)
        a2 = numerators[1] % (b2 + 1)
        scale = key_scale(d_max)
        k1 = composite_key(a1, b1, scale)
        k2 = composite_key(a2, b2, scale)
        f1, f2 = Fraction(a1, b1), Fraction(a2, b2)
        assert (k1 < k2) == (f1 < f2)
        assert (k1 == k2) == (f1 == f2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParameterError, match="denominator"):
            composite_key(1, 0, key_scale(4))


class TestEngineScratch:
    """make_scratch semantics: reuse, validation, out-of-order k."""

    def test_make_scratch_types(self, figure1_like_graph):
        snapshot, core = _prepared(figure1_like_graph)
        assert isinstance(make_scratch(snapshot, core), FlatScratch)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_wrong_snapshot_rejected(self, name):
        snapshot_a, core_a = _prepared(erdos_renyi_gnm(20, 60, seed=1))
        snapshot_b, _ = _prepared(erdos_renyi_gnm(20, 60, seed=2))
        scratch = make_scratch(snapshot_a, core_a)
        with pytest.raises(ParameterError, match="different snapshot"):
            ENGINES[name](snapshot_b, core_a, 1, scratch=scratch)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_wrong_scratch_type_rejected(self, triangle, name):
        snapshot, core = _prepared(triangle)
        with pytest.raises(ParameterError, match="Scratch"):
            ENGINES[name](snapshot, core, 1, scratch=object())

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_out_of_order_k_rebuilds_prefixes(self, name):
        # Descending and repeated k exercise FlatScratch's backward
        # prefix-length rebuild — results must match fresh calls exactly.
        g = erdos_renyi_gnm(40, 200, seed=7)
        snapshot, core = _prepared(g)
        degeneracy = max(core, default=0)
        engine = ENGINES[name]
        fresh = {
            k: engine(snapshot, core, k) for k in range(1, degeneracy + 1)
        }
        scratch = make_scratch(snapshot, core)
        sequence = (
            list(range(degeneracy, 0, -1))
            + [1, degeneracy]
            + list(range(1, degeneracy + 1))
        )
        for k in sequence:
            assert engine(snapshot, core, k, scratch=scratch) == fresh[k], k


class _WindowSpy:
    """Wraps the maintainer's window re-peel, recording every call."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[int, int, bool]] = []
        peel_window = PeelState.peel_window

        def spy(state, residual, first_new, k, p_plus):
            result = peel_window(state, residual, first_new, k, p_plus)
            self.calls.append((len(residual), first_new, result[3]))
            return result

        monkeypatch.setattr(PeelState, "peel_window", spy)


def _assert_matches_build(maintainer: KPIndexMaintainer) -> None:
    fresh = KPIndex.build(maintainer.graph)
    assert maintainer.index.semantically_equal(fresh)


class TestResidualKernel:
    """PeelState.peel_window, the window re-peel of Algorithms 4/5."""

    def test_boundary_violator_raises(self):
        # Vertex 4 keeps one of its four neighbours in the residual, so it
        # starts below k=3.  A correct window's residual is a k-core, so
        # the kernel refuses it instead of peeling it in a first round.
        g = Graph(
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (0, 4), (4, 5), (4, 6), (4, 7)]
        )
        state = PeelState(g)
        with pytest.raises(IndexStateError, match="residual vertex 4"):
            state.peel_window([0, 1, 2, 3, 4], 0, 3, 1.0)
        # Without the violator the residual is the 3-core and peels
        # exactly as the index build has it — on the same state, whose
        # window mask the refused call left clean.
        order, p_numbers, tail, stopped = state.peel_window(
            [0, 1, 2, 3], 0, 3, 1.0
        )
        assert not stopped and tail == []
        fresh = KPIndex.build(g).array(3).pn_map()
        assert dict(zip(order, p_numbers)) == fresh  # noqa: KP002 oracle

    def test_vertex_without_residual_neighbour(self):
        # Vertex 9 has no neighbour inside the residual (the a = 0 key the
        # ladder no longer holds): the kernel raises, even when it is a
        # new member that would otherwise block the early stop.
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (9, 5), (5, 6)])
        state = PeelState(g)
        for first_new in (5, 4):
            with pytest.raises(IndexStateError, match="residual vertex 9"):
                state.peel_window([0, 1, 2, 3, 9], first_new, 2, 1.0)

    #: K5 {0..4} plus vertex 5 on 0, 1 and the pendant 9.  At k=2 vertex
    #: 5 peels at 2/3, then all of the K5 at 4/5.
    _K5_WITH_EAR = [(u, w) for u in range(5) for w in range(u + 1, 5)] + [
        (5, 0), (5, 1), (5, 9)
    ]
    #: Old array order of the 2-core, deliberately not sorted.
    _OLD_ORDER = [2, 5, 0, 4, 1, 3]

    def test_early_stop_returns_tail_in_old_order(self):
        # p_+ = 0.7 lies between the two levels: the peel stops after the
        # first round and the survivors come back in old array order.
        g = Graph(self._K5_WITH_EAR)
        order, p_numbers, tail, stopped = PeelState(g).peel_window(
            self._OLD_ORDER, 6, 2, 0.7
        )
        assert stopped
        assert (order, p_numbers) == ([5], [2 / 3])
        assert tail == [2, 0, 4, 1, 3]

    def test_pending_new_member_blocks_early_stop(self):
        # Same residual, but vertex 3 is new (after first_new): the peel
        # may not stop while it is alive, so everything is re-peeled.
        # Within a round the order is by state id (first-seen graph
        # order), so the K5 round comes out as 0..4.
        g = Graph(self._K5_WITH_EAR)
        order, p_numbers, tail, stopped = PeelState(g).peel_window(
            self._OLD_ORDER, 5, 2, 0.7
        )
        assert not stopped and tail == []
        assert order == [5, 0, 1, 2, 3, 4]
        fresh = KPIndex.build(g).array(2).pn_map()
        assert dict(zip(order, p_numbers)) == fresh  # noqa: KP002 oracle

    def test_maintainer_early_stop_with_pending_new_member(self, monkeypatch):
        # Inserting (2, 7) promotes vertices into the 2-core: they are new
        # members of A_2, peeled before the Thm. 4 early stop fires.
        g = Graph(
            [(0, 7), (1, 7), (2, 5), (3, 8), (4, 5), (4, 6), (4, 7), (4, 9),
             (5, 6), (6, 8), (6, 9), (7, 8)]
        )
        spy = _WindowSpy(monkeypatch)
        maintainer = KPIndexMaintainer(g)
        maintainer.insert_edge(2, 7)
        assert any(
            stopped and first_new < size for size, first_new, stopped in spy.calls
        )
        assert maintainer.stats.early_stops >= 1
        _assert_matches_build(maintainer)

    def test_maintainer_early_stop_without_new_member(self, monkeypatch):
        g = Graph(
            [(0, 5), (0, 7), (1, 3), (1, 5), (1, 6), (1, 7), (2, 7), (2, 8),
             (2, 9), (3, 5), (3, 6), (4, 6), (4, 7), (5, 6), (5, 7), (5, 8),
             (6, 7), (7, 8), (7, 9)]
        )
        spy = _WindowSpy(monkeypatch)
        maintainer = KPIndexMaintainer(g)
        maintainer.delete_edge(0, 7)
        assert any(
            stopped and first_new == size
            for size, first_new, stopped in spy.calls
        )
        _assert_matches_build(maintainer)

    @pytest.mark.parametrize("seed", range(3))
    def test_string_labelled_stream(self, seed):
        base = erdos_renyi_gnm(30, 110, seed=seed)
        g = Graph((f"v{u}", f"v{w}") for u, w in base.edges())
        maintainer = KPIndexMaintainer(g)
        rng = random.Random(seed)
        labels = sorted(g.vertices())
        for _ in range(25):
            u, w = rng.sample(labels, 2)
            if maintainer.graph.has_edge(u, w):
                maintainer.delete_edge(u, w)
            else:
                maintainer.insert_edge(u, w)
            _assert_matches_build(maintainer)


def test_serving_import_leaves_numpy_unloaded():
    code = (
        "import sys, repro, repro.service.server, repro.core.maintenance\n"
        "import repro.cli\n"
        "for name in ('numpy', 'multiprocessing'):\n"
        "    assert name not in sys.modules, name + ' imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
