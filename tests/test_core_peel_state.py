"""The maintainer's persistent peel state (:class:`repro.core.peel_flat.PeelState`).

A single op patches the state's int-id adjacency in O(deg) and rebuilds
its rank ladder only when a vertex reaches a degree the ladder never
held.  A multi-op batch runs on the same state: a held state is patched
and kept, a stateless maintainer builds one for the batch and drops it.
Vertex insert/delete and closing the durable layer drop it, and the
next window re-peel builds it again.  The soaks interleave every kind of
update and check after each one that the state mirrors the graph
(:func:`repro.devtools.contracts.check_peel_state`) and that the index
equals a from-scratch build.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import KPIndex
from repro.core.maintenance import KPIndexMaintainer
from repro.core.naive import naive_core_numbers, naive_p_numbers_fixed_k
from repro.devtools.contracts import check_peel_state
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi_gnm
from repro.kcore.decomposition import core_decomposition
from repro.service.durable import DurableMaintainer
from repro.service.server import KPCoreServer


def _assert_state_mirrors_graph(maintainer: KPIndexMaintainer) -> None:
    check_peel_state(maintainer)
    assert maintainer.index.semantically_equal(KPIndex.build(maintainer.graph))


_VERTEX = st.integers(0, 9)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("edge"), _VERTEX, _VERTEX),
        st.tuples(st.just("edge"), _VERTEX, _VERTEX),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(_VERTEX, _VERTEX), min_size=2, max_size=6),
        ),
        st.tuples(st.just("add_vertex"), st.lists(_VERTEX, max_size=4)),
        st.tuples(st.just("drop_vertex"), _VERTEX),
        st.tuples(st.just("hub"), _VERTEX),
    ),
    min_size=1,
    max_size=12,
)


class TestPeelStateSoak:
    @given(st.integers(0, 40), st.booleans(), _OPS)
    @settings(max_examples=60, deadline=None)
    def test_state_and_index_follow_every_update(self, seed, strings, ops):
        def name(i):
            return f"v{i}" if strings else i

        base = erdos_renyi_gnm(10, 22, seed=seed)
        relabelled = Graph((name(u), name(v)) for u, v in base.edges())
        maintainer = KPIndexMaintainer(relabelled)
        graph = maintainer.graph
        fresh_labels = iter(range(100, 1000))
        for op in ops:
            kind = op[0]
            if kind == "edge":
                u, v = name(op[1]), name(op[2])
                if u == v:
                    continue
                if graph.has_edge(u, v):
                    maintainer.delete_edge(u, v)
                else:
                    maintainer.insert_edge(u, v)
            elif kind == "batch":
                present: dict[frozenset, bool] = {}
                updates = []
                for a, b in op[1]:
                    u, v = name(a), name(b)
                    if u == v:
                        continue
                    key = frozenset((u, v))
                    here = present.get(key, graph.has_edge(u, v))
                    updates.append(("delete" if here else "insert", u, v))
                    present[key] = not here
                held = maintainer._peel_state
                report = maintainer.apply_batch(updates)
                # A multi-op batch never changes whether a state is held
                # (one net op is a single op, whose window may build one).
                if report.applied > 1:
                    assert maintainer._peel_state is held
            elif kind == "add_vertex":
                v = name(next(fresh_labels))
                nbrs = list(dict.fromkeys(name(i) for i in op[1]))
                maintainer.insert_vertex(v, [w for w in nbrs if w in graph])
            elif kind == "drop_vertex":
                v = name(op[1])
                if v in graph:
                    maintainer.delete_vertex(v)
                    assert maintainer._peel_state is None
            else:
                # Grow one vertex one edge at a time to a new maximum
                # degree — a degree the ladder has never held.
                hub = name(op[1])
                if hub not in graph:
                    continue
                top = max(graph.degree(w) for w in graph.vertices())
                spare = [
                    w for w in graph.vertices()
                    if w != hub and not graph.has_edge(hub, w)
                ]
                while graph.degree(hub) <= top:
                    w = spare.pop() if spare else name(next(fresh_labels))
                    maintainer.insert_edge(hub, w)
                    _assert_state_mirrors_graph(maintainer)
            _assert_state_mirrors_graph(maintainer)


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("single"), _VERTEX, _VERTEX),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(_VERTEX, _VERTEX), min_size=2, max_size=8),
        ),
        st.tuples(st.just("isolate"), _VERTEX, _VERTEX),
        st.tuples(st.just("fresh"), st.lists(_VERTEX, min_size=1, max_size=4)),
        st.tuples(st.just("flatten"), st.integers(0, 3)),
        st.tuples(st.just("add_vertex"), st.lists(_VERTEX, max_size=3)),
        st.tuples(st.just("drop_vertex"), _VERTEX),
    ),
    min_size=1,
    max_size=10,
)


class TestBatchesOnPeelState:
    """Single ops and multi-op batches interleaved on one maintainer."""

    @staticmethod
    def _toggle(graph: Graph, pairs) -> list:
        """Each pair's edge flipped, validated against the simulated edges."""
        present: dict[frozenset, bool] = {}
        updates = []
        for u, v in pairs:
            if u == v:
                continue
            key = frozenset((u, v))
            here = present.get(key, graph.has_edge(u, v))
            updates.append(("delete" if here else "insert", u, v))
            present[key] = not here
        return updates

    @staticmethod
    def _assert_exact(maintainer: KPIndexMaintainer) -> None:
        graph = maintainer.graph
        check_peel_state(maintainer)
        assert maintainer.index.semantically_equal(KPIndex.build(graph))
        arrays = maintainer.index.arrays()
        for k in range(1, maintainer.index.degeneracy + 2):
            array = arrays.get(k)
            got = array.pn_map() if array is not None else {}
            assert got == naive_p_numbers_fixed_k(graph, k), k  # noqa: KP002
        fresh = core_decomposition(graph).core_numbers
        assert fresh == naive_core_numbers(graph)
        assert {v: maintainer.core_number(v) for v in graph.vertices()} == fresh

    def _batch(self, maintainer: KPIndexMaintainer, updates: list) -> None:
        held = maintainer._peel_state
        builds = maintainer.stats.peel_state_builds
        ladder = set(held.block) if held is not None else set()
        report = maintainer.apply_batch(updates)
        stats = maintainer.stats
        if held is None:
            if report.applied > 1:
                # Built for the batch alone and dropped with it.  (One
                # net op is a single op: its window may build the state.)
                assert maintainer._peel_state is None
                assert stats.peel_state_builds == builds + 1
        else:
            assert maintainer._peel_state is held
            # Patched in place: only a degree the ladder never held
            # rebuilds it, once per batch.
            graph = maintainer.graph
            endpoints = {w for _, u, v in updates for w in (u, v)}
            new_degree = any(graph.degree(w) not in ladder for w in endpoints)
            assert stats.peel_state_builds == builds + (
                new_degree and report.applied > 0
            )

    @given(st.integers(0, 40), st.booleans(), _STEPS)
    @settings(max_examples=60, deadline=None)
    def test_interleaved_singles_and_batches(self, seed, strings, steps):
        def name(i):
            return f"v{i}" if strings else i

        base = erdos_renyi_gnm(10, 24, seed=seed)
        maintainer = KPIndexMaintainer(
            Graph((name(u), name(v)) for u, v in base.edges())
        )
        graph = maintainer.graph
        fresh_labels = iter(range(100, 1000))
        for step in steps:
            kind = step[0]
            if kind == "single":
                u, v = name(step[1]), name(step[2])
                if u == v:
                    continue
                if graph.has_edge(u, v):
                    maintainer.delete_edge(u, v)
                else:
                    maintainer.insert_edge(u, v)
            elif kind == "batch":
                pairs = [(name(a), name(b)) for a, b in step[1]]
                self._batch(maintainer, self._toggle(graph, pairs))
            elif kind == "isolate":
                # Strip one or two vertices bare: their A_1 entries leave.
                doomed = [w for w in {name(step[1]), name(step[2])} if w in graph]
                updates = list(dict.fromkeys(
                    ("delete", *sorted((w, x), key=str))
                    for w in doomed
                    for x in sorted(graph.neighbors(w), key=str)
                ))
                self._batch(maintainer, updates)
                for w in doomed:
                    assert graph.degree(w) == 0
            elif kind == "fresh":
                # Edges to vertices the graph has never seen.
                v = name(next(fresh_labels))
                w = name(next(fresh_labels))
                updates = [("insert", v, w)]
                updates += [
                    ("insert", v, name(a))
                    for a in dict.fromkeys(step[1])
                    if name(a) in graph
                ]
                self._batch(maintainer, updates)
            elif kind == "flatten":
                # Delete every edge inside the top core (or one core
                # below): the degeneracy drops under the batch's reach.
                top = maintainer.index.degeneracy
                k = max(top - step[1], 1)
                core = {w for w in graph.vertices() if maintainer.core_number(w) >= k}
                updates = [
                    ("delete", u, v) for u, v in sorted(graph.edges(), key=str)
                    if u in core and v in core
                ]
                self._batch(maintainer, updates)
                if updates:
                    assert maintainer.index.degeneracy < k
            elif kind == "add_vertex":
                v = name(next(fresh_labels))
                nbrs = [name(a) for a in dict.fromkeys(step[1])]
                maintainer.insert_vertex(v, [w for w in nbrs if w in graph])
            else:
                v = name(step[1])
                if v in graph:
                    maintainer.delete_vertex(v)
            self._assert_exact(maintainer)


class TestPeelStateBuilds:
    """``MaintenanceStats.peel_state_builds`` counts builds and re-levels."""

    @staticmethod
    def _stream(maintainer: KPIndexMaintainer, size: int, seed: int):
        """Edges whose delete + re-insert reach only degrees others hold."""
        graph = maintainer.graph
        rng = random.Random(seed)
        edges = sorted(graph.edges())
        rng.shuffle(edges)
        stream = []
        for u, v in edges:
            others = {
                graph.degree(w) for w in graph.vertices() if w not in (u, v)
            }
            reached = {
                d for x in (u, v) for d in (graph.degree(x), graph.degree(x) - 1)
            }
            if all(d in others for d in reached):
                stream.append((u, v))
            if len(stream) == size:
                return stream
        raise AssertionError("graph too small for the stream")

    def test_single_op_stream_builds_once_and_batches_drop(self):
        maintainer = KPIndexMaintainer(erdos_renyi_gnm(60, 240, seed=4))
        stats = maintainer.stats
        stream = self._stream(maintainer, 15, seed=4)
        assert stats.peel_state_builds == 0  # lazy: nothing built yet
        for u, v in stream:
            maintainer.delete_edge(u, v)
            maintainer.insert_edge(u, v)
        assert stats.peel_state_builds == 1  # no ladder rebuild either
        _assert_state_mirrors_graph(maintainer)

        # A batch keeps a held state: patched, not rebuilt.
        state = maintainer._peel_state
        (a, b), (c, d) = stream[:2]
        batch = [("delete", a, b), ("delete", c, d)]
        report = maintainer.apply_batch(batch)
        assert report.applied == 2
        assert maintainer._peel_state is state
        assert stats.peel_state_builds == 1
        _assert_state_mirrors_graph(maintainer)

        updated = stats.arrays_updated
        maintainer.insert_edge(a, b)
        assert stats.arrays_updated > updated  # a window was re-peeled
        assert maintainer._peel_state is state
        assert stats.peel_state_builds == 1
        _assert_state_mirrors_graph(maintainer)

        # A batch on a stateless maintainer builds a state and drops it.
        stateless = KPIndexMaintainer(erdos_renyi_gnm(60, 240, seed=4))
        report = stateless.apply_batch(batch)
        assert report.applied == 2
        assert stateless._peel_state is None
        assert stateless.stats.peel_state_builds == 1
        stateless.insert_edge(a, b)
        assert stateless.index.semantically_equal(maintainer.index)

    def test_new_maximum_degree_rebuilds_the_ladder(self):
        maintainer = KPIndexMaintainer(erdos_renyi_gnm(40, 160, seed=2))
        graph = maintainer.graph
        u, v = next(iter(sorted(graph.edges())))
        maintainer.delete_edge(u, v)
        maintainer.insert_edge(u, v)
        state = maintainer._peel_state
        assert state is not None
        builds = maintainer.stats.peel_state_builds
        hub = max(graph.vertices(), key=graph.degree)
        top = graph.degree(hub)
        # A partner whose next degree the ladder already holds, so only
        # the hub's new maximum is a degree it never held.
        w = next(
            w for w in sorted(graph.vertices())
            if w != hub
            and not graph.has_edge(hub, w)
            and graph.degree(w) + 1 in state.block
        )
        maintainer.insert_edge(hub, w)
        assert graph.degree(hub) == top + 1
        assert maintainer._peel_state is state  # patched, not rebuilt
        assert top + 1 in state.block
        assert maintainer.stats.peel_state_builds == builds + 1
        _assert_state_mirrors_graph(maintainer)


class TestStateLifetime:
    """Closing the durable layer gives the peel state back."""

    @staticmethod
    def _held(durable: DurableMaintainer) -> None:
        graph = erdos_renyi_gnm(20, 60, seed=8)
        durable.apply_batch([("insert", u, v) for u, v in graph.edges()])
        assert durable.maintainer._peel_state is None  # seeding kept none
        u, v = next(iter(sorted(graph.edges())))
        durable.delete_edge(u, v)
        durable.insert_edge(u, v)
        assert durable.maintainer._peel_state is not None

    def test_durable_close_releases_the_state(self, tmp_path):
        durable = DurableMaintainer(str(tmp_path / "state"))
        self._held(durable)
        maintainer = durable.maintainer
        durable.close()
        assert maintainer._peel_state is None

    def test_server_close_releases_the_state(self, tmp_path):
        durable = DurableMaintainer(str(tmp_path / "state"))
        self._held(durable)
        server = KPCoreServer(durable)
        server.close()
        assert durable.maintainer._peel_state is None

    def test_a_released_state_is_built_again(self):
        maintainer = KPIndexMaintainer(erdos_renyi_gnm(30, 90, seed=9))
        u, v = next(iter(sorted(maintainer.graph.edges())))
        maintainer.delete_edge(u, v)
        assert maintainer._peel_state is not None
        maintainer.release_peel_state()
        assert maintainer._peel_state is None
        maintainer.insert_edge(u, v)
        assert maintainer._peel_state is not None
        _assert_state_mirrors_graph(maintainer)


@pytest.mark.parametrize("strings", [False, True])
def test_seeding_batch_equals_a_build(strings):
    # An empty maintainer seeded by one batch of every edge (the
    # durable set-up path) re-peels every array on a transient state.
    base = erdos_renyi_gnm(40, 150, seed=12)
    edges = [(f"v{u}", f"v{v}") if strings else (u, v) for u, v in base.edges()]
    maintainer = KPIndexMaintainer(Graph())
    maintainer.apply_batch([("insert", u, v) for u, v in edges])
    assert maintainer._peel_state is None
    assert maintainer.stats.peel_state_builds == 1
    assert maintainer.index.semantically_equal(KPIndex.build(Graph(edges)))
