"""The maintainer's persistent peel state (:class:`repro.core.peel_flat.PeelState`).

A single op patches the state's int-id adjacency in O(deg) and rebuilds
its rank ladder only when a vertex reaches a degree the ladder never
held; a multi-op batch and vertex insert/delete drop it, and the next
window re-peel builds it again.  The soak interleaves every kind of
update and checks after each one that the state mirrors the graph and
that the index equals a from-scratch build.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.index import KPIndex
from repro.core.maintenance import KPIndexMaintainer
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi_gnm


def _assert_state_mirrors_graph(maintainer: KPIndexMaintainer) -> None:
    graph = maintainer.graph
    state = maintainer._peel_state
    if state is not None:
        label_of, ind = state.label_of, state.ind
        for x, (v, p, d) in enumerate(zip(label_of, state.iptr, state.deg)):
            assert state.id_of[v] == x
            held = [label_of[w] for w in ind[p : p + d]]
            assert len(held) == len(set(held)) <= state.cap[x], v
            assert set(held) == (graph.neighbors(v) if v in graph else set()), v
        assert set(graph.vertices()) <= set(state.id_of)
        # The window mask and new-member flags rest at 0 between peels.
        assert not any(state.deg_s) and not any(state.fresh)
        assert state.lp == [state.block[d] for d in state.deg]
    assert maintainer.index.semantically_equal(KPIndex.build(graph))


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
                report = maintainer.apply_batch(updates)
                if report.applied > 1:
                    assert maintainer._peel_state is None
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

        (a, b), (c, d) = stream[:2]
        report = maintainer.apply_batch([("delete", a, b), ("delete", c, d)])
        assert report.applied == 2
        assert maintainer._peel_state is None
        assert stats.peel_state_builds == 1

        updated = stats.arrays_updated
        maintainer.insert_edge(a, b)
        assert stats.arrays_updated > updated  # a window was re-peeled
        assert stats.peel_state_builds == 2
        _assert_state_mirrors_graph(maintainer)

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
