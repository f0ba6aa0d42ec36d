"""Recovery applies a journal tail as one net batch.

Opening a state directory validates each tail record, in order, against
the edge set the records before it left, skips a failing record whole,
and applies the net difference against the checkpoint graph through one
``apply_batch``.  The differential soak holds that to record-by-record
replay on a copy: the same graph (isolated vertices included), an index
equal to ``KPIndex.build`` and the same ``RecoveryReport`` counts.
"""

from __future__ import annotations

import os

from hypothesis import given, settings, strategies as st

import repro.kcore.maintenance as kcore_maintenance
from repro.core.index import KPIndex
from repro.core.maintenance import KPIndexMaintainer
from repro.errors import GraphError
from repro.graph.adjacency import Graph
from repro.graph.compact import CompactAdjacency
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.generators import erdos_renyi_gnm
from repro.kcore.maintenance import CoreMaintainer
from repro.service import DurableMaintainer, UpdateJournal
from repro.service.durable import JOURNAL_NAME


def _checkpointed(state: str, graph: Graph) -> int:
    """A state directory whose checkpoint holds ``graph``; returns the
    first free journal sequence number."""
    with DurableMaintainer(state, checkpoint_every=10**9) as durable:
        for v in graph.vertices():
            durable.maintainer.insert_vertex(v)
        durable.apply_batch([("insert", u, v) for u, v in graph.edges()])
        return durable.checkpoint() + 1


def _write_tail(state: str, start_seq: int, records: list) -> None:
    journal = UpdateJournal(os.path.join(state, JOURNAL_NAME), start_seq)
    with journal:
        for record in records:
            if record[0] == "batch":
                journal.append_batch(record[1])
            else:
                journal.append(*record)


def _sequential(graph: Graph, records: list) -> tuple[KPIndexMaintainer, int]:
    """Record-by-record replay on a copy; returns it and the skip count."""
    maintainer = KPIndexMaintainer(graph.copy())
    skipped = 0
    for record in records:
        try:
            if record[0] == "batch":
                maintainer.apply_batch(record[1])
            elif record[0] == "insert":
                maintainer.insert_edge(record[1], record[2])
            else:
                maintainer.delete_edge(record[1], record[2])
        except GraphError:
            skipped += 1
    return maintainer, skipped


def _assert_recovers_like_sequential(
    state: str, graph: Graph, records: list
) -> DurableMaintainer:
    start = _checkpointed(state, graph)
    _write_tail(state, start, records)
    expected, skipped = _sequential(graph, records)
    durable = DurableMaintainer(state, checkpoint_every=10**9)
    recovered = durable.graph
    assert recovered == expected.graph
    assert set(recovered.vertices()) == set(expected.graph.vertices())
    assert durable.index.semantically_equal(KPIndex.build(recovered))
    assert durable.index.semantically_equal(expected.index)
    assert durable.recovery is not None
    assert durable.recovery.replayed == len(records)
    assert durable.recovery.skipped == skipped
    cores = CoreMaintainer(recovered.copy())
    for v in recovered.vertices():
        assert durable.maintainer.core_number(v) == cores.core_number(v)
    assert durable.maintainer.fingerprint() == graph_fingerprint(recovered)
    return durable


_VERTEX = st.integers(0, 9)
_RECORDS = st.lists(
    st.one_of(
        # A valid single update: toggles the pair.
        st.tuples(st.just("toggle"), _VERTEX, _VERTEX),
        # A failing single update: a duplicate insert or a delete of an
        # absent edge, whichever the pair allows.
        st.tuples(st.just("fail"), _VERTEX, _VERTEX),
        # A batch of toggles; with the flag set it ends in a failing op.
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(_VERTEX, _VERTEX), min_size=1, max_size=6),
            st.booleans(),
        ),
        # An edge to a fresh vertex, deleted again by a later record.
        st.tuples(st.just("pendant"), _VERTEX, st.integers(0, 3)),
    ),
    min_size=1,
    max_size=10,
)


def _tail(graph: Graph, plan: list, name) -> list:
    """Journal records for ``plan``, drawn against the edge set the
    surviving records leave (so toggles are valid and fails fail)."""
    present = {frozenset(e) for e in graph.edges()}
    records: list = []
    later: list = []
    fresh = iter(range(100, 1000))

    def toggle(u, v, edges):
        key = frozenset((u, v))
        if key in edges:
            edges.discard(key)
            return ("delete", u, v)
        edges.add(key)
        return ("insert", u, v)

    for step in plan:
        kind = step[0]
        if kind in ("toggle", "fail"):
            u, v = name(step[1]), name(step[2])
            if u == v:
                records.append(("insert", u, v))  # a self-loop fails too
                continue
            if kind == "toggle":
                records.append(toggle(u, v, present))
            else:
                here = frozenset((u, v)) in present
                records.append(("insert" if here else "delete", u, v))
        elif kind == "batch":
            edges = set(present)
            ops = [
                toggle(name(a), name(b), edges)
                for a, b in step[1]
                if a != b
            ]
            if step[2]:
                ops.append(("delete", name(0), name(100 + 999)))
            elif ops:
                present = edges
            records.append(("batch", tuple(ops)))
        else:
            u, w = name(step[1]), name(next(fresh))
            records.append(("insert", u, w))
            present.add(frozenset((u, w)))
            later.append((step[2], ("delete", u, w)))
        # Deferred pendant deletes land a few records later.
        due = [entry for entry in later if entry[0] <= 0]
        later = [(wait - 1, record) for wait, record in later if wait > 0]
        for _, record in due:
            records.append(record)
            present.discard(frozenset(record[1:]))
    for _, record in later:
        records.append(record)
        present.discard(frozenset(record[1:]))
    return records


class TestMergedRecoverySoak:
    @given(st.integers(0, 40), st.booleans(), _RECORDS)
    @settings(max_examples=50, deadline=None)
    def test_merged_recovery_equals_sequential_replay(
        self, tmp_path_factory, seed, strings, plan
    ):
        def name(i):
            return f"v{i}" if strings else i

        base = erdos_renyi_gnm(10, 20, seed=seed)
        graph = Graph((name(u), name(v)) for u, v in base.edges())
        graph.add_vertex(name(50))  # an isolated vertex in the checkpoint
        records = _tail(graph, plan, name)
        state = str(tmp_path_factory.mktemp("state"))
        _assert_recovers_like_sequential(state, graph, records).close()


class TestMergedRecoveryCases:
    def test_cross_record_insert_then_delete_leaves_isolated_vertices(
        self, tmp_path
    ):
        graph = erdos_renyi_gnm(12, 30, seed=3)
        records = [
            ("insert", 0, 200),
            ("batch", (("insert", 200, 201), ("insert", 1, 201))),
            ("delete", 0, 200),
            ("batch", (("delete", 200, 201), ("delete", 1, 201))),
        ]
        with _assert_recovers_like_sequential(
            str(tmp_path / "state"), graph, records
        ) as durable:
            for v in (200, 201):
                assert durable.graph.degree(v) == 0
                assert not durable.index.array(1).contains(v)
            # The tail nets out: nothing to re-peel.
            assert durable.maintainer.stats.batches == 0

    def test_failing_records_are_skipped_whole(self, tmp_path):
        graph = Graph([(1, 2), (2, 3), (3, 1), (3, 4)])
        records = [
            ("insert", 1, 2),  # duplicate insert
            ("batch", (("insert", 1, 4), ("delete", 5, 6))),  # absent delete
            ("delete", 3, 4),
            ("delete", 3, 4),  # absent by now
            ("batch", (("insert", 2, 4), ("insert", 1, 4))),
        ]
        with _assert_recovers_like_sequential(
            str(tmp_path / "state"), graph, records
        ) as durable:
            assert durable.recovery.skipped == 3
            assert durable.graph.has_edge(1, 4) and durable.graph.has_edge(2, 4)
            assert not durable.graph.has_edge(3, 4)
            assert 5 not in durable.graph and 6 not in durable.graph

    def test_one_net_op_takes_the_windows(self, tmp_path):
        graph = erdos_renyi_gnm(16, 40, seed=4)
        u, v = next(iter(sorted(graph.edges())))
        records = [("delete", u, v), ("insert", u, v), ("delete", u, v)]
        with _assert_recovers_like_sequential(
            str(tmp_path / "state"), graph, records
        ) as durable:
            stats = durable.maintainer.stats
            assert stats.batches == 1 and stats.deletions == 1
            assert stats.arrays_examined == stats.arrays_skipped_theorem6 + (
                stats.arrays_updated
            )

    def test_two_batch_tail_decomposes_once(self, tmp_path, monkeypatch):
        # The perfbench crash shape: two batch records after a checkpoint.
        state = str(tmp_path / "state")
        graph = erdos_renyi_gnm(30, 90, seed=45)
        start = _checkpointed(state, graph)
        edges = sorted(graph.edges())
        absent = [
            (u, v) for u in range(30) for v in range(u + 1, 30)
            if not graph.has_edge(u, v)
        ]
        _write_tail(
            state,
            start,
            [
                ("batch", tuple(("delete", u, v) for u, v in edges[:4])),
                ("batch", tuple(
                    ("insert", u, v) for u, v in absent[:2] + edges[:2]
                )),
            ],
        )
        built = []
        init = CompactAdjacency.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def no_decomposition(*args, **kwargs):
            raise AssertionError("core_decomposition ran at open")

        monkeypatch.setattr(CompactAdjacency, "__init__", counting_init)
        monkeypatch.setattr(
            kcore_maintenance, "core_decomposition", no_decomposition
        )
        with DurableMaintainer(state) as durable:
            monkeypatch.undo()
            assert durable.recovery is not None
            assert durable.recovery.replayed == 2
            assert len(built) == 1
            assert durable.maintainer.stats.batches == 1
            assert durable.index.semantically_equal(
                KPIndex.build(durable.graph)
            )
