"""The maintainer's running graph fingerprint and the snapshot bytes.

:meth:`KPIndexMaintainer.fingerprint` hashes the graph at most once and
then toggles one edge digest per applied op; checkpoints read it instead
of rehashing the graph.  The soak checks it against a full rehash after
every kind of update; under ``REPRO_VERIFY=1`` the maintainer contracts
check the same after every update and batch on small graphs.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.maintenance as maintenance_module
from repro.core.index import KPIndex
from repro.core.maintenance import KPIndexMaintainer
from repro.devtools.contracts import set_contracts_active
from repro.errors import ContractViolationError
from repro.graph.adjacency import Graph
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.generators import erdos_renyi_gnm
from repro.service import DurableMaintainer


@pytest.fixture
def contracts_off():
    previous = set_contracts_active(False)
    yield
    set_contracts_active(previous)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


_VERTEX = st.integers(0, 9)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("edge"), _VERTEX, _VERTEX),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(_VERTEX, _VERTEX), min_size=2, max_size=6),
        ),
        st.tuples(st.just("add_vertex"), st.lists(_VERTEX, max_size=4)),
        st.tuples(st.just("drop_vertex"), _VERTEX),
    ),
    min_size=1,
    max_size=12,
)


class TestRunningFingerprintSoak:
    @given(st.integers(0, 40), st.booleans(), st.booleans(), _OPS)
    @settings(max_examples=60, deadline=None)
    def test_running_fingerprint_follows_every_update(
        self, seed, strings, adopt, ops
    ):
        def name(i):
            return f"v{i}" if strings else i

        base = erdos_renyi_gnm(10, 22, seed=seed)
        graph = Graph((name(u), name(v)) for u, v in base.edges())
        maintainer = KPIndexMaintainer(graph)
        if adopt:
            maintainer.adopt_fingerprint(graph_fingerprint(graph))
        assert maintainer.fingerprint() == graph_fingerprint(graph)
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
                maintainer.apply_batch(updates)
            elif kind == "add_vertex":
                v = name(next(fresh_labels))
                nbrs = list(dict.fromkeys(name(i) for i in op[1]))
                maintainer.insert_vertex(v, [w for w in nbrs if w in graph])
            else:
                v = name(op[1])
                if v in graph:
                    maintainer.delete_vertex(v)
            assert maintainer.fingerprint() == graph_fingerprint(graph)


class TestRunningFingerprintCost:
    def test_unfingerprinted_maintainer_hashes_nothing(
        self, monkeypatch, contracts_off
    ):
        digests = _count_calls(monkeypatch, maintenance_module, "edge_digest")
        rehashes = _count_calls(
            monkeypatch, maintenance_module, "edge_multiset_hash"
        )
        maintainer = KPIndexMaintainer(erdos_renyi_gnm(20, 50, seed=3))
        u, v = next(iter(sorted(maintainer.graph.edges())))
        maintainer.delete_edge(u, v)
        maintainer.apply_batch([("insert", u, v), ("insert", 0, 19)])
        assert digests == [] and rehashes == []

    def test_graph_is_hashed_once_then_toggled(
        self, monkeypatch, contracts_off
    ):
        maintainer = KPIndexMaintainer(erdos_renyi_gnm(20, 50, seed=4))
        rehashes = _count_calls(
            monkeypatch, maintenance_module, "edge_multiset_hash"
        )
        digests = _count_calls(monkeypatch, maintenance_module, "edge_digest")
        first = maintainer.fingerprint()
        u, v = next(iter(sorted(maintainer.graph.edges())))
        maintainer.delete_edge(u, v)
        maintainer.apply_batch([("insert", u, v), ("insert", 0, 19)])
        assert len(rehashes) == 1
        assert len(digests) == 1 + 2  # one per applied net op
        assert maintainer.fingerprint() == graph_fingerprint(maintainer.graph)
        maintainer.delete_edge(0, 19)
        assert maintainer.fingerprint() == first

    def test_reopened_checkpoint_never_rehashes(
        self, tmp_path, monkeypatch, contracts_off
    ):
        state = str(tmp_path / "state")
        edges = list(erdos_renyi_gnm(16, 40, seed=5).edges())
        with DurableMaintainer(state, checkpoint_every=10**9) as durable:
            durable.apply_batch([("insert", u, v) for u, v in edges])
            durable.checkpoint()
        rehashes = _count_calls(
            monkeypatch, maintenance_module, "edge_multiset_hash"
        )
        with DurableMaintainer(state, checkpoint_every=10**9) as durable:
            durable.delete_edge(*edges[0])
            durable.apply_batch([("insert", 0, 99), ("insert", 1, 99)])
            seq = durable.checkpoint()
            graph = durable.graph
        assert rehashes == []
        saved = KPIndex.load(str(tmp_path / "state" / f"checkpoint-{seq}.index.json"))
        assert saved.fingerprint == graph_fingerprint(graph)


class TestRunningFingerprintContract:
    def test_a_missed_toggle_is_caught(self):
        previous = set_contracts_active(True)
        try:
            maintainer = KPIndexMaintainer(erdos_renyi_gnm(12, 30, seed=6))
            u, v = next(iter(sorted(maintainer.graph.edges())))
            maintainer.fingerprint()
            maintainer._edge_hash ^= 1  # a digest toggled twice, say
            with pytest.raises(ContractViolationError, match="fingerprint"):
                maintainer.delete_edge(u, v)
        finally:
            set_contracts_active(previous)


class TestSnapshotBytes:
    @pytest.mark.parametrize("strings", [False, True])
    def test_save_writes_one_shot_json_of_the_document(self, tmp_path, strings):
        base = erdos_renyi_gnm(18, 45, seed=7)
        graph = Graph(
            (f"v{u}", f"v{v}") if strings else (u, v) for u, v in base.edges()
        )
        index = KPIndex.build(graph)
        fingerprint = graph_fingerprint(graph)
        path = tmp_path / "index.json"
        index.save(str(path), fingerprint=fingerprint)
        document = index.to_dict(fingerprint)
        written = path.read_bytes()
        assert written == json.dumps(document).encode("utf-8")
        # ... which is what the streaming encoder wrote before.
        streamed = io.StringIO()
        json.dump(document, streamed)
        assert written == streamed.getvalue().encode("utf-8")
