"""Differential soak and unit tests for batched maintenance.

The contract under test: for every grouping of a valid update stream
into batches, :meth:`KPIndexMaintainer.apply_batch` leaves the index
semantically equal to (a) applying the same stream edge-by-edge and
(b) a from-scratch rebuild — while re-peeling each affected ``A_k`` at
most once per batch and bumping its version exactly once.  Batches of one must be
*behaviourally identical* to the single-edge path, version bumps
included, and insert+delete cancellations must leave the index
byte-identical (no spurious bumps, no ghost vertices).  Edge cases
(inserted edges inside the core beside other ops on the same vertices,
mid-batch membership dips, ties and ``A_1`` isolation) are soaked as one
multi-op batch (full re-peels of the reached arrays) and as single-edge
updates (the Algorithm 4/5 windows), against both :meth:`KPIndex.build`
and the definition-literal :mod:`repro.core.naive` oracle; a multi-op
batch must do no per-edge core repair and leave arrays above its reach
untouched.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    ParameterError,
    SelfLoopError,
)
from repro.graph.adjacency import Graph
from repro.graph.compact import CompactAdjacency
from repro.graph.generators import erdos_renyi_gnm
from repro.kcore.maintenance import CoreMaintainer
from repro.core.index import KPIndex
from repro.core.maintenance import (
    BatchReport,
    KPIndexMaintainer,
    coalesce_updates,
)
from repro.core.naive import naive_p_numbers_fixed_k

BATCH_SIZES = (1, 2, 16)


def _index_bytes(index: KPIndex) -> dict[int, tuple]:
    return {
        k: (tuple(a.vertices), tuple(a.p_numbers))
        for k, a in index.arrays().items()
    }


def _random_stream(seed: int, n: int, steps: int, graph: Graph) -> list:
    """A valid mixed stream against ``graph``'s state (simulated)."""
    rng = random.Random(seed)
    present = {frozenset(e) for e in graph.edges()}
    ops = []
    for _ in range(steps):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = frozenset((u, v))
        if key in present:
            ops.append(("delete", u, v))
            present.discard(key)
        else:
            ops.append(("insert", u, v))
            present.add(key)
    return ops


def _apply_batched(maintainer, ops, size):
    for i in range(0, len(ops), size):
        maintainer.apply_batch(ops[i : i + size])


class TestDifferentialSoak:
    """Batched vs sequential vs from-scratch."""

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_batch_sizes_agree(self, maintainer_cls, size):
        g = erdos_renyi_gnm(16, 40, seed=11)
        ops = _random_stream(11, 16, 40, g)
        batched = maintainer_cls(g.copy())
        sequential = maintainer_cls(g.copy())
        _apply_batched(batched, ops, size)
        for op, u, v in ops:
            if op == "insert":
                sequential.insert_edge(u, v)
            else:
                sequential.delete_edge(u, v)
        assert batched.index.semantically_equal(sequential.index)
        fresh = KPIndex.build(batched.graph)
        assert batched.index.semantically_equal(fresh)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_soak(self, maintainer_cls, seed):
        rng = random.Random(seed)
        n = rng.randint(6, 18)
        m = rng.randint(n, min(48, n * (n - 1) // 2))
        g = erdos_renyi_gnm(n, m, seed=seed)
        ops = _random_stream(seed, n, 50, g)
        maintainer = maintainer_cls(g.copy())
        size = rng.choice(BATCH_SIZES)
        _apply_batched(maintainer, ops, size)
        assert maintainer.index.semantically_equal(
            KPIndex.build(maintainer.graph)
        )

    @given(st.integers(0, 10_000), st.sampled_from(BATCH_SIZES))
    @settings(max_examples=30, deadline=None)
    def test_property_batched_equals_sequential(self, seed, size):
        g = erdos_renyi_gnm(10, 20, seed=seed % 97)
        ops = _random_stream(seed, 10, 30, g)
        batched = KPIndexMaintainer(g.copy())
        sequential = KPIndexMaintainer(g.copy())
        _apply_batched(batched, ops, size)
        for op, u, v in ops:
            if op == "insert":
                sequential.insert_edge(u, v)
            else:
                sequential.delete_edge(u, v)
        assert batched.index.semantically_equal(sequential.index)


def _assert_matches_oracles(maintainer: KPIndexMaintainer) -> None:
    """The index equals a rebuild and, per k, the naive p-numbers."""
    graph = maintainer.graph
    assert maintainer.index.semantically_equal(KPIndex.build(graph))
    arrays = maintainer.index.arrays()
    for k in range(1, maintainer.index.degeneracy + 2):
        array = arrays.get(k)
        got = array.pn_map() if array is not None else {}
        assert got == naive_p_numbers_fixed_k(graph, k), k  # noqa: KP002


def _batched_and_singles(
    graph: Graph, ops: list
) -> tuple[list[KPIndexMaintainer], BatchReport]:
    """``ops`` applied as one batch and as single-edge updates."""
    batched = KPIndexMaintainer(graph.copy())
    report = batched.apply_batch(ops)
    singles = KPIndexMaintainer(graph.copy())
    for op, u, v in ops:
        if op == "insert":
            singles.insert_edge(u, v)
        else:
            singles.delete_edge(u, v)
    return [batched, singles], report


class TestWindowEdgeCases:
    """Edge-case soaks, each stream as one batch and as single edges."""

    @given(st.integers(0, 10_000), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_core_inserts_sharing_endpoints_with_other_ops(self, seed, pairs):
        # Inserted edges with both endpoints in a k-core, beside deletes
        # and outward inserts on the same endpoints: one op at a time each
        # insert inside the core takes the smaller one-hop cap as its p_+.
        rng = random.Random(seed)
        g = erdos_renyi_gnm(11, rng.randint(22, 34), seed=seed)
        cores = CoreMaintainer(g.copy())
        top = max(cores.core_number(w) for w in g.vertices())
        core = sorted(w for w in g.vertices() if cores.core_number(w) >= top - 1)
        absent = [e for e in combinations(core, 2) if not g.has_edge(*e)]
        assume(absent and top >= 2)
        chosen = rng.sample(absent, min(pairs, len(absent)))
        touched = {frozenset(e) for e in chosen}
        ops = [("insert", a, b) for a, b in chosen]
        for x in sorted({x for e in chosen for x in e}):
            incident = sorted(
                (x, y) for y in g.neighbors(x) if frozenset((x, y)) not in touched
            )
            if incident and rng.random() < 0.7:
                edge = rng.choice(incident)
                touched.add(frozenset(edge))
                ops.append(("delete", *edge))
            outside = [
                y for y in range(13)
                if y != x and frozenset((x, y)) not in touched
                and not g.has_edge(x, y)
            ]
            if outside and rng.random() < 0.5:
                y = rng.choice(outside)
                touched.add(frozenset((x, y)))
                ops.append(("insert", x, y))
        rng.shuffle(ops)  # one op per edge, so every order is valid
        for maintainer in _batched_and_singles(g, ops)[0]:
            _assert_matches_oracles(maintainer)

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_mid_batch_membership_dips(self, seed, promote_first):
        # One op moves vertices across a k-core boundary and a later op on
        # a different edge moves one of them back: the net churn is empty
        # but the array must still re-peel in full.
        rng = random.Random(seed)
        g = erdos_renyi_gnm(10, rng.randint(13, 22), seed=seed)
        present = sorted(g.edges())
        absent = [
            e for e in combinations(range(10), 2) if not g.has_edge(*e)
        ]
        rng.shuffle(present)
        rng.shuffle(absent)
        first_pool, second_pool = (
            (absent, present) if promote_first else (present, absent)
        )
        first_op, second_op = (
            ("insert", "delete") if promote_first else ("delete", "insert")
        )

        def moved(graph: Graph, op: str, edge) -> tuple[Graph, set]:
            """The graph after ``op`` and the vertices whose core number
            crossed a boundary k >= 2 (k = 1 is A_1 bookkeeping)."""
            graph = graph.copy()
            cores = CoreMaintainer(graph)
            if op == "insert":
                movers = cores.insert_edge(*edge)
                return graph, {w for w in movers if cores.core_number(w) >= 2}
            movers = cores.delete_edge(*edge)
            return graph, {w for w in movers if cores.core_number(w) >= 1}

        dip = None
        for first in first_pool[:12]:
            middle, movers = moved(g, first_op, first)
            if not movers:
                continue
            for second in second_pool:
                if frozenset(second) == frozenset(first):
                    continue
                if moved(middle, second_op, second)[1] & movers:
                    dip = [(first_op, *first), (second_op, *second)]
                    break
            if dip:
                break
        assume(dip is not None)
        used = {frozenset(op[1:]) for op in dip}
        extra = [e for e in present if frozenset(e) not in used][:2]
        ops = dip + [("delete", *e) for e in extra]
        maintainers, report = _batched_and_singles(g, ops)
        for maintainer in maintainers:
            _assert_matches_oracles(maintainer)
        assert report.full_repeels >= 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_ties_and_a1_isolation(self, seed):
        # Cliques and a cycle put whole arrays on one tied level; the
        # batch isolates a vertex (it must leave A_1), hangs pendants on
        # fresh vertices (they must join A_1) and breaks ties by bridging
        # or thinning the cliques.
        rng = random.Random(seed)
        edges = (
            list(combinations(range(4), 2))
            + list(combinations(range(4, 9), 2))
            + [(9 + i, 9 + (i + 1) % 5) for i in range(5)]
        )
        g = Graph(edges)
        lonely = rng.randrange(14)
        touched = set()
        ops = []
        for y in sorted(g.neighbors(lonely)):
            touched.add(frozenset((lonely, y)))
            ops.append(("delete", lonely, y))
        for fresh in range(20, 20 + rng.randint(1, 3)):
            anchor = rng.choice([w for w in range(14) if w != lonely])
            ops.append(("insert", anchor, fresh))
        for _ in range(rng.randint(1, 4)):
            a, b = rng.sample([w for w in range(14) if w != lonely], 2)
            edge = frozenset((a, b))
            if edge in touched:
                continue
            touched.add(edge)
            ops.append(("delete" if g.has_edge(a, b) else "insert", a, b))
        rng.shuffle(ops)
        for maintainer in _batched_and_singles(g, ops)[0]:
            _assert_matches_oracles(maintainer)
            assert not maintainer.index.array(1).contains(lonely)
            assert maintainer.index.array(1).contains(20)


def _forbid_core_repair(monkeypatch) -> None:
    """Make any per-edge core-number repair raise."""

    def repair(self, u, v):
        raise AssertionError(f"per-edge core repair on ({u}, {v})")

    monkeypatch.setattr(CoreMaintainer, "insert_edge", repair)
    monkeypatch.setattr(CoreMaintainer, "delete_edge", repair)


class TestMultiOpRule:
    """A multi-op batch re-peels its reached arrays in full, nothing else."""

    def test_reached_arrays_repeel_in_full_from_one_decomposition(
        self, maintainer_cls, monkeypatch
    ):
        # A 12-clique holds the degeneracy at 11; the batch churns a sparse
        # random part bridged to it, so its reach stays far below.
        sparse = erdos_renyi_gnm(30, 75, seed=41)
        edges = [(100 + a, 100 + b) for a, b in sparse.edges()]
        edges += list(combinations(range(12), 2)) + [(0, 100), (1, 101)]
        g = Graph(edges)
        stream = [
            (op, 100 + u, 100 + v)
            for op, u, v in _random_stream(41, 30, 24, sparse)
        ]
        ops, _ = coalesce_updates(g, stream)
        before = CoreMaintainer(g.copy())
        after_graph = g.copy()
        for op, u, v in ops:
            if op == "insert":
                after_graph.add_edge(u, v)
            else:
                after_graph.remove_edge(u, v)
        after = CoreMaintainer(after_graph)
        endpoints = {w for _, u, v in ops for w in (u, v)}
        reach = max(
            max(before.core_number_or(w), after.core_number(w))
            for w in endpoints
        )

        maintainer = maintainer_cls(g)
        degeneracy = maintainer.index.degeneracy
        assert 2 <= reach < degeneracy == 11
        versions = maintainer.index.versions()
        _forbid_core_repair(monkeypatch)
        report = maintainer.apply_batch(ops)

        assert report.applied == len(ops)
        assert report.windowed_repeels == 0
        assert report.full_repeels == reach - 1
        assert report.arrays_repeeled == reach - 1
        bumped = maintainer.index.versions()
        for k in range(reach + 1, degeneracy + 1):
            assert bumped.get(k, 0) == versions.get(k, 0), k
        for k in range(2, reach + 1):
            assert bumped[k] == versions.get(k, 0) + 1, k
        assert maintainer.core_number(100) == after.core_number(100)
        _assert_matches_oracles(maintainer)

    def test_one_snapshot_per_multi_op_batch(self, maintainer_cls, monkeypatch):
        # Core numbers and every full re-peel run on the maintainer's peel
        # state: a multi-op batch builds no CompactAdjacency snapshot,
        # whether it finds a held state or builds one for itself.
        g = erdos_renyi_gnm(30, 90, seed=45)
        maintainer = maintainer_cls(g)
        built = []
        init = CompactAdjacency.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CompactAdjacency, "__init__", counting_init)
        assert maintainer._peel_state is None
        report = maintainer.apply_batch(_random_stream(45, 30, 12, g))
        assert report.applied > 1 and report.full_repeels >= 2
        u, v = next(iter(sorted(maintainer.graph.edges())))
        maintainer.delete_edge(u, v)
        # The windows leave a state held; the all-full rule never holds one.
        held = maintainer._peel_state
        assert (held is not None) == (maintainer_cls is KPIndexMaintainer)
        report = maintainer.apply_batch(
            _random_stream(46, 30, 12, maintainer.graph)
        )
        monkeypatch.undo()
        assert report.applied > 1 and report.full_repeels >= 2
        assert maintainer._peel_state is held
        assert built == []
        assert maintainer.index.semantically_equal(
            KPIndex.build(maintainer.graph)
        )

    def test_whole_graph_seeding_batch_reaches_the_degeneracy(
        self, monkeypatch
    ):
        g = erdos_renyi_gnm(36, 150, seed=43)
        degeneracy = CoreMaintainer(g.copy()).degeneracy
        maintainer = KPIndexMaintainer(Graph())
        _forbid_core_repair(monkeypatch)
        report = maintainer.apply_batch(
            [("insert", u, v) for u, v in g.edges()]
        )
        assert report.applied == g.num_edges
        assert report.full_repeels == degeneracy - 1
        assert maintainer.index.degeneracy == degeneracy >= 3
        _assert_matches_oracles(maintainer)


class TestSingletonParity:
    """A batch of one must be the single-edge path, bumps included."""

    def test_batch_of_one_matches_single_edge_exactly(self, maintainer_cls):
        g = erdos_renyi_gnm(14, 36, seed=21)
        ops = _random_stream(21, 14, 30, g)
        batched = maintainer_cls(g.copy())
        single = maintainer_cls(g.copy())
        for op, u, v in ops:
            batched.apply_batch([(op, u, v)])
            if op == "insert":
                single.insert_edge(u, v)
            else:
                single.delete_edge(u, v)
            # identical content AND identical version counters: the
            # delegation must not invent or lose a single bump.
            assert _index_bytes(batched.index) == _index_bytes(single.index)
            assert batched.index.versions() == single.index.versions()

    def test_singleton_counts_as_insert_or_delete(self):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        maintainer = KPIndexMaintainer(g)
        report = maintainer.apply_batch([("insert", 0, 3)])
        assert report.applied == 1
        assert maintainer.stats.insertions == 1
        report = maintainer.apply_batch([("delete", 0, 3)])
        assert report.applied == 1
        assert maintainer.stats.deletions == 1
        assert maintainer.stats.batches == 2


class TestCancellation:
    """Insert+delete pairs inside one batch must annihilate completely."""

    def test_cancelling_pair_is_byte_identical(self, maintainer_cls):
        g = erdos_renyi_gnm(12, 30, seed=5)
        u, v = next(
            (a, b)
            for a in range(12)
            for b in range(a + 1, 12)
            if not g.has_edge(a, b)
        )
        maintainer = maintainer_cls(g.copy())
        before_bytes = _index_bytes(maintainer.index)
        before_versions = maintainer.index.versions()
        report = maintainer.apply_batch([("insert", u, v), ("delete", u, v)])
        assert report.applied == 0
        assert report.cancelled_pairs == 1
        assert _index_bytes(maintainer.index) == before_bytes
        assert maintainer.index.versions() == before_versions

    def test_cancelled_insert_never_creates_vertices(self, maintainer_cls):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        maintainer = maintainer_cls(g)
        maintainer.apply_batch([("insert", 98, 99), ("delete", 98, 99)])
        assert not maintainer.graph.has_vertex(98)
        assert not maintainer.graph.has_vertex(99)

    def test_delete_then_reinsert_cancels_on_a1_path(self, maintainer_cls):
        # The A_1 bookkeeping must also see the *net* batch: deleting a
        # pendant edge and re-inserting it in one batch is a no-op.
        g = Graph([(0, 1), (1, 2), (2, 0), (0, 3)])
        maintainer = maintainer_cls(g)
        before_bytes = _index_bytes(maintainer.index)
        before_versions = maintainer.index.versions()
        report = maintainer.apply_batch(
            [("delete", 0, 3), ("insert", 0, 3)]
        )
        assert report.applied == 0
        assert _index_bytes(maintainer.index) == before_bytes
        assert maintainer.index.versions() == before_versions

    def test_mixed_batch_with_cancellations(self, maintainer_cls):
        g = erdos_renyi_gnm(12, 28, seed=9)
        maintainer = maintainer_cls(g.copy())
        edge = next(iter(g.edges()))
        a, b = next(
            (x, y)
            for x in range(12)
            for y in range(x + 1, 12)
            if not g.has_edge(x, y)
        )
        ops = [
            ("insert", a, b),
            ("delete", edge[0], edge[1]),
            ("insert", edge[0], edge[1]),
        ]
        report = maintainer.apply_batch(ops)
        assert report.cancelled_pairs == 1
        assert report.applied == 1
        assert maintainer.index.semantically_equal(
            KPIndex.build(maintainer.graph)
        )


class TestCoalesce:
    def test_cancellation_and_order(self, triangle):
        ops, cancelled = coalesce_updates(
            triangle,
            [("insert", 0, 3), ("insert", 1, 3), ("delete", 0, 3)],
        )
        assert ops == [("insert", 1, 3)]
        assert cancelled == 1

    def test_net_ops_keep_first_touch_order(self, triangle):
        ops, cancelled = coalesce_updates(
            triangle,
            [("delete", 0, 1), ("insert", 4, 5), ("delete", 1, 2)],
        )
        assert ops == [("delete", 0, 1), ("insert", 4, 5), ("delete", 1, 2)]
        assert cancelled == 0

    def test_validates_whole_sequence_upfront(self, triangle):
        with pytest.raises(EdgeExistsError):
            coalesce_updates(triangle, [("insert", 0, 1)])
        with pytest.raises(EdgeNotFoundError):
            coalesce_updates(triangle, [("delete", 0, 9)])
        with pytest.raises(SelfLoopError):
            coalesce_updates(triangle, [("insert", 4, 4)])
        with pytest.raises(ParameterError):
            coalesce_updates(triangle, [("upsert", 0, 3)])

    def test_simulated_presence_allows_reuse(self, triangle):
        # insert then delete then insert again of the same absent edge
        # is valid as a sequence and nets to one insert.
        ops, cancelled = coalesce_updates(
            triangle,
            [("insert", 0, 3), ("delete", 0, 3), ("insert", 0, 3)],
        )
        assert ops == [("insert", 0, 3)]
        assert cancelled == 1

    def test_apply_batch_invalid_is_all_or_nothing(self, maintainer_cls):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        maintainer = maintainer_cls(g)
        before_bytes = _index_bytes(maintainer.index)
        before_versions = maintainer.index.versions()
        with pytest.raises(EdgeExistsError):
            # the first op is valid; the second is not — nothing applies
            maintainer.apply_batch([("insert", 0, 3), ("insert", 0, 1)])
        assert not maintainer.graph.has_edge(0, 3)
        assert not maintainer.graph.has_vertex(3)
        assert _index_bytes(maintainer.index) == before_bytes
        assert maintainer.index.versions() == before_versions
        assert maintainer.stats.batches == 0


class TestBatchReport:
    def test_empty_batch_is_a_noop(self, triangle):
        maintainer = KPIndexMaintainer(triangle)
        report = maintainer.apply_batch([])
        assert report.applied == 0
        assert report.arrays_repeeled == 0
        assert maintainer.stats.batches == 1

    def test_report_counts_move(self, maintainer_cls):
        g = erdos_renyi_gnm(14, 36, seed=17)
        maintainer = maintainer_cls(g.copy())
        ops = _random_stream(17, 14, 16, g)
        report = maintainer.apply_batch(ops)
        assert report.applied == len(ops) - 2 * report.cancelled_pairs
        assert report.applied > 1  # multi-edge batch takes the batch path
        assert report.arrays_repeeled >= 0
        assert (
            maintainer.stats.batch_cancelled_pairs == report.cancelled_pairs
        )
        assert maintainer.index.semantically_equal(
            KPIndex.build(maintainer.graph)
        )
