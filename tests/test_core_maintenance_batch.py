"""Differential soak and unit tests for batched maintenance.

The contract under test: for every maintenance mode and every grouping
of a valid update stream into batches,
:meth:`KPIndexMaintainer.apply_batch` leaves the index semantically equal
to (a) applying the same stream edge-by-edge and (b) a from-scratch
rebuild — while re-peeling each affected ``A_k`` at most once per batch
and bumping its version exactly once.  Batches of one must be
*behaviourally identical* to the single-edge path, version bumps
included, and insert+delete cancellations must leave the index
byte-identical (no spurious bumps, no ghost vertices).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    ParameterError,
    SelfLoopError,
)
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi_gnm
from repro.core.index import KPIndex
from repro.core.maintenance import (
    KPIndexMaintainer,
    MaintenanceMode,
    coalesce_updates,
)

BATCH_SIZES = (1, 2, 16)


@pytest.fixture(params=[MaintenanceMode.RANGE, MaintenanceMode.FULL_K])
def mode(request):
    return request.param


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


def _apply_batched(maintainer, ops, size, **kwargs):
    for i in range(0, len(ops), size):
        maintainer.apply_batch(ops[i : i + size], **kwargs)


class TestDifferentialSoak:
    """Batched vs sequential vs from-scratch."""

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_batch_sizes_agree(self, size, mode):
        g = erdos_renyi_gnm(16, 40, seed=11)
        ops = _random_stream(11, 16, 40, g)
        batched = KPIndexMaintainer(g.copy(), mode=mode, strict=True)
        sequential = KPIndexMaintainer(g.copy(), mode=mode, strict=True)
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
    def test_seeded_soak(self, seed, mode):
        rng = random.Random(seed)
        n = rng.randint(6, 18)
        m = rng.randint(n, min(48, n * (n - 1) // 2))
        g = erdos_renyi_gnm(n, m, seed=seed)
        ops = _random_stream(seed, n, 50, g)
        maintainer = KPIndexMaintainer(g.copy(), mode=mode, strict=True)
        size = rng.choice(BATCH_SIZES)
        _apply_batched(maintainer, ops, size)
        assert maintainer.index.semantically_equal(
            KPIndex.build(maintainer.graph)
        )

    def test_workers_parity(self, mode):
        g = erdos_renyi_gnm(18, 50, seed=13)
        ops = _random_stream(13, 18, 40, g)
        serial = KPIndexMaintainer(g.copy(), mode=mode, strict=True)
        parallel = KPIndexMaintainer(g.copy(), mode=mode, strict=True)
        _apply_batched(serial, ops, 16, workers=1)
        _apply_batched(parallel, ops, 16, workers=2)
        assert serial.index.semantically_equal(parallel.index)
        assert _index_bytes(serial.index) == _index_bytes(parallel.index)

    @given(st.integers(0, 10_000), st.sampled_from(BATCH_SIZES))
    @settings(max_examples=30, deadline=None)
    def test_property_batched_equals_sequential(self, seed, size):
        g = erdos_renyi_gnm(10, 20, seed=seed % 97)
        ops = _random_stream(seed, 10, 30, g)
        batched = KPIndexMaintainer(g.copy(), strict=True)
        sequential = KPIndexMaintainer(g.copy(), strict=True)
        _apply_batched(batched, ops, size)
        for op, u, v in ops:
            if op == "insert":
                sequential.insert_edge(u, v)
            else:
                sequential.delete_edge(u, v)
        assert batched.index.semantically_equal(sequential.index)


class TestSingletonParity:
    """A batch of one must be the single-edge path, bumps included."""

    def test_batch_of_one_matches_single_edge_exactly(self, mode):
        g = erdos_renyi_gnm(14, 36, seed=21)
        ops = _random_stream(21, 14, 30, g)
        batched = KPIndexMaintainer(g.copy(), mode=mode, strict=True)
        single = KPIndexMaintainer(g.copy(), mode=mode, strict=True)
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
        maintainer = KPIndexMaintainer(g, strict=True)
        report = maintainer.apply_batch([("insert", 0, 3)])
        assert report.applied == 1
        assert maintainer.stats.insertions == 1
        report = maintainer.apply_batch([("delete", 0, 3)])
        assert report.applied == 1
        assert maintainer.stats.deletions == 1
        assert maintainer.stats.batches == 2


class TestCancellation:
    """Insert+delete pairs inside one batch must annihilate completely."""

    def test_cancelling_pair_is_byte_identical(self, mode):
        g = erdos_renyi_gnm(12, 30, seed=5)
        u, v = next(
            (a, b)
            for a in range(12)
            for b in range(a + 1, 12)
            if not g.has_edge(a, b)
        )
        maintainer = KPIndexMaintainer(g.copy(), mode=mode, strict=True)
        before_bytes = _index_bytes(maintainer.index)
        before_versions = maintainer.index.versions()
        report = maintainer.apply_batch([("insert", u, v), ("delete", u, v)])
        assert report.applied == 0
        assert report.cancelled_pairs == 1
        assert _index_bytes(maintainer.index) == before_bytes
        assert maintainer.index.versions() == before_versions

    def test_cancelled_insert_never_creates_vertices(self, mode):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        maintainer = KPIndexMaintainer(g, mode=mode, strict=True)
        maintainer.apply_batch([("insert", 98, 99), ("delete", 98, 99)])
        assert not maintainer.graph.has_vertex(98)
        assert not maintainer.graph.has_vertex(99)

    def test_delete_then_reinsert_cancels_on_a1_path(self, mode):
        # The A_1 bookkeeping must also see the *net* batch: deleting a
        # pendant edge and re-inserting it in one batch is a no-op.
        g = Graph([(0, 1), (1, 2), (2, 0), (0, 3)])
        maintainer = KPIndexMaintainer(g, mode=mode, strict=True)
        before_bytes = _index_bytes(maintainer.index)
        before_versions = maintainer.index.versions()
        report = maintainer.apply_batch(
            [("delete", 0, 3), ("insert", 0, 3)]
        )
        assert report.applied == 0
        assert _index_bytes(maintainer.index) == before_bytes
        assert maintainer.index.versions() == before_versions

    def test_mixed_batch_with_cancellations(self, mode):
        g = erdos_renyi_gnm(12, 28, seed=9)
        maintainer = KPIndexMaintainer(g.copy(), mode=mode, strict=True)
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

    def test_apply_batch_invalid_is_all_or_nothing(self, mode):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        maintainer = KPIndexMaintainer(g, mode=mode, strict=True)
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

    def test_bad_workers_rejected_before_mutation(self, triangle):
        maintainer = KPIndexMaintainer(triangle, strict=True)
        with pytest.raises(ParameterError):
            maintainer.apply_batch([("insert", 0, 3)], workers=0)
        assert not triangle.has_edge(0, 3)


class TestBatchReport:
    def test_empty_batch_is_a_noop(self, triangle):
        maintainer = KPIndexMaintainer(triangle, strict=True)
        report = maintainer.apply_batch([])
        assert report.applied == 0
        assert report.arrays_repeeled == 0
        assert maintainer.stats.batches == 1

    def test_report_counts_move(self, mode):
        g = erdos_renyi_gnm(14, 36, seed=17)
        maintainer = KPIndexMaintainer(g.copy(), mode=mode, strict=True)
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
