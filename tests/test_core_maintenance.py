"""Unit and randomized tests for KP-Index maintenance (Algs. 4-5)."""

import random

import pytest

from repro.errors import EdgeExistsError, EdgeNotFoundError
from repro.graph.adjacency import Graph
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi_gnm,
    planted_partition,
)
from repro.core.index import KPIndex
from repro.core.maintenance import (
    KPIndexMaintainer,
    MaintenanceMode,
    MaintenanceStats,
)


def assert_index_exact(maintainer: KPIndexMaintainer) -> None:
    fresh = KPIndex.build(maintainer.graph)
    assert maintainer.index.semantically_equal(fresh)


@pytest.fixture(params=[MaintenanceMode.RANGE, MaintenanceMode.FULL_K])
def mode(request):
    return request.param


class TestSingleUpdates:
    def test_insert_then_delete_restores(self, cascade_graph, mode):
        maintainer = KPIndexMaintainer(cascade_graph.copy(), mode=mode)
        original = KPIndex.build(cascade_graph)
        maintainer.insert_edge(5, 1)
        assert_index_exact(maintainer)
        maintainer.delete_edge(5, 1)
        assert maintainer.index.semantically_equal(original)

    def test_insert_new_vertex(self, triangle, mode):
        maintainer = KPIndexMaintainer(triangle.copy(), mode=mode)
        maintainer.insert_edge(0, 99)
        assert_index_exact(maintainer)
        # the new vertex is in A_1 with p-number 1
        assert maintainer.index.p_number(99, 1) == 1.0  # noqa: KP002 exact-double oracle

    def test_delete_to_isolation_updates_a1(self, mode):
        g = Graph([(0, 1), (1, 2)])
        maintainer = KPIndexMaintainer(g, mode=mode)
        maintainer.delete_edge(0, 1)
        assert_index_exact(maintainer)
        assert not maintainer.index.array(1).contains(0)

    def test_insert_extends_degeneracy(self, mode):
        # completing K4 from K4-minus-an-edge raises d(G) from 2 to 3
        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        maintainer = KPIndexMaintainer(g, mode=mode)
        assert maintainer.index.degeneracy == 2
        maintainer.insert_edge(2, 3)
        assert maintainer.index.degeneracy == 3
        assert_index_exact(maintainer)

    def test_delete_shrinks_degeneracy(self, mode):
        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])  # K4
        maintainer = KPIndexMaintainer(g, mode=mode)
        maintainer.delete_edge(0, 1)
        assert maintainer.index.degeneracy == 2
        assert_index_exact(maintainer)

    def test_duplicate_insert_rejected(self, triangle, mode):
        maintainer = KPIndexMaintainer(triangle.copy(), mode=mode)
        with pytest.raises(EdgeExistsError):
            maintainer.insert_edge(0, 1)

    def test_missing_delete_rejected(self, triangle, mode):
        maintainer = KPIndexMaintainer(triangle.copy(), mode=mode)
        with pytest.raises(EdgeNotFoundError):
            maintainer.delete_edge(0, 9)

    def test_query_reflects_updates(self, mode):
        g = Graph([(0, 1), (1, 2), (2, 0), (0, 3)])
        maintainer = KPIndexMaintainer(g, mode=mode)
        # vertex 0 keeps only 2/3 of its neighbours in the triangle
        assert set(maintainer.query(2, 2 / 3)) == {0, 1, 2}
        assert maintainer.query(2, 0.7) == []
        maintainer.delete_edge(0, 3)
        # without the tail, the triangle survives any p
        assert set(maintainer.query(2, 0.7)) == {0, 1, 2}
        assert set(maintainer.query(2, 1.0)) == {0, 1, 2}


class TestVertexDynamics:
    def test_insert_vertex_with_neighbors(self, triangle, mode):
        maintainer = KPIndexMaintainer(triangle.copy(), mode=mode)
        maintainer.insert_vertex(9, neighbors=[0, 1, 2])
        assert_index_exact(maintainer)
        assert maintainer.core_number(9) == 3
        assert maintainer.index.p_number(9, 3) == 1.0  # noqa: KP002 exact-double oracle

    def test_insert_isolated_vertex(self, triangle, mode):
        maintainer = KPIndexMaintainer(triangle.copy(), mode=mode)
        maintainer.insert_vertex("ghost")
        assert maintainer.core_number("ghost") == 0
        assert not maintainer.index.array(1).contains("ghost")
        assert_index_exact(maintainer)

    def test_delete_vertex(self, two_triangles_bridge, mode):
        maintainer = KPIndexMaintainer(
            two_triangles_bridge.copy(), mode=mode
        )
        maintainer.delete_vertex(3)
        assert not maintainer.graph.has_vertex(3)
        assert_index_exact(maintainer)

    def test_missing_vertex_delete_raises(self, triangle, mode):
        from repro.errors import VertexNotFoundError

        maintainer = KPIndexMaintainer(triangle.copy(), mode=mode)
        with pytest.raises(VertexNotFoundError):
            maintainer.delete_vertex(42)

    def test_apply_updates_batch(self, mode):
        g = erdos_renyi_gnm(12, 30, seed=8)
        maintainer = KPIndexMaintainer(g.copy(), mode=mode)
        deletions = list(g.edges())[:4]
        insertions = []
        seen = set()
        rng = random.Random(8)
        while len(insertions) < 4:
            u, v = rng.randrange(12), rng.randrange(12)
            key = frozenset((u, v))
            if u == v or g.has_edge(u, v) or key in seen:
                continue
            seen.add(key)
            insertions.append((u, v))
        maintainer.apply_batch(
            [("delete", u, v) for u, v in deletions]
            + [("insert", u, v) for u, v in insertions]
        )
        assert_index_exact(maintainer)


class TestStats:
    def test_counters_move(self, mode):
        g = erdos_renyi_gnm(20, 60, seed=1)
        maintainer = KPIndexMaintainer(g, mode=mode)
        maintainer.insert_edge(0, 19) if not g.has_edge(0, 19) else None
        edges = list(maintainer.graph.edges())
        maintainer.delete_edge(*edges[0])
        stats = maintainer.stats
        assert stats.deletions == 1
        assert stats.arrays_examined >= 0
        snapshot = stats.snapshot()
        assert isinstance(snapshot, dict)
        assert snapshot["deletions"] == 1

    def test_stats_defaults(self):
        stats = MaintenanceStats()
        assert stats.insertions == 0
        assert stats.fallback_rebuilds == 0


class TestRandomizedStreams:
    @pytest.mark.parametrize("seed", range(6))
    def test_er_stream(self, seed, mode):
        rng = random.Random(seed)
        n = rng.randint(6, 18)
        m = rng.randint(n, min(48, n * (n - 1) // 2))
        g = erdos_renyi_gnm(n, m, seed=seed)
        maintainer = KPIndexMaintainer(g.copy(), mode=mode)
        edges = list(g.edges())
        for _ in range(25):
            if edges and rng.random() < 0.5:
                u, v = edges.pop(rng.randrange(len(edges)))
                maintainer.delete_edge(u, v)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or maintainer.graph.has_edge(u, v):
                    continue
                maintainer.insert_edge(u, v)
                edges.append((u, v))
            assert_index_exact(maintainer)

    def test_powerlaw_deletions(self, mode):
        g = barabasi_albert(25, 3, seed=3)
        maintainer = KPIndexMaintainer(g.copy(), mode=mode)
        rng = random.Random(3)
        edges = list(g.edges())
        for _ in range(20):
            u, v = edges.pop(rng.randrange(len(edges)))
            maintainer.delete_edge(u, v)
            assert_index_exact(maintainer)

    def test_community_graph_insertions(self, mode):
        g = planted_partition(3, 7, 0.7, 0.05, seed=4)
        maintainer = KPIndexMaintainer(g.copy(), mode=mode)
        rng = random.Random(4)
        n = g.num_vertices
        done = 0
        while done < 20:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or maintainer.graph.has_edge(u, v):
                continue
            maintainer.insert_edge(u, v)
            assert_index_exact(maintainer)
            done += 1

    def test_modes_agree(self):
        g = erdos_renyi_gnm(14, 36, seed=5)
        range_mode = KPIndexMaintainer(g.copy(), mode=MaintenanceMode.RANGE)
        full_mode = KPIndexMaintainer(g.copy(), mode=MaintenanceMode.FULL_K)
        rng = random.Random(5)
        edges = list(g.edges())
        for _ in range(25):
            if edges and rng.random() < 0.5:
                u, v = edges.pop(rng.randrange(len(edges)))
                range_mode.delete_edge(u, v)
                full_mode.delete_edge(u, v)
            else:
                u, v = rng.randrange(14), rng.randrange(14)
                if u == v or range_mode.graph.has_edge(u, v):
                    continue
                range_mode.insert_edge(u, v)
                full_mode.insert_edge(u, v)
                edges.append((u, v))
            assert range_mode.index.semantically_equal(full_mode.index)

    def test_no_fallbacks_in_strict_streams(self):
        # A wrong window raises instead of being re-peeled in full, so a
        # deletion stream that runs through is exact at every step.
        g = erdos_renyi_gnm(16, 40, seed=6)
        maintainer = KPIndexMaintainer(g.copy())
        rng = random.Random(6)
        edges = list(g.edges())
        for _ in range(30):
            u, v = edges.pop(rng.randrange(len(edges)))
            maintainer.delete_edge(u, v)
            assert_index_exact(maintainer)
        assert maintainer.stats.fallback_rebuilds == 0


def _array_snapshots(index: KPIndex) -> dict[int, tuple]:
    return {
        k: (tuple(a.vertices), tuple(a.p_numbers))
        for k, a in index.arrays().items()
    }


class TestVersionBumps:
    """The per-k version counters are a sound invalidation oracle:
    whenever an update changes A_k's content, version(k) must move.
    (The converse — no content change implies no bump — is deliberately
    NOT required: conservative bumps are safe, stale serves are not.)
    """

    def test_content_change_always_bumps(self, mode):
        g = erdos_renyi_gnm(14, 36, seed=8)
        maintainer = KPIndexMaintainer(g.copy(), mode=mode)
        rng = random.Random(8)
        edges = list(g.edges())
        for _ in range(30):
            before = _array_snapshots(maintainer.index)
            versions = maintainer.index.versions()
            if edges and rng.random() < 0.5:
                u, v = edges.pop(rng.randrange(len(edges)))
                maintainer.delete_edge(u, v)
            else:
                u, v = rng.randrange(14), rng.randrange(14)
                if u == v or maintainer.graph.has_edge(u, v):
                    continue
                maintainer.insert_edge(u, v)
                edges.append((u, v))
            after = _array_snapshots(maintainer.index)
            for k in set(before) | set(after):
                if before.get(k) != after.get(k):
                    assert maintainer.index.version(k) != versions.get(k, 0), (
                        f"A_{k} changed without a version bump"
                    )

    def test_theorem_skip_leaves_versions_alone(self, mode):
        # A pendant edge between two fresh vertices cannot touch any
        # A_k with k >= 2 (Thm. 2: both new core numbers are 1).
        g = Graph([(0, 1), (1, 2), (2, 0)])
        maintainer = KPIndexMaintainer(g, mode=mode)
        high_k = {
            k: maintainer.index.version(k) for k in range(2, 6)
        }
        maintainer.insert_edge(10, 11)
        assert_index_exact(maintainer)
        for k, version in high_k.items():
            assert maintainer.index.version(k) == version
        assert maintainer.index.version(1) > 0

    def test_array_creation_bumps(self, mode):
        # Completing K4 creates A_3 for the first time; a cached "A_3
        # does not exist -> empty" answer must be invalidated.
        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        maintainer = KPIndexMaintainer(g, mode=mode)
        assert maintainer.index.version(3) == 0
        maintainer.insert_edge(2, 3)
        assert maintainer.index.version(3) > 0

    def test_vertex_deletion_bumps_a1(self, mode):
        g = Graph([(0, 1), (1, 2)])
        maintainer = KPIndexMaintainer(g, mode=mode)
        before = maintainer.index.version(1)
        maintainer.delete_vertex(0)
        assert maintainer.index.version(1) > before
        assert_index_exact(maintainer)


class TestBatchVersionBumps:
    """apply_batch amortizes bumps: once per touched array per batch."""

    def test_batch_bumps_each_changed_array_exactly_once(self, mode):
        # 30 random updates applied one-by-one bump changed arrays ~30
        # times; the same updates in ONE batch bump each array at most
        # once — and exactly once when its content changed.
        g = erdos_renyi_gnm(14, 36, seed=31)
        maintainer = KPIndexMaintainer(g.copy(), mode=mode)
        rng = random.Random(31)
        present = {frozenset(e) for e in g.edges()}
        ops = []
        for _ in range(30):
            u, v = rng.randrange(14), rng.randrange(14)
            if u == v:
                continue
            key = frozenset((u, v))
            if key in present:
                ops.append(("delete", u, v))
                present.discard(key)
            else:
                ops.append(("insert", u, v))
                present.add(key)
        before_bytes = _array_snapshots(maintainer.index)
        before_versions = maintainer.index.versions()
        maintainer.apply_batch(ops)
        after_bytes = _array_snapshots(maintainer.index)
        for k in set(before_bytes) | set(after_bytes):
            delta = maintainer.index.version(k) - before_versions.get(k, 0)
            if before_bytes.get(k) != after_bytes.get(k):
                assert delta == 1, (
                    f"A_{k} changed but bumped {delta} times in one batch"
                )
            else:
                assert delta <= 1
        assert_index_exact(maintainer)

    def test_untouched_arrays_never_bump(self, mode):
        # A batch of pendant edges between fresh vertices cannot touch
        # any A_k with k >= 2 (Thm. 2), so no high-k version may move.
        g = Graph([(0, 1), (1, 2), (2, 0)])
        maintainer = KPIndexMaintainer(g, mode=mode)
        high_k = {k: maintainer.index.version(k) for k in range(2, 6)}
        maintainer.apply_batch(
            [("insert", 10, 11), ("insert", 12, 13), ("insert", 14, 15)]
        )
        for k, version in high_k.items():
            assert maintainer.index.version(k) == version
        assert maintainer.index.version(1) > 0
        assert_index_exact(maintainer)


class TestWorkGuard:
    """Deterministic work bound for single-edge maintenance.

    Work counters repeat exactly run to run (timings do not), so they
    can gate a regression in how much of the index an update re-peels.
    The literals are what the two-path maintainer (a single-edge
    Algorithm 4/5 implementation beside the batch planner) counted on
    this exact stream; the one-path planner must never do more.
    """

    PARENT_VERTICES_REPEELED = 15996
    PARENT_ARRAYS_UPDATED = 292

    def test_seeded_stream_work_at_most_two_path_maintainer(self):
        n = 60
        g = erdos_renyi_gnm(n, 240, seed=4)
        maintainer = KPIndexMaintainer(g.copy())
        rng = random.Random(4)

        def core(w):
            graph = maintainer.graph
            return maintainer.core_number(w) if graph.has_vertex(w) else 0

        core_changes = one_endpoint_cases = 0
        for step in range(60):
            if step % 2 == 0:
                edges = sorted(maintainer.graph.edges())
                u, v = edges[rng.randrange(len(edges))]
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                while u == v or maintainer.graph.has_edge(u, v):
                    u, v = rng.randrange(n), rng.randrange(n)
            before = {w: core(w) for w in range(n)}
            if step % 2 == 0:
                maintainer.delete_edge(u, v)
            else:
                # cores two apart: A_{low+2} holds only the larger-core
                # endpoint (Alg. 4 case 1.2), promotion or not.
                one_endpoint_cases += abs(before[u] - before[v]) >= 2
                maintainer.insert_edge(u, v)
            core_changes += any(core(w) != before[w] for w in range(n))
        assert core_changes > 0 and one_endpoint_cases > 0
        assert_index_exact(maintainer)
        stats = maintainer.stats
        assert stats.vertices_repeeled <= self.PARENT_VERTICES_REPEELED
        assert stats.arrays_updated <= self.PARENT_ARRAYS_UPDATED
