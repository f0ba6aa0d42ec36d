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
    MaintenanceStats,
)


def assert_index_exact(maintainer: KPIndexMaintainer) -> None:
    fresh = KPIndex.build(maintainer.graph)
    assert maintainer.index.semantically_equal(fresh)



class TestSingleUpdates:
    def test_insert_then_delete_restores(self, maintainer_cls, cascade_graph):
        maintainer = maintainer_cls(cascade_graph.copy())
        original = KPIndex.build(cascade_graph)
        maintainer.insert_edge(5, 1)
        assert_index_exact(maintainer)
        maintainer.delete_edge(5, 1)
        assert maintainer.index.semantically_equal(original)

    def test_insert_new_vertex(self, maintainer_cls, triangle):
        maintainer = maintainer_cls(triangle.copy())
        maintainer.insert_edge(0, 99)
        assert_index_exact(maintainer)
        # the new vertex is in A_1 with p-number 1
        assert maintainer.index.p_number(99, 1) == 1.0  # noqa: KP002 exact-double oracle

    def test_delete_to_isolation_updates_a1(self, maintainer_cls):
        g = Graph([(0, 1), (1, 2)])
        maintainer = maintainer_cls(g)
        maintainer.delete_edge(0, 1)
        assert_index_exact(maintainer)
        assert not maintainer.index.array(1).contains(0)

    def test_insert_extends_degeneracy(self, maintainer_cls):
        # completing K4 from K4-minus-an-edge raises d(G) from 2 to 3
        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        maintainer = maintainer_cls(g)
        assert maintainer.index.degeneracy == 2
        maintainer.insert_edge(2, 3)
        assert maintainer.index.degeneracy == 3
        assert_index_exact(maintainer)

    def test_delete_shrinks_degeneracy(self, maintainer_cls):
        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])  # K4
        maintainer = maintainer_cls(g)
        maintainer.delete_edge(0, 1)
        assert maintainer.index.degeneracy == 2
        assert_index_exact(maintainer)

    def test_duplicate_insert_rejected(self, maintainer_cls, triangle):
        maintainer = maintainer_cls(triangle.copy())
        with pytest.raises(EdgeExistsError):
            maintainer.insert_edge(0, 1)

    def test_missing_delete_rejected(self, maintainer_cls, triangle):
        maintainer = maintainer_cls(triangle.copy())
        with pytest.raises(EdgeNotFoundError):
            maintainer.delete_edge(0, 9)

    def test_query_reflects_updates(self, maintainer_cls):
        g = Graph([(0, 1), (1, 2), (2, 0), (0, 3)])
        maintainer = maintainer_cls(g)
        # vertex 0 keeps only 2/3 of its neighbours in the triangle
        assert set(maintainer.query(2, 2 / 3)) == {0, 1, 2}
        assert maintainer.query(2, 0.7) == []
        maintainer.delete_edge(0, 3)
        # without the tail, the triangle survives any p
        assert set(maintainer.query(2, 0.7)) == {0, 1, 2}
        assert set(maintainer.query(2, 1.0)) == {0, 1, 2}


class TestVertexDynamics:
    def test_insert_vertex_with_neighbors(self, maintainer_cls, triangle):
        maintainer = maintainer_cls(triangle.copy())
        maintainer.insert_vertex(9, neighbors=[0, 1, 2])
        assert_index_exact(maintainer)
        assert maintainer.core_number(9) == 3
        assert maintainer.index.p_number(9, 3) == 1.0  # noqa: KP002 exact-double oracle

    def test_insert_isolated_vertex(self, maintainer_cls, triangle):
        maintainer = maintainer_cls(triangle.copy())
        maintainer.insert_vertex("ghost")
        assert maintainer.core_number("ghost") == 0
        assert not maintainer.index.array(1).contains("ghost")
        assert_index_exact(maintainer)

    def test_delete_vertex(self, maintainer_cls, two_triangles_bridge):
        maintainer = maintainer_cls(two_triangles_bridge.copy())
        maintainer.delete_vertex(3)
        assert not maintainer.graph.has_vertex(3)
        assert_index_exact(maintainer)

    def test_missing_vertex_delete_raises(self, maintainer_cls, triangle):
        from repro.errors import VertexNotFoundError

        maintainer = maintainer_cls(triangle.copy())
        with pytest.raises(VertexNotFoundError):
            maintainer.delete_vertex(42)

    def test_apply_updates_batch(self, maintainer_cls):
        g = erdos_renyi_gnm(12, 30, seed=8)
        maintainer = maintainer_cls(g.copy())
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
    def test_counters_move(self, maintainer_cls):
        g = erdos_renyi_gnm(20, 60, seed=1)
        maintainer = maintainer_cls(g)
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
    def test_er_stream(self, maintainer_cls, seed):
        rng = random.Random(seed)
        n = rng.randint(6, 18)
        m = rng.randint(n, min(48, n * (n - 1) // 2))
        g = erdos_renyi_gnm(n, m, seed=seed)
        maintainer = maintainer_cls(g.copy())
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

    def test_powerlaw_deletions(self, maintainer_cls):
        g = barabasi_albert(25, 3, seed=3)
        maintainer = maintainer_cls(g.copy())
        rng = random.Random(3)
        edges = list(g.edges())
        for _ in range(20):
            u, v = edges.pop(rng.randrange(len(edges)))
            maintainer.delete_edge(u, v)
            assert_index_exact(maintainer)

    def test_community_graph_insertions(self, maintainer_cls):
        g = planted_partition(3, 7, 0.7, 0.05, seed=4)
        maintainer = maintainer_cls(g.copy())
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

    def test_content_change_always_bumps(self, maintainer_cls):
        g = erdos_renyi_gnm(14, 36, seed=8)
        maintainer = maintainer_cls(g.copy())
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

    def test_theorem_skip_leaves_versions_alone(self, maintainer_cls):
        # A pendant edge between two fresh vertices cannot touch any
        # A_k with k >= 2 (Thm. 2: both new core numbers are 1).
        g = Graph([(0, 1), (1, 2), (2, 0)])
        maintainer = maintainer_cls(g)
        high_k = {
            k: maintainer.index.version(k) for k in range(2, 6)
        }
        maintainer.insert_edge(10, 11)
        assert_index_exact(maintainer)
        for k, version in high_k.items():
            assert maintainer.index.version(k) == version
        assert maintainer.index.version(1) > 0

    def test_array_creation_bumps(self, maintainer_cls):
        # Completing K4 creates A_3 for the first time; a cached "A_3
        # does not exist -> empty" answer must be invalidated.
        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        maintainer = maintainer_cls(g)
        assert maintainer.index.version(3) == 0
        maintainer.insert_edge(2, 3)
        assert maintainer.index.version(3) > 0

    def test_vertex_deletion_bumps_a1(self, maintainer_cls):
        g = Graph([(0, 1), (1, 2)])
        maintainer = maintainer_cls(g)
        before = maintainer.index.version(1)
        maintainer.delete_vertex(0)
        assert maintainer.index.version(1) > before
        assert_index_exact(maintainer)


class TestBatchVersionBumps:
    """apply_batch amortizes bumps: once per touched array per batch."""

    def test_batch_bumps_each_changed_array_exactly_once(self, maintainer_cls):
        # 30 random updates applied one-by-one bump changed arrays ~30
        # times; the same updates in ONE batch bump each array at most
        # once — and exactly once when its content changed.
        g = erdos_renyi_gnm(14, 36, seed=31)
        maintainer = maintainer_cls(g.copy())
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

    def test_untouched_arrays_never_bump(self, maintainer_cls):
        # A batch of pendant edges between fresh vertices cannot touch
        # any A_k with k >= 2 (Thm. 2), so no high-k version may move.
        g = Graph([(0, 1), (1, 2), (2, 0)])
        maintainer = maintainer_cls(g)
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


class TestPnumbersChanged:
    """``maintenance.pnumbers_changed`` is the exact per-update change set.

    Every update's counter delta must equal the diff of the per-k
    p-number maps (``k >= 2``: ``A_1`` is never re-peeled) before and
    after it, joins and leaves included.  Every changed entry that is
    still in ``A_k`` was re-peeled, so the counter less the leavers never
    exceeds ``vertices_repeeled``.
    """

    @staticmethod
    def _pn_maps(index: KPIndex) -> dict[int, dict]:
        return {
            k: array.pn_map() for k, array in index.arrays().items() if k >= 2
        }

    @staticmethod
    def _diff(old: dict[int, dict], new: dict[int, dict]) -> tuple[int, int]:
        """(changed entries, leavers) between two per-k p-number maps."""
        changed = leavers = 0
        for k in old.keys() | new.keys():
            before, after = old.get(k, {}), new.get(k, {})
            leavers += len(before.keys() - after.keys())
            changed += sum(
                1
                for v in before.keys() | after.keys()
                if before.get(v) != after.get(v)  # noqa: KP002 exact-double oracle
            )
        return changed, leavers

    def test_equals_pn_map_diff(self, maintainer_cls):
        from repro.obs import collecting, names

        n = 40
        rng = random.Random(7)
        maintainer = maintainer_cls(erdos_renyi_gnm(n, 150, seed=7))
        counted_total = repeeled_total = batches = 0
        with collecting() as obs:
            for step in range(50):
                edges = sorted(maintainer.graph.edges())
                deletes = [edges[i] for i in rng.sample(range(len(edges)), 2)]
                inserts = []
                while len(inserts) < 2:
                    u, v = rng.randrange(n), rng.randrange(n)
                    if u != v and not maintainer.graph.has_edge(u, v) and (
                        (u, v) not in inserts and (v, u) not in inserts
                    ):
                        inserts.append((u, v))
                before = self._pn_maps(maintainer.index)
                counted = obs.counter(names.MAINT_PNUMBERS_CHANGED)
                repeeled = obs.counter(names.MAINT_VERTICES_REPEELED)
                if step % 3 == 0:
                    maintainer.delete_edge(*deletes[0])
                elif step % 3 == 1:
                    maintainer.insert_edge(*inserts[0])
                else:
                    batches += 1
                    maintainer.apply_batch(
                        [("delete", u, v) for u, v in deletes]
                        + [("insert", u, v) for u, v in inserts]
                    )
                counted = obs.counter(names.MAINT_PNUMBERS_CHANGED) - counted
                repeeled = obs.counter(names.MAINT_VERTICES_REPEELED) - repeeled
                changed, leavers = self._diff(
                    before, self._pn_maps(maintainer.index)
                )
                assert counted == changed, step
                assert counted - leavers <= repeeled, step
                counted_total += counted
                repeeled_total += repeeled
        assert batches > 0 and counted_total > 0
        assert counted_total <= repeeled_total
        assert_index_exact(maintainer)

    #: Two updates whose re-peel stops early at p_+ and keeps a tail
    #: (one inserts with new A_2 members, one deletes without).
    EARLY_STOPS = {
        "insert": (
            [(0, 7), (1, 7), (2, 5), (3, 8), (4, 5), (4, 6), (4, 7), (4, 9),
             (5, 6), (6, 8), (6, 9), (7, 8)],
            (2, 7),
        ),
        "delete": (
            [(0, 5), (0, 7), (1, 3), (1, 5), (1, 6), (1, 7), (2, 7), (2, 8),
             (2, 9), (3, 5), (3, 6), (4, 6), (4, 7), (5, 6), (5, 7), (5, 8),
             (6, 7), (7, 8), (7, 9)],
            (0, 7),
        ),
    }

    @pytest.mark.parametrize("op", sorted(EARLY_STOPS))
    def test_early_stop_tail_is_unchanged(self, op):
        from repro.obs import collecting, names

        edges, (u, v) = self.EARLY_STOPS[op]
        maintainer = KPIndexMaintainer(Graph(edges))
        before = self._pn_maps(maintainer.index)
        with collecting() as obs:
            getattr(maintainer, f"{op}_edge")(u, v)
        assert obs.counter(names.MAINT_EARLY_STOPS) >= 1
        changed, _ = self._diff(before, self._pn_maps(maintainer.index))
        assert obs.counter(names.MAINT_PNUMBERS_CHANGED) == changed
        assert_index_exact(maintainer)
