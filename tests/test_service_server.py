"""Tests for the concurrent query server and its versioned result cache.

Three pillars, mirroring the guarantees in ``docs/serving.md``:

* **Differential soak** — a seeded interleaving of queries and updates
  must return exactly the naive fixpoint answer (as a set) at *every*
  query, across seeds and with the cache on and off.
* **No stale cache** — after any update sequence, every cached entry's
  stored version equals the live ``A_k`` version, and an update that
  touched ``A_k`` always purges its pre-update entries.
* **Concurrency** — reader threads hammering the server while a writer
  applies a journaled update stream see no exceptions and no torn
  answers (every answer equals the index state at some update
  boundary), and the final index equals a from-scratch rebuild.
"""

from __future__ import annotations

import os
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.core.index import KPIndex
from repro.core.naive import naive_kp_core_vertices
from repro.bench.serving import (
    percentile,
    run_differential_probes,
    run_serve_bench,
)
from repro.obs import collecting, names
from repro.service import (
    DurableMaintainer,
    KPCoreServer,
    QueryCache,
    RWLock,
    WorkloadSpec,
    generate_workload,
    split_workload,
)


def make_server(
    directory: str,
    cache: bool = True,
    cache_size: int = 4096,
    min_answer_size: int = 0,
) -> KPCoreServer:
    durable = DurableMaintainer(
        os.path.join(directory, "state"), checkpoint_every=10_000
    )
    return KPCoreServer(
        durable,
        cache_size=cache_size,
        cache_enabled=cache,
        min_answer_size=min_answer_size,
    )


# ----------------------------------------------------------------------
# workload generator
# ----------------------------------------------------------------------
class TestWorkload:
    def test_spec_parse_round_trip(self):
        spec = WorkloadSpec.parse("ops=10,query=3,vertices=9,kmax=2")
        assert spec.ops == 10 and spec.query == 3.0
        assert spec.vertices == 9 and spec.kmax == 2
        assert WorkloadSpec.parse(spec.to_string()) == spec

    def test_empty_spec_is_default(self):
        assert WorkloadSpec.parse("") == WorkloadSpec()

    def test_bad_spec_items_raise(self):
        for bad in ("ops", "ops=x", "bogus=3", "vertices=1", "kmax=0",
                    "query=-1,insert=0,delete=0", "plevels=0"):
            with pytest.raises(ParameterError):
                WorkloadSpec.parse(bad)

    def test_deterministic_per_seed(self):
        spec = "ops=80,vertices=12,prefill=15"
        assert generate_workload(spec, 3) == generate_workload(spec, 3)
        assert generate_workload(spec, 3) != generate_workload(spec, 4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_updates_always_applicable(self, seed):
        """Inserts target absent pairs, deletes target present edges."""
        ops = generate_workload("ops=150,vertices=10,prefill=25", seed)
        edges: set[tuple[int, int]] = set()
        queries = 0
        for op in ops:
            if op[0] == "query":
                _, k, p = op
                assert 1 <= k and 0.0 <= p <= 1.0
                queries += 1
                continue
            _, u, v = op
            key = (min(u, v), max(u, v))
            assert u != v
            if op[0] == "insert":
                assert key not in edges
                edges.add(key)
            else:
                assert key in edges
                edges.remove(key)
        assert queries > 0

    def test_split_preserves_order(self):
        ops = generate_workload("ops=60,vertices=8,prefill=10", 5)
        queries, updates = split_workload(ops)
        assert len(queries) + len(updates) == len(ops)
        assert [op for op in ops if op[0] != "query"] == updates

    def test_skew_parses_and_round_trips(self):
        spec = WorkloadSpec.parse("ops=10,skew=1.2")
        assert spec.skew == 1.2
        assert WorkloadSpec.parse(spec.to_string()) == spec
        assert WorkloadSpec().skew == 0.0
        with pytest.raises(ParameterError):
            WorkloadSpec.parse("skew=-0.5")

    def test_skew_changes_fingerprint(self):
        assert (
            WorkloadSpec.parse("skew=1.2").fingerprint()
            != WorkloadSpec().fingerprint()
        )

    def test_zipf_deterministic_per_seed(self):
        spec = "ops=120,vertices=12,prefill=15,skew=1.5"
        assert generate_workload(spec, 3) == generate_workload(spec, 3)
        assert generate_workload(spec, 3) != generate_workload(spec, 4)

    def test_zipf_leaves_update_stream_unchanged(self):
        """Query draws use a dedicated RNG: specs differing only in skew
        emit byte-identical insert/delete sequences for a seed."""
        base = "ops=200,vertices=15,prefill=25"
        for seed in (0, 1, 7):
            uniform = generate_workload(base, seed)
            zipf = generate_workload(base + ",skew=1.5", seed)
            strip = lambda ops: [op for op in ops if op[0] != "query"]
            assert strip(uniform) == strip(zipf)
            assert [op[0] for op in uniform] == [op[0] for op in zipf]

    def test_zipf_concentrates_queries(self):
        """Skewed draws pile onto few hot cells; uniform draws do not."""
        from collections import Counter

        base = "ops=2000,query=8,insert=1,delete=1,vertices=20,kmax=6,plevels=10,prefill=30"

        def top3_share(spec: str) -> float:
            queries = [
                (op[1], op[2])
                for op in generate_workload(spec, 13)
                if op[0] == "query"
            ]
            counts = Counter(queries)
            return sum(n for _, n in counts.most_common(3)) / len(queries)

        assert top3_share(base + ",skew=1.5") > 0.40
        assert top3_share(base) < 0.20

    def test_zipf_draws_stay_on_grid(self):
        spec = WorkloadSpec.parse("ops=300,kmax=4,plevels=5,skew=2.0")
        grid = {level / 5 for level in range(6)}
        for op in generate_workload(spec, 2):
            if op[0] == "query":
                assert 1 <= op[1] <= 4
                assert op[2] in grid


# ----------------------------------------------------------------------
# reader-writer lock
# ----------------------------------------------------------------------
class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        entered = threading.Event()
        release = threading.Event()

        def hold_read():
            with lock.read_locked():
                entered.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=hold_read)
        thread.start()
        try:
            assert entered.wait(timeout=5)
            acquired = []

            def second_reader():
                with lock.read_locked():
                    acquired.append(True)

            second = threading.Thread(target=second_reader)
            second.start()
            second.join(timeout=5)
            assert acquired == [True]  # did not wait for the first reader
        finally:
            release.set()
            thread.join(timeout=5)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        reading = threading.Event()
        release_reader = threading.Event()
        write_done = threading.Event()

        def hold_read():
            with lock.read_locked():
                reading.set()
                release_reader.wait(timeout=5)

        def try_write():
            with lock.write_locked():
                write_done.set()

        reader = threading.Thread(target=hold_read)
        reader.start()
        assert reading.wait(timeout=5)
        writer = threading.Thread(target=try_write)
        writer.start()
        assert not write_done.wait(timeout=0.1)  # blocked by the reader
        release_reader.set()
        assert write_done.wait(timeout=5)
        reader.join(timeout=5)
        writer.join(timeout=5)


# ----------------------------------------------------------------------
# the cache structure itself
# ----------------------------------------------------------------------
class TestQueryCache:
    def test_hit_requires_exact_version(self):
        cache = QueryCache(capacity=8)
        cache.put(2, 0, 1, (1, 2, 3))
        assert cache.get(2, 0, 1) == (1, 2, 3)
        assert cache.get(2, 0, 2) is None  # version moved -> miss+drop
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.invalidations == 1
        assert cache.contents() == {}

    def test_purge_k_drops_only_that_k(self):
        cache = QueryCache(capacity=8)
        cache.put(2, 0, 1, (1,))
        cache.put(2, 3, 1, ())
        cache.put(3, 0, 4, (9,))
        assert cache.purge_k(2) == 2
        assert cache.contents() == {(3, 0): 4}
        assert cache.purge_k(2) == 0

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        cache.put(1, 0, 0, (1,))
        cache.put(2, 0, 0, (2,))
        assert cache.get(1, 0, 0) is not None  # 1 is now most recent
        cache.put(3, 0, 0, (3,))  # evicts (2, 0)
        assert set(cache.contents()) == {(1, 0), (3, 0)}
        assert cache.stats().evictions == 1

    def test_capacity_validated(self):
        with pytest.raises(ParameterError):
            QueryCache(capacity=0)
        with pytest.raises(ParameterError):
            QueryCache(capacity=4, min_answer_size=-1)

    def test_admission_threshold_rejects_small_answers(self):
        cache = QueryCache(capacity=8, min_answer_size=2)
        cache.put(2, 0, 1, (7,))  # below threshold: refused
        assert cache.contents() == {}
        assert cache.get(2, 0, 1) is None
        stats = cache.stats()
        assert stats.admission_rejects == 1
        cache.put(2, 0, 1, (7, 8))  # at threshold: admitted
        assert cache.get(2, 0, 1) == (7, 8)
        assert cache.stats().admission_rejects == 1

    def test_small_answers_never_evict_large_ones(self):
        cache = QueryCache(capacity=2, min_answer_size=3)
        cache.put(1, 0, 0, (1, 2, 3))
        cache.put(2, 0, 0, (4, 5, 6, 7))
        for level in range(20):  # a storm of tiny answers
            cache.put(3, level, 0, (9,))
        assert set(cache.contents()) == {(1, 0), (2, 0)}
        assert cache.stats().evictions == 0
        assert cache.stats().admission_rejects == 20

    def test_zero_threshold_restores_admit_everything(self):
        cache = QueryCache(capacity=4, min_answer_size=0)
        cache.put(2, 0, 1, ())  # even the empty answer is admitted
        assert cache.get(2, 0, 1) == ()
        assert cache.stats().admission_rejects == 0


# ----------------------------------------------------------------------
# server basics
# ----------------------------------------------------------------------
class TestServerBasics:
    def test_rejects_bad_parameters_before_cache(self, tmp_path):
        with make_server(str(tmp_path)) as server:
            for k, p in ((0, 0.5), (-1, 0.5), (2, -0.1), (2, 1.5)):
                with pytest.raises(ValueError):
                    server.query(k, p)
                with pytest.raises(ValueError):
                    server.query_many([(2, 0.5), (k, p)])
            # validation failures never touched the cache
            assert server.cache_stats().lookups == 0
            assert server.queries_served == 0

    def test_answers_match_naive(self, tmp_path):
        with make_server(str(tmp_path)) as server:
            server.apply(
                [("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 0),
                 ("insert", 0, 3)]
            )
            graph = Graph([(0, 1), (1, 2), (2, 0), (0, 3)])
            for k in (1, 2, 3):
                for p in (0.0, 0.5, 2 / 3, 1.0):
                    expected = naive_kp_core_vertices(graph, k, p)
                    assert set(server.query(k, p)) == expected

    def test_repeat_query_hits_cache(self, tmp_path):
        with make_server(str(tmp_path)) as server:
            server.apply([("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 0)])
            first = server.query(2, 0.5)
            second = server.query(2, 0.5)
            assert first == second
            stats = server.cache_stats()
            assert stats.hits == 1 and stats.misses == 1

    def test_answers_are_immutable_stored_tuples(self, tmp_path):
        """query() returns the index's stored tuple: immutable (so no
        caller can poison the cache) and shared across hit and miss."""
        with make_server(str(tmp_path)) as server:
            server.apply([("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 0)])
            first = server.query(2, 0.5)
            assert isinstance(first, tuple)
            with pytest.raises((AttributeError, TypeError)):
                first.append("junk")  # type: ignore[attr-defined]
            assert server.query(2, 0.5) is first  # the cached reference

    def test_float_spellings_of_one_level_share_one_entry(self, tmp_path):
        """Regression: keys are level indices, not raw floats — ``0.3``
        and the arithmetic spelling ``0.30000000000000004`` used to be
        two entries and silently halve the hit rate."""
        with make_server(str(tmp_path)) as server:
            server.apply([("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 0)])
            p_exact = 0.3
            p_drifted = 0.1 + 0.2  # 0.30000000000000004
            # The premise of the regression: the two spellings really
            # are distinct doubles (that is the bug being pinned).
            assert p_exact != p_drifted  # noqa: KP002 distinctness is the premise
            first = server.query(2, p_exact)
            second = server.query(2, p_drifted)
            assert second is first  # served from the same entry
            stats = server.cache_stats()
            assert stats.hits == 1 and stats.misses == 1
            assert len(server.cache_contents()) == 1

    def test_cache_disabled_serves_correctly(self, tmp_path):
        with make_server(str(tmp_path), cache=False) as server:
            server.apply([("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 0)])
            assert set(server.query(2, 2 / 3)) == {0, 1, 2}
            stats = server.cache_stats()
            assert stats.lookups == 0 and stats.capacity == 0
            assert server.cache_contents() == {}

    def test_query_many_matches_single_queries(self, tmp_path):
        with make_server(str(tmp_path)) as server:
            server.apply(
                [("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 0),
                 ("insert", 2, 3), ("insert", 3, 4)]
            )
            pairs = [(1, 0.0), (2, 0.5), (2, 1.0), (9, 0.5)]
            batched = server.query_many(pairs)
            assert [set(a) for a in batched] == [
                set(server.query(k, p)) for k, p in pairs
            ]

    def test_unaffected_k_survives_update(self, tmp_path):
        """The Thm. 2 skip is visible as a cache entry outliving a write."""
        with make_server(str(tmp_path)) as server:
            server.apply(
                [("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 0)]
            )
            assert set(server.query(2, 0.5)) == {0, 1, 2}
            before = server.index.version(2)
            # Fresh pendant edge far from the triangle: both endpoints
            # have new core number 1, so Theorem 2 skips A_2 entirely.
            server.insert_edge(10, 11)
            assert server.index.version(2) == before
            assert any(k == 2 for k, _ in server.cache_contents())
            stats = server.cache_stats()
            server.query(2, 0.5)
            assert server.cache_stats().hits == stats.hits + 1

    def test_closed_server_rejects_updates(self, tmp_path):
        server = make_server(str(tmp_path))
        server.apply([("insert", 0, 1)])
        server.close()
        with pytest.raises(Exception):
            server.insert_edge(1, 2)


# ----------------------------------------------------------------------
# differential soak: server vs naive fixpoint at every probe point
# ----------------------------------------------------------------------
SOAK_SPEC = "ops=110,query=6,insert=2,delete=1,vertices=20,kmax=5,plevels=8,prefill=30"


class TestDifferentialSoak:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    def test_soak_matches_naive_everywhere(self, seed, cache):
        result = run_differential_probes(
            spec=SOAK_SPEC, seed=seed, cache=cache, probe_every=1
        )
        assert result["probes"] > 0
        assert result["stale_serves"] == 0
        if cache:
            assert result["cache_stats"]["hit_rate"] > 0

    def test_soak_inline_replay(self, tmp_path):
        """The same invariant, asserted inline (no driver indirection)."""
        mirror = Graph()
        with make_server(str(tmp_path)) as server:
            for op in generate_workload(SOAK_SPEC, seed=9):
                if op[0] == "query":
                    _, k, p = op
                    assert set(server.query(k, p)) == naive_kp_core_vertices(
                        mirror, k, p
                    )
                elif op[0] == "insert":
                    server.insert_edge(op[1], op[2])
                    mirror.add_edge(op[1], op[2])
                else:
                    server.delete_edge(op[1], op[2])
                    mirror.remove_edge(op[1], op[2])
            rebuilt = KPIndex.build(mirror)
            assert server.index.semantically_equal(rebuilt)


# ----------------------------------------------------------------------
# hypothesis: the cache can never hold (or serve) a stale entry
# ----------------------------------------------------------------------
PROBE_PAIRS = [(1, 1.0), (2, 0.5), (2, 1.0), (3, 1 / 3)]

update_sequences = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=1,
    max_size=20,
)


class TestNoStaleCache:
    @settings(max_examples=20, deadline=None)
    @given(pairs=update_sequences)
    def test_versions_match_after_every_update(self, pairs):
        """After any update, cached versions equal live versions, and
        entries of every affected ``k`` are purged (never served)."""
        mirror = Graph()
        with tempfile.TemporaryDirectory(prefix="repro-stale-") as tmp:
            with make_server(tmp) as server:
                for u, v in pairs:
                    for k, p in PROBE_PAIRS:
                        server.query(k, p)
                    before_versions = dict(server.index.versions())
                    before_entries = server.cache_contents()
                    if mirror.has_edge(u, v):
                        server.delete_edge(u, v)
                        mirror.remove_edge(u, v)
                    else:
                        server.insert_edge(u, v)
                        mirror.add_edge(u, v)
                    live = server.index
                    contents = server.cache_contents()
                    changed = {
                        k
                        for k in set(live.versions())
                        | set(before_versions)
                        if before_versions.get(k, 0) != live.version(k)
                    }
                    for (k, p), version in contents.items():
                        # no stale entry survives the eager purge
                        assert version == live.version(k)
                    for (k, p) in before_entries:
                        if k in changed:
                            # affected k: the pre-update entry is gone
                            assert (k, p) not in contents
                    # and the served answers are exact
                    for k, p in PROBE_PAIRS:
                        assert set(server.query(k, p)) == (
                            naive_kp_core_vertices(mirror, k, p)
                        )


# ----------------------------------------------------------------------
# server-level cache admission
# ----------------------------------------------------------------------
class TestServerAdmission:
    def test_small_answers_served_but_not_cached(self, tmp_path):
        with make_server(str(tmp_path), min_answer_size=3) as server:
            server.apply(
                [("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 0),
                 ("insert", 2, 3)]
            )
            # k=3 answer is empty (< threshold): correct but never cached
            assert server.query(3, 0.5) == ()
            assert server.query(3, 0.5) == ()
            stats = server.cache_stats()
            assert stats.hits == 0 and stats.admission_rejects >= 1
            # the triangle answer (3 vertices) clears the threshold
            big = server.query(2, 0.5)
            assert len(big) == 3
            assert server.query(2, 0.5) is big
            assert server.cache_stats().hits == 1

    def test_default_threshold_is_zero(self, tmp_path):
        """min_answer_size=0 (the default) restores admit-everything."""
        with make_server(str(tmp_path)) as server:
            server.apply([("insert", 0, 1)])
            assert server.query(5, 1.0) == ()  # empty, still admitted
            server.query(5, 1.0)
            stats = server.cache_stats()
            assert stats.hits == 1 and stats.admission_rejects == 0


# ----------------------------------------------------------------------
# hypothesis: (k, level) keying never serves a wrong-level answer
# ----------------------------------------------------------------------
LEVEL_EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (0, 5)]

query_streams = st.lists(
    st.tuples(
        st.integers(1, 4),
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
)


class TestLevelKeyedCacheSoundness:
    @settings(max_examples=25, deadline=None)
    @given(queries=query_streams)
    def test_level_keying_never_serves_wrong_level(self, queries):
        """Any float stream — grid points, drifted spellings, arbitrary
        reals — must get the exact naive answer even when distinct p's
        collapse onto one cache entry."""
        mirror = Graph(LEVEL_EDGES)
        with tempfile.TemporaryDirectory(prefix="repro-level-") as tmp:
            with make_server(tmp) as server:
                server.apply([("insert", u, v) for u, v in LEVEL_EDGES])
                for k, p in queries:
                    assert set(server.query(k, p)) == (
                        naive_kp_core_vertices(mirror, k, p)
                    ), (k, p)


# ----------------------------------------------------------------------
# lock-hold tail: the first-miss rebuild must not happen under the lock
# ----------------------------------------------------------------------
class TestLockHoldBounds:
    def test_query_lock_hold_bounded_by_answer_size(self, tmp_path):
        """No query's read-lock hold may exceed a bound proportional to
        its answer size — the old cache-hit path rebuilt a list (and the
        miss path peeled the whole level suffix) under the lock, which
        was the entire p99 == max tail in the committed baseline."""
        spec = "ops=150,query=8,insert=1,delete=1,vertices=30,kmax=4,prefill=60"
        with make_server(str(tmp_path)) as server:
            with collecting() as obs:
                for op in generate_workload(spec, seed=4):
                    if op[0] == "query":
                        server.query(op[1], op[2])
                    elif op[0] == "insert":
                        server.insert_edge(op[1], op[2])
                    else:
                        server.delete_edge(op[1], op[2])
                events = obs.events()
        query_spans = {
            e.span_id: e
            for e in events
            if e.name == names.TRACE_SERVER_QUERY
        }
        holds = [
            e
            for e in events
            if e.name == names.TRACE_LOCK_READ_HOLD
            and e.parent_id in query_spans
        ]
        assert holds
        for hold in holds:
            size = int(query_spans[hold.parent_id].attrs["answer_size"])
            # Generous constant slack for interpreter noise; the 1e-4
            # s/vertex term is the only allowed size dependence.
            assert hold.dur <= 0.05 + 1e-4 * size, (hold.dur, size)
        # Structural half: a cache hit never runs the answer build.
        build_parents = {
            e.parent_id
            for e in events
            if e.name == names.TRACE_QUERY_ANSWER
        }
        hold_by_query = {h.parent_id: h for h in holds}
        hits = [
            e for e in query_spans.values() if e.attrs.get("cache_hit")
        ]
        assert hits
        for span in hits:
            hold = hold_by_query[span.span_id]
            assert hold.span_id not in build_parents


# ----------------------------------------------------------------------
# concurrency stress: readers vs one journaled writer
# ----------------------------------------------------------------------
class TestConcurrencyStress:
    def test_readers_never_see_torn_answers(self, tmp_path):
        spec = "ops=36,query=0,insert=2,delete=1,vertices=14,kmax=4,prefill=20"
        updates = [
            op for op in generate_workload(spec, seed=11) if op[0] != "query"
        ]
        # Valid answers per probe pair at every write boundary (the
        # initial empty state plus each update prefix).
        mirror = Graph()
        valid: dict[tuple[int, float], set[frozenset]] = {
            pair: set() for pair in PROBE_PAIRS
        }
        for pair in PROBE_PAIRS:
            valid[pair].add(frozenset(naive_kp_core_vertices(mirror, *pair)))
        for op, u, v in updates:
            if op == "insert":
                mirror.add_edge(u, v)
            else:
                mirror.remove_edge(u, v)
            for pair in PROBE_PAIRS:
                valid[pair].add(
                    frozenset(naive_kp_core_vertices(mirror, *pair))
                )

        errors: list[BaseException] = []
        done = threading.Event()

        with make_server(str(tmp_path)) as server:

            def reader(offset: int) -> None:
                iterations = 0
                try:
                    while not done.is_set() and iterations < 400:
                        pair = PROBE_PAIRS[
                            (iterations + offset) % len(PROBE_PAIRS)
                        ]
                        answer = frozenset(server.query(*pair))
                        assert answer in valid[pair], (
                            f"torn answer for {pair}: {sorted(answer)!r}"
                        )
                        if iterations % 7 == 0:
                            batch = server.query_many(PROBE_PAIRS)
                            for probed, got in zip(PROBE_PAIRS, batch):
                                assert frozenset(got) in valid[probed]
                        iterations += 1
                except BaseException as error:
                    errors.append(error)

            threads = [
                threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                for i, op in enumerate(updates):
                    server.apply([op])
                    if (i + 1) % 10 == 0:
                        server.checkpoint()
            finally:
                done.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not errors, errors
            assert server.index.semantically_equal(KPIndex.build(mirror))
            # the writer's journal really saw every update
            assert server.durable.stats.journaled == len(updates)


# ----------------------------------------------------------------------
# batched writes through the server
# ----------------------------------------------------------------------
class TestBatchedServer:
    def test_apply_batch_matches_sequential_server(self, tmp_path):
        spec = "ops=80,query=0,insert=2,delete=1,vertices=14,kmax=4,prefill=25"
        updates = [
            op for op in generate_workload(spec, seed=6) if op[0] != "query"
        ]
        with make_server(str(tmp_path / "a")) as batched, make_server(
            str(tmp_path / "b")
        ) as sequential:
            for i in range(0, len(updates), 8):
                batched.apply_batch(updates[i : i + 8])
            sequential.apply(updates)
            assert batched.index.semantically_equal(sequential.index)

    def test_apply_batch_purges_only_touched_arrays(self, tmp_path):
        with make_server(str(tmp_path)) as server:
            server.apply([("insert", u, v) for u, v in
                          [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]])
            for k, p in [(1, 1.0), (2, 0.5), (2, 1.0)]:
                server.query(k, p)
            assert server.cache_contents()
            before = dict(server.index.versions())
            # pendant edges between fresh vertices: touches A_1 only
            server.apply_batch([("insert", 10, 11), ("insert", 12, 13)])
            contents = server.cache_contents()
            for (k, level), version in contents.items():
                assert version == server.index.version(k)
            for k in set(server.index.versions()) | set(before):
                if before.get(k, 0) == server.index.version(k):
                    continue
                assert all(key[0] != k for key in contents)  # noqa: KP002 integer k cache keys, not p-values

    def test_batched_soak_matches_naive_everywhere(self):
        result = run_differential_probes(
            spec=SOAK_SPEC + ",batch=8", seed=4, probe_every=1
        )
        assert result["probes"] > 0
        assert result["stale_serves"] == 0

    def test_three_readers_one_batch_writer_no_stale(self, tmp_path):
        # apply_batch is atomic under the write lock, so readers may only
        # observe batch-boundary states — a strictly smaller valid set
        # than the per-update boundaries of the sequential stress test.
        spec = "ops=36,query=0,insert=2,delete=1,vertices=14,kmax=4,prefill=20"
        updates = [
            op for op in generate_workload(spec, seed=11) if op[0] != "query"
        ]
        batch = 4
        mirror = Graph()
        valid: dict[tuple[int, float], set[frozenset]] = {
            pair: set() for pair in PROBE_PAIRS
        }
        for pair in PROBE_PAIRS:
            valid[pair].add(frozenset(naive_kp_core_vertices(mirror, *pair)))
        for i in range(0, len(updates), batch):
            for op, u, v in updates[i : i + batch]:
                if op == "insert":
                    mirror.add_edge(u, v)
                else:
                    mirror.remove_edge(u, v)
            for pair in PROBE_PAIRS:
                valid[pair].add(
                    frozenset(naive_kp_core_vertices(mirror, *pair))
                )

        errors: list[BaseException] = []
        done = threading.Event()

        with make_server(str(tmp_path)) as server:

            def reader(offset: int) -> None:
                iterations = 0
                try:
                    while not done.is_set() and iterations < 400:
                        pair = PROBE_PAIRS[
                            (iterations + offset) % len(PROBE_PAIRS)
                        ]
                        answer = frozenset(server.query(*pair))
                        assert answer in valid[pair], (
                            f"stale/torn answer for {pair}: "
                            f"{sorted(answer)!r} is not any batch-boundary "
                            "state"
                        )
                        iterations += 1
                except BaseException as error:
                    errors.append(error)

            threads = [
                threading.Thread(
                    target=reader, args=(i,), name=f"batch-reader-{i}"
                )
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                for i in range(0, len(updates), batch):
                    server.apply_batch(updates[i : i + batch])
            finally:
                done.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not errors, errors
            assert server.index.semantically_equal(KPIndex.build(mirror))
            # one journal record per batch, not per update
            assert server.durable.stats.journaled == -(-len(updates) // batch)


class TestWorkloadBatchKey:
    def test_batch_parses_and_round_trips(self):
        spec = WorkloadSpec.parse("ops=50,batch=8")
        assert spec.batch == 8
        assert WorkloadSpec.parse(spec.to_string()) == spec

    def test_batch_default_is_one(self):
        assert WorkloadSpec().batch == 1

    def test_batch_validated(self):
        with pytest.raises(ParameterError):
            WorkloadSpec(batch=0)

    def test_batch_changes_fingerprint_not_the_stream(self):
        plain = WorkloadSpec.parse("ops=60,vertices=12")
        batched = WorkloadSpec.parse("ops=60,vertices=12,batch=8")
        assert plain.fingerprint() != batched.fingerprint()
        # purely an application knob: the generated ops are identical
        assert generate_workload(plain, seed=3) == generate_workload(
            batched, seed=3
        )


# ----------------------------------------------------------------------
# bench drivers
# ----------------------------------------------------------------------
class TestServeBenchDriver:
    def test_percentile(self):
        values = sorted([0.1, 0.2, 0.3, 0.4])
        assert percentile(values, 0.0) == 0.1
        assert percentile(values, 1.0) == 0.4
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ParameterError):
            percentile(values, 1.5)

    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
    def test_run_serve_bench_reports(self, tmp_path, cache):
        result = run_serve_bench(
            str(tmp_path / "state"),
            spec="ops=80,vertices=16,kmax=4,prefill=20",
            seed=2,
            threads=2,
            cache=cache,
        )
        assert result["queries"] > 0 and result["updates"] > 0
        assert result["batch"] == 1
        assert result["elapsed_s"] >= 0
        assert result["query_wall_s"] > 0 and result["update_wall_s"] >= 0
        assert result["query_qps"] > 0 and result["ops_per_s"] > 0
        assert "min_answer_size" in result
        assert "qps" not in result  # replaced by query_qps / ops_per_s
        assert set(result["latency_ms"]) == {"p50", "p95", "p99", "max"}
        if cache:
            assert result["cache_stats"]["hits"] > 0
            assert "admission_rejects" in result["cache_stats"]
        else:
            assert result["cache_stats"]["hits"] == 0

    def test_run_serve_bench_batched_write_path(self, tmp_path):
        result = run_serve_bench(
            str(tmp_path / "state"),
            spec="ops=80,vertices=16,kmax=4,prefill=20,batch=8",
            seed=2,
            threads=2,
        )
        assert result["batch"] == 8
        assert result["updates"] > 0 and result["ops_per_s"] > 0
        # the state directory is recoverable and exact after the batches
        durable = DurableMaintainer(
            str(tmp_path / "state"), must_exist=True
        )
        try:
            assert durable.index.semantically_equal(
                KPIndex.build(durable.graph)
            )
        finally:
            durable.close()

    def test_serve_bench_state_survives_for_recovery(self, tmp_path):
        """The bench writes through the durable layer: recovery works."""
        state = str(tmp_path / "state")
        run_serve_bench(
            state,
            spec="ops=40,vertices=12,kmax=3,prefill=12",
            seed=3,
            threads=1,
        )
        durable = DurableMaintainer(state, must_exist=True)
        try:
            assert durable.recovery is not None
            rebuilt = KPIndex.build(durable.graph)
            assert durable.index.semantically_equal(rebuilt)
        finally:
            durable.close()
