"""Unit tests for the KP-Index and Algorithm 3 (kpCoreQuery)."""

import random
from bisect import bisect_left

import pytest

from repro.errors import IndexStateError, ParameterError
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi_gnm
from repro.core.index import KArray, KPIndex, build_index
from repro.core.kpcore import kp_core_vertices
from repro.kcore.decomposition import core_decomposition


class TestKArray:
    def test_levels_built_from_runs(self):
        array = KArray(k=2, vertices=[1, 2, 3, 4], p_numbers=[0.5, 0.5, 0.75, 1.0])
        assert array.level_values == [0.5, 0.75, 1.0]  # noqa: KP002 exact-double oracle
        assert array.level_starts == [0, 2, 3]

    def test_unsorted_p_numbers_rejected(self):
        with pytest.raises(IndexStateError):
            KArray(k=2, vertices=[1, 2], p_numbers=[0.8, 0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(IndexStateError):
            KArray(k=2, vertices=[1], p_numbers=[0.5, 0.6])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(IndexStateError):
            KArray(k=2, vertices=[1, 1], p_numbers=[0.5, 0.5])

    def test_query_suffix_semantics(self):
        array = KArray(k=2, vertices=[1, 2, 3, 4], p_numbers=[0.5, 0.5, 0.75, 1.0])
        assert array.query(0.5) == [1, 2, 3, 4]
        assert array.query(0.6) == [3, 4]
        assert array.query(0.75) == [3, 4]
        assert array.query(1.0) == [4]
        assert array.query(0.0) == [1, 2, 3, 4]

    def test_query_above_max_level_is_empty(self):
        array = KArray(k=2, vertices=[1], p_numbers=[0.5])
        assert array.query(0.9) == []

    def test_query_rejects_out_of_range_p(self):
        # Regression lock-in: KArray.query must validate p itself (the
        # serving cache keys answers by (k, p) — a silently-accepted bad
        # p would poison it).  ParameterError subclasses ValueError.
        array = KArray(k=2, vertices=[1, 2], p_numbers=[0.5, 1.0])
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                array.query(bad)

    def test_p_number_lookup(self):
        array = KArray(k=2, vertices=[1, 2], p_numbers=[0.5, 0.8])
        assert array.p_number(2) == 0.8  # noqa: KP002 exact-double oracle
        assert array.p_number_or(99, 0.0) == 0.0  # noqa: KP002 exact-double oracle
        with pytest.raises(KeyError):
            array.p_number(99)

    def test_replace_segment_splices(self):
        array = KArray(
            k=2, vertices=[1, 2, 3, 4, 5], p_numbers=[0.2, 0.4, 0.5, 0.7, 0.9]
        )
        array.replace_segment(
            keep_below=0.4,
            segment_vertices=[3, 2],
            segment_p_numbers=[0.45, 0.6],
            tail_from=[4, 5],
        )
        assert array.vertices == [1, 3, 2, 4, 5]
        assert array.p_numbers == [0.2, 0.45, 0.6, 0.7, 0.9]  # noqa: KP002 exact-double oracle
        assert array.p_number(2) == 0.6  # noqa: KP002 exact-double oracle
        # keep_below equal to a level shared by several vertices: the
        # whole run at that level is re-spliced, only 0.2 is kept.
        tied = KArray(
            k=2, vertices=[1, 2, 3, 4, 5], p_numbers=[0.2, 0.4, 0.4, 0.4, 0.9]
        )
        tied.replace_segment(
            keep_below=0.4,
            segment_vertices=[4, 2, 3],
            segment_p_numbers=[0.4, 0.5, 0.5],
            tail_from=[5],
        )
        assert tied.vertices == [1, 4, 2, 3, 5]
        assert tied.p_numbers == [0.2, 0.4, 0.5, 0.5, 0.9]  # noqa: KP002 oracle

    @staticmethod
    def _assert_like_fresh(array):
        fresh = KArray(k=array.k, vertices=list(array.vertices),
                       p_numbers=list(array.p_numbers))
        assert array.level_values == fresh.level_values  # noqa: KP002 exact-double oracle
        assert array.level_starts == fresh.level_starts
        assert array.pn_map() == fresh.pn_map()  # noqa: KP002 exact-double oracle
        levels = len(fresh.level_values)
        assert [array.slice_at(j) for j in range(levels + 1)] == [
            fresh.slice_at(j) for j in range(levels + 1)
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_splices_equal_a_fresh_array(self, seed):
        # The splice truncates at the seam and re-indexes only the suffix;
        # after every splice the array must be indistinguishable from one
        # built from scratch on the same vertices and p-numbers, cached
        # slices included.
        rng = random.Random(seed)
        grid = [i / 8 for i in range(9)]
        size = rng.randint(0, 12)
        array = KArray(k=3, vertices=list(range(size)),
                       p_numbers=sorted(rng.choice(grid) for _ in range(size)))
        fresh_labels = iter(range(100, 10**6))
        for _ in range(40):
            for j in range(len(array.level_values)):
                if rng.random() < 0.5:
                    array.slice_at(j)  # a cached slice must not survive
            keep_below = rng.choice(grid)
            seam = bisect_left(array.p_numbers, keep_below)
            suffix = array.vertices[seam:]
            cut = rng.randint(0, len(suffix))
            tail = suffix[cut:]
            if rng.random() < 0.3:
                # Not the array's end: the dropped vertices leave A_k.
                tail = [v for v in tail if rng.random() < 0.7]
            ceiling = array.p_number(tail[0]) if tail else 1.0
            floor = array.p_numbers[seam - 1] if seam else 0.0
            levels = [p for p in grid if max(floor, keep_below) <= p <= ceiling]
            reused = [v for v in suffix[:cut] if rng.random() < 0.7]
            segment = reused + [next(fresh_labels)
                                for _ in range(rng.randint(0, 3))]
            rng.shuffle(segment)
            segment_pns = sorted(rng.choice(levels) for _ in segment)
            array.replace_segment(keep_below, segment, segment_pns, tail)
            self._assert_like_fresh(array)

    def test_splice_keeps_its_invariant_checks(self):
        array = KArray(k=2, vertices=[1, 2, 3], p_numbers=[0.2, 0.5, 0.7])
        with pytest.raises(IndexStateError, match="not sorted"):
            # The segment starts below the kept prefix: unsorted seam.
            array.replace_segment(0.5, [2, 3], [0.1, 0.7])
        array = KArray(k=2, vertices=[1, 2, 3], p_numbers=[0.2, 0.5, 0.7])
        with pytest.raises(IndexStateError, match="duplicate"):
            array.replace_segment(0.5, [1, 3], [0.5, 0.7])


class TestIndexQueries:
    @pytest.mark.parametrize("seed", range(5))
    def test_query_equals_direct_computation(self, seed):
        g = erdos_renyi_gnm(25, 75, seed=seed)
        index = KPIndex.build(g)
        d = core_decomposition(g).degeneracy
        for k in range(1, d + 2):
            for p in (0.0, 0.3, 0.5, 0.66, 0.8, 1.0):
                assert set(index.query(k, p)) == kp_core_vertices(g, k, p)

    def test_query_result_is_suffix_order(self):
        g = erdos_renyi_gnm(20, 60, seed=9)
        index = KPIndex.build(g)
        array = index.array(2)
        result = index.query(2, array.level_values[0])
        assert result == array.vertices

    def test_k_beyond_degeneracy(self, triangle):
        index = KPIndex.build(triangle)
        assert index.query(5, 0.1) == []

    def test_invalid_parameters(self, triangle):
        index = KPIndex.build(triangle)
        with pytest.raises(ParameterError):
            index.query(0, 0.5)
        with pytest.raises(ParameterError):
            index.query(1, 1.5)
        with pytest.raises(ParameterError):
            index.query(1, -0.1)
        with pytest.raises(ParameterError):
            index.query(1, float("nan"))

    def test_p_number_accessor(self, cascade_graph):
        index = KPIndex.build(cascade_graph)
        assert index.p_number(5, 2) == pytest.approx(2 / 3)  # noqa: KP002 exact-double oracle
        with pytest.raises(KeyError):
            index.p_number(5, 9)


class TestAnswerSlices:
    def test_query_slice_matches_query(self):
        g = erdos_renyi_gnm(25, 75, seed=3)
        index = KPIndex.build(g)
        for k in (1, 2, 3):
            for p in (0.0, 0.3, 0.5, 0.8, 1.0):
                assert list(index.query_slice(k, p)) == index.query(k, p)

    def test_slice_is_memoized_per_level(self):
        array = KArray(k=2, vertices=[1, 2, 3, 4], p_numbers=[0.5, 0.5, 0.75, 1.0])
        first = array.query_slice(0.6)
        assert first == (3, 4)
        assert array.query_slice(0.75) is first
        assert array.slice_at(array.level_index(0.7)) is first

    def test_mutation_resets_slices(self):
        array = KArray(
            k=2, vertices=[1, 2, 3, 4, 5], p_numbers=[0.2, 0.4, 0.5, 0.7, 0.9]
        )
        before = array.query_slice(0.5)
        array.replace_segment(
            keep_below=0.4,
            segment_vertices=[3, 2],
            segment_p_numbers=[0.45, 0.6],
            tail_from=[4, 5],
        )
        after = array.query_slice(0.5)
        assert after is not before
        assert after == (2, 4, 5)

    def test_above_max_level_is_empty_tuple(self):
        array = KArray(k=2, vertices=[1], p_numbers=[0.5])
        assert array.query_slice(0.9) == ()
        assert array.level_index(0.9) == len(array.level_values)

    def test_level_index_canonicalizes_float_spellings(self):
        array = KArray(k=2, vertices=[1, 2, 3], p_numbers=[0.25, 0.5, 1.0])
        # Both spellings sit in the same inter-level gap (0.25, 0.5].
        assert array.level_index(0.3) == array.level_index(0.1 + 0.2)
        # A p-number strictly between two spellings separates them.
        assert array.level_index(0.25) != array.level_index(0.3)

    def test_answer_key_pairs_version_and_level(self, triangle):
        index = KPIndex.build(triangle)
        version, level = index.answer_key(1, 0.5)
        assert version == index.version(1)
        assert level == index.level_index(1, 0.5)

    def test_answer_key_memo_invalidates_on_version_bump(self, triangle):
        index = KPIndex.build(triangle)
        first = index.answer_key(1, 0.5)
        assert index.answer_key(1, 0.5) is first  # memoized pair
        index.bump_version(1)
        second = index.answer_key(1, 0.5)
        assert second != first
        assert second[0] == index.version(1)

    def test_answer_key_for_absent_k(self, triangle):
        index = KPIndex.build(triangle)
        assert index.answer_key(99, 0.5) == (0, 0)
        assert index.query_slice(99, 0.5) == ()


class TestVersions:
    def test_fresh_index_starts_at_zero(self, triangle):
        index = KPIndex.build(triangle)
        assert index.versions() == {}
        assert index.version(1) == 0
        assert index.version(99) == 0

    def test_bump_is_monotonic_per_k(self, triangle):
        index = KPIndex.build(triangle)
        assert index.bump_version(2) == 1
        assert index.bump_version(2) == 2
        assert index.bump_version(3) == 1
        assert index.version(2) == 2
        assert index.version(3) == 1
        assert index.version(1) == 0

    def test_versions_returns_a_copy(self, triangle):
        index = KPIndex.build(triangle)
        index.bump_version(1)
        snapshot = index.versions()
        snapshot[1] = 99
        assert index.version(1) == 1

    def test_version_validates_k(self, triangle):
        index = KPIndex.build(triangle)
        with pytest.raises(ParameterError):
            index.version(0)


class TestStructure:
    def test_space_bound_lemma1(self):
        for seed in range(4):
            g = erdos_renyi_gnm(30, 100, seed=seed)
            stats = KPIndex.build(g).space_stats()
            assert stats.vertex_entries <= stats.two_m
            assert stats.p_number_entries <= stats.vertex_entries
            assert stats.within_bound

    def test_validate_passes_on_fresh_index(self):
        g = erdos_renyi_gnm(30, 100, seed=5)
        KPIndex.build(g).validate()

    def test_validate_catches_broken_nesting(self):
        g = erdos_renyi_gnm(30, 100, seed=6)
        index = KPIndex.build(g)
        top = index.degeneracy
        # corrupt: put a vertex in A_top that is not in A_(top-1)
        bogus = "not-a-member"
        index.arrays()[top].vertices.append(bogus)
        index.arrays()[top].p_numbers.append(2.0)
        index.arrays()[top]._rebuild_levels()
        with pytest.raises(IndexStateError):
            index.validate()

    def test_degeneracy_property(self, triangle):
        assert KPIndex.build(triangle).degeneracy == 2

    def test_semantic_equality_ignores_tie_order(self):
        g = erdos_renyi_gnm(20, 60, seed=7)
        a = KPIndex.build(g)
        b = KPIndex.build(g)
        # permute a same-level block of b
        array = b.arrays()[1]
        start = array.level_starts[0]
        stop = (
            array.level_starts[1]
            if len(array.level_starts) > 1
            else len(array.vertices)
        )
        block = array.vertices[start:stop]
        array.vertices[start:stop] = list(reversed(block))
        array._rebuild_levels()
        assert a.semantically_equal(b)

    def test_serialization_round_trip(self):
        g = erdos_renyi_gnm(20, 55, seed=8)
        index = KPIndex.build(g)
        again = KPIndex.from_dict(index.to_dict())
        assert index.semantically_equal(again)
        assert again.space_stats() == index.space_stats()

    def test_build_index_alias(self, triangle):
        assert build_index(triangle).semantically_equal(KPIndex.build(triangle))

    def test_empty_graph_index(self):
        index = KPIndex.build(Graph())
        assert index.degeneracy == 0
        assert index.query(1, 0.5) == []


class TestFilePersistence:
    def test_save_load_round_trip(self, tmp_path):
        from repro.graph.generators import erdos_renyi_gnm

        g = erdos_renyi_gnm(20, 55, seed=9)
        index = KPIndex.build(g)
        path = str(tmp_path / "index.json")
        index.save(path)
        restored = KPIndex.load(path)
        assert restored.semantically_equal(index)
        assert restored.space_stats() == index.space_stats()

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            KPIndex.load(str(tmp_path / "nope.json"))

    def test_truncated_json_raises_typed_error(self, tmp_path):
        from repro.errors import IndexPersistenceError

        path = tmp_path / "bad.json"
        path.write_text('{"num_edges": 3')
        with pytest.raises(IndexPersistenceError) as excinfo:
            KPIndex.load(str(path))
        assert excinfo.value.path == str(path)
        assert "truncated or foreign file" in str(excinfo.value)

    def test_foreign_json_raises_typed_error(self, tmp_path):
        from repro.errors import IndexPersistenceError

        path = tmp_path / "foreign.json"
        path.write_text('{"hello": [1, 2, 3]}')
        with pytest.raises(IndexPersistenceError):
            KPIndex.load(str(path))

    def test_checksum_mismatch_detected(self, tmp_path):
        import json

        from repro.errors import IndexPersistenceError

        g = erdos_renyi_gnm(10, 20, seed=3)
        path = str(tmp_path / "index.json")
        KPIndex.build(g).save(path)
        document = json.load(open(path))
        document["payload"]["num_edges"] += 1  # silent bit-flip
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(IndexPersistenceError) as excinfo:
            KPIndex.load(path)
        assert "checksum" in str(excinfo.value)

    def test_unsupported_format_version_rejected(self, tmp_path):
        import json

        from repro.errors import IndexPersistenceError

        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format_version": 99, "payload": {}}))
        with pytest.raises(IndexPersistenceError):
            KPIndex.load(str(path))

    def test_v1_document_still_loads(self, tmp_path):
        # Pre-envelope snapshots were the bare payload; migration keeps
        # them loadable.
        import json

        g = erdos_renyi_gnm(12, 24, seed=4)
        index = KPIndex.build(g)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(index.to_payload()))
        restored = KPIndex.load(str(path))
        assert restored.semantically_equal(index)

    def test_fingerprint_round_trips(self, tmp_path):
        from repro.graph.fingerprint import graph_fingerprint

        g = erdos_renyi_gnm(10, 18, seed=5)
        index = KPIndex.build(g)
        path = str(tmp_path / "index.json")
        index.save(path, fingerprint=graph_fingerprint(g))
        restored = KPIndex.load(path)
        assert restored.fingerprint is not None
        assert restored.fingerprint.matches(g)

    def test_invalid_structure_rejected_on_load(self, tmp_path):
        # validate() runs on load: an out-of-order p-number array must be
        # rejected even though the JSON itself is well-formed.
        import json

        from repro.errors import IndexPersistenceError

        payload = {
            "num_edges": 1,
            "arrays": {"1": {"vertices": [1, 2], "p_numbers": [0.9, 0.5]}},
        }
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(IndexPersistenceError):
            KPIndex.load(str(path))

    def test_failed_save_preserves_previous_file(self, tmp_path, monkeypatch):
        import os

        g = erdos_renyi_gnm(10, 18, seed=6)
        index = KPIndex.build(g)
        path = str(tmp_path / "index.json")
        index.save(path)
        before = open(path).read()

        def explode(src, dst):
            raise OSError("simulated replace failure")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            index.save(path)
        monkeypatch.undo()
        assert open(path).read() == before  # old snapshot untouched
        assert [p for p in os.listdir(tmp_path)] == ["index.json"]  # no temp litter
