"""Tests for the process-parallel decomposition driver."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ParameterError
from repro.graph.compact import CompactAdjacency
from repro.graph.generators import erdos_renyi_gnm
from repro.kcore.decomposition import core_numbers_compact
from repro.core.decomposition import kp_core_decomposition
from repro.core.parallel import (
    _chunk_ks,
    default_workers,
    k_core_sizes,
    peel_all_k,
)
from repro.core.peel_engines import ENGINES


def _assert_same_decomposition(a, b):
    assert a.degeneracy == b.degeneracy
    assert dict(a.core_numbers) == dict(b.core_numbers)
    assert set(a.arrays) == set(b.arrays)
    for k, fixed in a.arrays.items():
        other = b.arrays[k]
        assert tuple(other.order) == tuple(fixed.order), k
        assert tuple(other.p_numbers) == tuple(fixed.p_numbers), k


class TestSnapshotPickling:
    def test_round_trip_preserves_csr_and_labels(self, figure1_like_graph):
        snapshot = CompactAdjacency(figure1_like_graph)
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.indptr == snapshot.indptr
        assert clone.indices == snapshot.indices
        assert clone.labels == snapshot.labels

    def test_round_trip_rebuilds_label_index(self, figure1_like_graph):
        snapshot = CompactAdjacency(figure1_like_graph)
        clone = pickle.loads(pickle.dumps(snapshot))
        for v in figure1_like_graph.vertices():
            assert clone.index_of(v) == snapshot.index_of(v)

    def test_round_trip_preserves_rank_sorting(self):
        g = erdos_renyi_gnm(40, 160, seed=3)
        snapshot = CompactAdjacency(g)
        core, _ = core_numbers_compact(snapshot)
        snapshot.sort_neighbors_by_rank_desc(core)
        clone = pickle.loads(pickle.dumps(snapshot))
        for i in range(snapshot.num_vertices):
            for k in range(0, max(core, default=0) + 2):
                assert clone.rank_prefix_length(
                    i, k, core
                ) == snapshot.rank_prefix_length(i, k, core)


class TestScheduling:
    def test_k_core_sizes_are_suffix_counts(self):
        core = [0, 1, 1, 2, 3, 3, 3]
        assert k_core_sizes(core, 3) == [7, 6, 4, 3]

    def test_default_workers_is_positive(self):
        assert default_workers() >= 1

    def test_chunks_cover_every_k_once_in_order(self):
        sizes = [100, 90, 60, 30, 10, 4, 2, 1, 1]
        ks = list(range(1, 9))
        chunks = _chunk_ks(ks, sizes, pool_size=2)
        flattened = [k for chunk in chunks for k in chunk]
        assert flattened == ks  # partition, original (ascending-k) order
        assert all(chunk for chunk in chunks)

    def test_expensive_ks_get_singleton_chunks(self):
        # k=1 alone dwarfs the target chunk cost, so it must not share a
        # chunk with (and thereby delay) anything else.
        sizes = [0, 1000, 10, 8, 6, 4, 2, 1, 1]
        ks = list(range(1, 9))
        chunks = _chunk_ks(ks, sizes, pool_size=4)
        assert chunks[0] == [1]

    def test_tiny_tail_is_batched(self):
        # A long tail of unit-cost ks should travel in batches, not as
        # one dispatch per k.
        sizes = [0] + [1] * 64
        ks = list(range(1, 65))
        chunks = _chunk_ks(ks, sizes, pool_size=2)
        assert 1 < len(chunks) < len(ks)

    def test_chunking_handles_degenerate_inputs(self):
        assert _chunk_ks([], [0], pool_size=4) == []
        assert _chunk_ks([1], [0, 5], pool_size=4) == [[1]]
        assert _chunk_ks([1, 2], [0, 0, 0], pool_size=1) == [[1], [2]]


class TestPeelAllK:
    def test_matches_serial_engine(self):
        g = erdos_renyi_gnm(60, 240, seed=11)
        snapshot = CompactAdjacency(g)
        core, _ = core_numbers_compact(snapshot)
        snapshot.sort_neighbors_by_rank_desc(core)
        degeneracy = max(core, default=0)
        peel = ENGINES["flat"]
        serial = {k: peel(snapshot, core, k) for k in range(1, degeneracy + 1)}
        parallel = peel_all_k(snapshot, core, degeneracy, workers=3)
        assert parallel == serial


class TestWorkersParameter:
    def test_workers_4_identical_to_workers_1(self):
        g = erdos_renyi_gnm(70, 320, seed=13)
        serial = kp_core_decomposition(g, workers=1)
        parallel = kp_core_decomposition(g, workers=4)
        _assert_same_decomposition(serial, parallel)

    def test_string_labelled_vertices_survive_the_pool(self):
        g = erdos_renyi_gnm(25, 90, seed=4)
        relabelled = type(g)(
            (f"v{u}", f"v{w}") for u, w in g.edges()
        )
        serial = kp_core_decomposition(relabelled, workers=1)
        parallel = kp_core_decomposition(relabelled, workers=2)
        _assert_same_decomposition(serial, parallel)

    def test_invalid_workers_rejected(self, triangle):
        with pytest.raises(ParameterError, match="workers"):
            kp_core_decomposition(triangle, workers=0)

    def test_p_number_lookup_after_parallel_run(self):
        g = erdos_renyi_gnm(30, 120, seed=9)
        decomposition = kp_core_decomposition(g, workers=2)
        fixed = decomposition.arrays[1]
        for v, pn in zip(fixed.order, fixed.p_numbers):
            assert decomposition.p_number(v, 1) == pn  # noqa: KP002 exact-double oracle


class TestCrossProcessObservability:
    """Worker metrics and trace events must merge back into the parent.

    The peel kernel records all its own counters, so a
    parallel run's merged counters equal a single-process run exactly —
    the only extra names are the ``decomp.parallel.*`` pool bookkeeping.
    """

    @staticmethod
    def _run(workers):
        from repro.obs import collecting

        g = erdos_renyi_gnm(45, 180, seed=21)
        with collecting() as obs:
            kp_core_decomposition(g, workers=workers)
        return obs.snapshot(), obs.events()

    @staticmethod
    def _core_counters(snapshot):
        return {
            name: value
            for name, value in snapshot.counters.items()
            if not name.startswith("decomp.parallel")
        }

    def test_merged_counters_equal_single_process_run(self):
        from collections import Counter

        serial, serial_events = self._run(workers=1)
        for workers in (2, 3):
            parallel, parallel_events = self._run(workers=workers)
            assert self._core_counters(parallel) == self._core_counters(serial)
            # the pool ships every event back: same names, same multiplicity
            assert Counter(e.name for e in parallel_events) == Counter(
                e.name for e in serial_events
            )
            # worker spans nest under the parent's open span path
            assert {p: s.count for p, s in parallel.spans.items()} == {
                p: s.count for p, s in serial.spans.items()
            }

    def test_merged_histograms_equal_single_process_run(self):
        serial, _ = self._run(workers=1)
        parallel, _ = self._run(workers=3)
        assert set(parallel.histograms) >= set(serial.histograms)
        for name, hist in serial.histograms.items():
            merged = parallel.histograms[name]
            assert merged.count == hist.count, name
            assert merged.total == hist.total, name
            assert merged.minimum == hist.minimum, name
            assert merged.maximum == hist.maximum, name

    def test_pool_bookkeeping_counters_present(self):
        from repro.obs import names

        parallel, _ = self._run(workers=3)
        tasks = parallel.counter(names.DECOMP_PARALLEL_TASKS)
        assert tasks >= 1
        per_worker = parallel.histograms[names.DECOMP_PARALLEL_WORKERS]
        assert 1 <= per_worker.count <= 3  # one observation per worker pid
        assert per_worker.total == tasks
        chunks = parallel.counter(names.DECOMP_PARALLEL_CHUNKS)
        assert 1 <= chunks <= tasks  # chunks batch tasks, never split them

    def test_worker_peel_events_absorbed_coherently(self):
        import os

        from repro.obs import names

        _, events = self._run(workers=3)
        peels = [e for e in events if e.name == names.TRACE_PEEL_FIXED_K]
        assert peels, "worker peel spans must be shipped back"
        # one peel event per k-array, all joined to one trace
        assert len({e.trace_id for e in peels}) == 1
        assert any(e.pid != os.getpid() for e in peels)
        for event in peels:
            assert event.attrs["k"] >= 1
            assert event.dur >= 0.0

    def test_no_orphan_parents_after_merge(self):
        _, events = self._run(workers=3)
        span_ids = {e.span_id for e in events}
        assert len(span_ids) == len(events)  # ids never collide across pids
        for event in events:
            if event.parent_id is not None:
                assert event.parent_id in span_ids
