"""Per-layer metrics of a traced run.

Each entry names the end-to-end metric it should move.  Times are medians
over the benchmark operations that contain the span (``op.build``,
``op.update``, ``op.batch``, ``op.checkpoint``, ``op.recover``,
``op.query``), summed within one operation; counts come from the work
counters the program exposes.
"""

from __future__ import annotations

from statistics import median

from kpbench.stats import ratio
from kpbench.tracer import SpanIndex

BUILD, UPDATE, BATCH = ("op.build",), ("op.update",), ("op.batch",)
RECOVER, QUERY, CHECKPOINT = ("op.recover",), ("op.query",), ("op.checkpoint",)
MAINTAIN = ("core.maintain",)

#: name -> (unit, better, end-to-end metrics it should move)
LAYERS = {
    "graph.read_s": ("s", "lower", "build_s, recover_s"),
    "graph.csr_s": ("s", "lower", "build_s"),
    "graph.fingerprint_s": ("s", "lower", "build_s, checkpoint_s, recover_s"),
    "graph.write_edge_list_s": ("s", "lower", "checkpoint_s"),
    "kcore.core_numbers_s": ("s", "lower", "build_s"),
    "kcore.core_repair_ms": ("ms", "lower", "insert_ms, delete_ms"),
    "core.sort_s": ("s", "lower", "build_s"),
    "core.scratch_s": ("s", "lower", "build_s"),
    "core.peel_s": ("s", "lower", "build_s"),
    "core.peel_k_max_s": ("s", "lower", "build_s"),
    "core.index_s": ("s", "lower", "build_s"),
    "core.index_save_s": ("s", "lower", "build_s, checkpoint_s"),
    "core.index_load_s": ("s", "lower", "recover_s"),
    "core.peel_vertices": ("count", "lower", "build_s"),
    "core.index_bytes_per_edge": ("B", "lower", "build_s, checkpoint_s"),
    "core.maintain_ms": ("ms", "lower", "insert_ms, delete_ms, update_p90_ms"),
    "core.batch_ms": ("ms", "lower", "batch_update_ms"),
    "core.splice_ms": ("ms", "lower", "insert_ms, delete_ms"),
    "core.arrays_examined": ("count", "lower", "insert_ms, delete_ms"),
    "core.skip_ratio": ("ratio", "higher", "insert_ms, delete_ms"),
    "core.vertices_repeeled": ("count", "lower", "insert_ms, delete_ms"),
    "core.early_stop_ratio": ("ratio", "higher", "insert_ms, delete_ms"),
    "core.fallback_rebuilds": ("count", "lower", "insert_ms, delete_ms"),
    "core.windowed_repeels": ("count", "higher", "batch_update_ms"),
    "core.full_repeels": ("count", "lower", "batch_update_ms"),
    "core.cancelled_pairs": ("count", "higher", "batch_update_ms"),
    "core.answer_key_us": ("us", "lower", "query_us"),
    "core.slice_us": ("us", "lower", "query_p99_us"),
    "core.answer_size": ("count", "lower", "query_us"),
    "service.lock_read_us": ("us", "lower", "query_us"),
    "service.lock_write_wait_ms": ("ms", "lower", "insert_ms, delete_ms"),
    "service.lock_write_hold_ms": ("ms", "lower", "insert_ms, delete_ms"),
    "service.journal_append_us": ("us", "lower", "insert_ms, delete_ms, batch_update_ms"),
    "service.journal_fsync_ms": ("ms", "lower", "insert_ms, delete_ms, batch_update_ms"),
    "service.cache_get_us": ("us", "lower", "query_us"),
    "service.cache_put_us": ("us", "lower", "query_p99_us"),
    "service.cache_purge_us": ("us", "lower", "query_p99_us, insert_ms, delete_ms"),
    "service.journal_read_s": ("s", "lower", "recover_s"),
    "service.replay_s": ("s", "lower", "recover_s"),
    "service.replayed_records": ("count", "lower", "recover_s"),
    "service.cache_hit_rate": ("ratio", "higher", "query_us"),
    "service.cache_misses": ("count", "lower", "query_p99_us"),
    "service.cache_invalidations": ("count", "lower", "query_p99_us"),
    "service.cache_evictions": ("count", "lower", "query_p99_us"),
    "service.cache_admission_rejects": ("count", "lower", "query_p99_us"),
    "trace.overhead": ("ratio", "lower", "none: traced / untraced timed wall"),
}

#: Counts that must repeat exactly between two runs of one seed.
DETERMINISTIC = (
    "core.vertices_repeeled",
    "core.arrays_examined",
    "service.replayed_records",
    "service.cache_misses",
)


def _median(values: list, scale: float = 1.0) -> float:
    return median(values) * scale if values else 0.0


def compute(spans: SpanIndex, counts: dict, overhead: float) -> dict:
    """Every metric of :data:`LAYERS`, as ``{name: value}``."""
    t = spans.per_op
    maint = counts["maintenance"]
    updates = maint["insertions"] + maint["deletions"]
    reports = [r for r in spans.infos("op.batch", "core.apply_batch") if r is not None]
    cache = counts["cache"]
    read_sites = ("service.lock.read.acquire", "service.lock.read.release")
    values = {
        "graph.read_s": _median(t(BUILD + RECOVER, ("graph.read_edge_list",))),
        "graph.csr_s": _median(t(BUILD, ("graph.CompactAdjacency",))),
        "graph.fingerprint_s": _median(
            t(BUILD + CHECKPOINT + RECOVER, ("graph.fingerprint",))
        ),
        "graph.write_edge_list_s": _median(t(CHECKPOINT, ("graph.write_edge_list",))),
        "kcore.core_numbers_s": _median(t(BUILD, ("kcore.core_numbers_compact",))),
        "kcore.core_repair_ms": _median(t(UPDATE, ("kcore.core_repair",)), 1e3),
        "core.sort_s": _median(t(BUILD, ("core.sort",))),
        "core.scratch_s": _median(t(BUILD, ("core.make_scratch",))),
        "core.peel_s": _median(t(BUILD, ("core.peel",))),
        "core.peel_k_max_s": _median(spans.per_op_max("op.build", "core.peel")),
        "core.index_s": _median(t(BUILD, ("core.index_from_decomposition",))),
        "core.index_save_s": _median(t(BUILD, ("core.index_save",))),
        "core.index_load_s": _median(t(RECOVER, ("core.index_load",))),
        "core.peel_vertices": counts["peel_vertices"],
        "core.index_bytes_per_edge": counts["index_bytes_per_edge"],
        "core.maintain_ms": _median(t(UPDATE, MAINTAIN, self_time=True), 1e3),
        "core.batch_ms": _median(t(BATCH, ("core.apply_batch",), self_time=True), 1e3),
        "core.splice_ms": _median(t(UPDATE, ("core.splice",)), 1e3),
        "core.arrays_examined": ratio(maint["arrays_examined"], updates),
        "core.skip_ratio": ratio(maint["arrays_skipped_theorem6"], maint["arrays_examined"]),
        "core.vertices_repeeled": ratio(maint["vertices_repeeled"], updates),
        "core.early_stop_ratio": ratio(maint["early_stops"], maint["arrays_updated"]),
        "core.fallback_rebuilds": ratio(maint["fallback_rebuilds"], updates),
        "core.windowed_repeels": ratio(sum(r.windowed_repeels for r in reports), len(reports)),
        "core.full_repeels": ratio(sum(r.full_repeels for r in reports), len(reports)),
        "core.cancelled_pairs": ratio(sum(r.cancelled_pairs for r in reports), len(reports)),
        "core.answer_key_us": _median(t(QUERY, ("core.answer_key",)), 1e6),
        "core.slice_us": _median(t(QUERY, ("core.query_slice",)), 1e6),
        "core.answer_size": counts["answer_size"],
        "service.lock_read_us": _median(t(QUERY, read_sites), 1e6),
        "service.lock_write_wait_ms": _median(t(UPDATE, ("service.lock.write.acquire",)), 1e3),
        "service.lock_write_hold_ms": _median(t(UPDATE, ("service.lock.write.hold",)), 1e3),
        "service.journal_append_us": _median(t(UPDATE, ("service.journal_append",)), 1e6),
        "service.journal_fsync_ms": _median(t(UPDATE + BATCH, ("service.journal_commit",)), 1e3),
        "service.cache_get_us": _median(t(QUERY, ("service.cache_get",)), 1e6),
        "service.cache_put_us": _median(t(QUERY, ("service.cache_put",)), 1e6),
        "service.cache_purge_us": _median(t(UPDATE + BATCH, ("service.cache_purge",)), 1e6),
        "service.journal_read_s": _median(t(RECOVER, ("service.read_journal",))),
        "service.replay_s": _median(
            t(RECOVER, ("core.maintain", "core.apply_batch"))
        ),
        "service.replayed_records": counts["replayed_records"],
        "service.cache_hit_rate": cache["hit_rate"],
        "service.cache_misses": cache["misses"],
        "service.cache_invalidations": cache["invalidations"],
        "service.cache_evictions": cache["evictions"],
        "service.cache_admission_rejects": cache["admission_rejects"],
        "trace.overhead": overhead,
    }
    assert set(values) == set(LAYERS)
    return values
