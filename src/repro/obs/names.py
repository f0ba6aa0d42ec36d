"""Canonical metric names recorded by the instrumented hot paths.

One module owns every counter/histogram/span name so the catalog in
``docs/observability.md``, the tests, and the recording sites cannot
drift apart.  Names are dotted paths: the first segment is the subsystem
(``kcore``, ``kpcore``, ``decomp``, ``maintenance``, ``index``,
``service``), the rest describes the quantity.

Counters count *operations* (monotone integers), histograms summarize
*values* (window widths, answer sizes, subcore sizes), and spans measure
nested wall-clock sections; every span also lands in the collector's
trace-event buffer, so one catalog covers both views.
"""

from __future__ import annotations

__all__ = ["COUNTERS", "HISTOGRAMS", "SPANS", "catalog"]

# ----------------------------------------------------------------------
# k-core peeling (repro.kcore.compute) — Algorithm 1's engine
# ----------------------------------------------------------------------
KCORE_PEEL_CALLS = "kcore.peel.calls"
KCORE_PEEL_PEELED = "kcore.peel.vertices_peeled"
KCORE_PEEL_SURVIVORS = "kcore.peel.survivors"
KCORE_PEEL_EDGE_SCANS = "kcore.peel.edge_scans"
KCORE_PEEL_INITIAL_VIOLATORS = "kcore.peel.initial_violators"

# ----------------------------------------------------------------------
# core decomposition (repro.kcore.decomposition) — Batagelj–Zaveršnik
# ----------------------------------------------------------------------
KCORE_DECOMP_CALLS = "kcore.decomp.calls"
KCORE_DECOMP_EDGE_SCANS = "kcore.decomp.edge_scans"
KCORE_DECOMP_BUCKET_MOVES = "kcore.decomp.bucket_moves"

# ----------------------------------------------------------------------
# (k,p)-core computation (repro.core.kpcore) — Algorithm 1
# ----------------------------------------------------------------------
KPCORE_CALLS = "kpcore.calls"
KPCORE_THRESHOLDS_TOTAL = "kpcore.thresholds.total"
KPCORE_THRESHOLDS_FRACTION_DOMINANT = "kpcore.thresholds.fraction_dominant"
KPCORE_SPAN = "kpcore"
KPCORE_SPAN_SNAPSHOT = "snapshot"
KPCORE_SPAN_PEEL = "peel"

# ----------------------------------------------------------------------
# (k,p)-core decomposition (repro.core.decomposition) — Algorithm 2
# ----------------------------------------------------------------------
DECOMP_ROUNDS = "decomp.rounds"
DECOMP_PEELS = "decomp.peels"
DECOMP_REKEYS = "decomp.threshold_recomputations"
DECOMP_FLAT_MOVES = "decomp.flat.moves"
DECOMP_FLAT_RANK_SKIPS = "decomp.flat.rank_skips"
DECOMP_FLAT_LEVELS = "decomp.flat.levels"
DECOMP_ARRAY_SIZE = "decomp.array_size"
DECOMP_SPAN = "kp_decomposition"
DECOMP_SPAN_CORE_NUMBERS = "core_numbers"
DECOMP_SPAN_SORT = "sort_neighbors"
DECOMP_SPAN_PEEL = "peel_all_k"

# ----------------------------------------------------------------------
# KP-Index maintenance (repro.core.maintenance) — Algorithms 4/5 for a
# single op, full re-peels for a multi-op batch: the skip theorems count,
# the windows are histograms
# ----------------------------------------------------------------------
MAINT_THM2_SKIPS = "maintenance.thm2.arrays_skipped"
MAINT_THM6_SKIPS = "maintenance.thm6.arrays_skipped"
MAINT_THM7_SKIPS = "maintenance.thm7.arrays_skipped"
MAINT_ARRAYS_EXAMINED = "maintenance.arrays_examined"
MAINT_ARRAYS_REPEELED = "maintenance.arrays_repeeled"
MAINT_VERTICES_REPEELED = "maintenance.vertices_repeeled"
MAINT_PNUMBERS_CHANGED = "maintenance.pnumbers_changed"
MAINT_EARLY_STOPS = "maintenance.early_stops"
MAINT_PEEL_STATE_BUILDS = "maintenance.peel_state_builds"
MAINT_WINDOW_WIDTH = "maintenance.window_width"
MAINT_WINDOW_P_MINUS = "maintenance.window_p_minus"
MAINT_WINDOW_P_PLUS = "maintenance.window_p_plus"
MAINT_SPAN_INSERT = "maintenance.insert_edge"
MAINT_SPAN_DELETE = "maintenance.delete_edge"
MAINT_SPAN_BATCH = "maintenance.apply_batch"
MAINT_BATCH_BATCHES = "maintenance.batch.batches"
MAINT_BATCH_UPDATES = "maintenance.batch.updates"
MAINT_BATCH_CANCELLED = "maintenance.batch.cancelled_pairs"
MAINT_BATCH_ARRAYS = "maintenance.batch.arrays_repeeled"
MAINT_BATCH_WINDOW_UNIONS = "maintenance.batch.window_unions"
MAINT_BATCH_FULL_REPEELS = "maintenance.batch.full_repeels"

# ----------------------------------------------------------------------
# KP-Index queries (repro.core.index) — Algorithm 3
# ----------------------------------------------------------------------
INDEX_QUERIES = "index.queries"
INDEX_EMPTY_QUERIES = "index.empty_queries"
INDEX_VERTICES_TOUCHED = "index.vertices_touched"
INDEX_ANSWER_SIZE = "index.answer_size"
INDEX_LEVELS_SEARCHED = "index.levels_searched"
INDEX_SLICE_REBUILDS = "index.slice_rebuilds"

# ----------------------------------------------------------------------
# durable index service (repro.service) — checkpoints, journal, recovery
# ----------------------------------------------------------------------
SERVICE_CHECKPOINTS = "service.checkpoints"
SERVICE_JOURNAL_RECORDS = "service.journal_records"
SERVICE_REPLAYED = "service.replayed"
SERVICE_RECOVERIES = "service.recoveries"

# ----------------------------------------------------------------------
# concurrent query server (repro.service.server) — versioned result cache
# ----------------------------------------------------------------------
SERVER_QUERIES = "service.server.queries"
SERVER_CACHE_HITS = "service.cache.hits"
SERVER_CACHE_MISSES = "service.cache.misses"
SERVER_CACHE_INVALIDATIONS = "service.cache.invalidations"
SERVER_CACHE_EVICTIONS = "service.cache.evictions"
SERVER_CACHE_ADMISSION_REJECTS = "service.cache.admission_rejects"
SERVER_BATCH_SIZE = "service.server.batch_size"

# ----------------------------------------------------------------------
# incremental core maintenance (repro.kcore.maintenance)
# ----------------------------------------------------------------------
KCORE_MAINT_SUBCORE_SIZE = "kcore.maint.subcore_size"
KCORE_MAINT_PROMOTED = "kcore.maint.promoted"
KCORE_MAINT_DEMOTED = "kcore.maint.demoted"

# ----------------------------------------------------------------------
# per-request spans — the server's request roots, lock scopes, cache
# probes and answer builds, and the per-k peel timings
# ----------------------------------------------------------------------
TRACE_COMMAND = "trace.command"
TRACE_SERVER_QUERY = "trace.server.query"
TRACE_SERVER_QUERY_MANY = "trace.server.query_many"
TRACE_SERVER_QUERY_ONE = "trace.server.query_one"
TRACE_SERVER_APPLY = "trace.server.apply"
TRACE_SERVER_INSERT = "trace.server.insert_edge"
TRACE_SERVER_DELETE = "trace.server.delete_edge"
TRACE_SERVER_CHECKPOINT = "trace.server.checkpoint"
TRACE_LOCK_READ_WAIT = "trace.lock.read.wait"
TRACE_LOCK_READ_HOLD = "trace.lock.read.hold"
TRACE_LOCK_WRITE_WAIT = "trace.lock.write.wait"
TRACE_LOCK_WRITE_HOLD = "trace.lock.write.hold"
TRACE_CACHE_PROBE = "trace.cache.probe"
TRACE_CACHE_FILL = "trace.cache.fill"
TRACE_CACHE_PURGE = "trace.cache.purge"
TRACE_QUERY_ANSWER = "trace.query.answer"
TRACE_PEEL_FIXED_K = "trace.peel.fixed_k"

#: name -> one-line description, grouped by kind, for the docs and report
COUNTERS: dict[str, str] = {
    KCORE_PEEL_CALLS: "threshold-peel invocations (kCoreComp/kpCoreComp)",
    KCORE_PEEL_PEELED: "vertices deleted by threshold peeling",
    KCORE_PEEL_SURVIVORS: "vertices surviving threshold peeling",
    KCORE_PEEL_EDGE_SCANS: "adjacency entries scanned while peeling (<= 2m)",
    KCORE_PEEL_INITIAL_VIOLATORS: "vertices below threshold before peeling",
    KCORE_DECOMP_CALLS: "bucket core-decomposition invocations",
    KCORE_DECOMP_EDGE_SCANS: "adjacency entries scanned by the bucket peel (= 2m)",
    KCORE_DECOMP_BUCKET_MOVES: "bucket demotions (= sum deg(v) - cn(v))",
    KPCORE_CALLS: "kpCore (Algorithm 1) invocations",
    KPCORE_THRESHOLDS_TOTAL: "combined thresholds computed (Alg. 1 line 1)",
    KPCORE_THRESHOLDS_FRACTION_DOMINANT: "thresholds where ceil(p*deg) > k",
    DECOMP_ROUNDS: "fixed-k peels run by Algorithm 2 (one per k)",
    DECOMP_PEELS: "peel operations across all k (O(d*m) claim)",
    DECOMP_REKEYS: "fraction re-keys after a neighbour deletion "
    "(round-end re-parks plus cascade kills)",
    DECOMP_FLAT_MOVES: "vertex re-parks into a lower rank chain "
    "(batched to one park per vertex per round)",
    DECOMP_FLAT_RANK_SKIPS: "rank-cursor steps over empty/stale chains",
    MAINT_THM2_SKIPS: "A_k skipped per single-op insert: k above both new core numbers",
    MAINT_THM6_SKIPS: "A_k skipped: empty [p_-, p_+] window certifies no change (Theorem 6)",
    MAINT_THM7_SKIPS: "A_k skipped per single-op delete: k above both old core numbers",
    MAINT_ARRAYS_EXAMINED: "arrays examined across all updates",
    MAINT_ARRAYS_REPEELED: "arrays actually re-peeled (not skipped)",
    MAINT_VERTICES_REPEELED: "vertices re-peeled across all arrays",
    MAINT_PNUMBERS_CHANGED: "A_k entries whose p-number a re-peel changed (joins and leaves included)",
    MAINT_EARLY_STOPS: "re-peels stopped early at p_+ (Thms. 4/9)",
    MAINT_PEEL_STATE_BUILDS: "window peel-state builds plus rank-ladder rebuilds (a degree the ladder never held)",
    MAINT_BATCH_BATCHES: "apply_batch calls (one coalesced batch each)",
    MAINT_BATCH_UPDATES: "net updates applied through apply_batch",
    MAINT_BATCH_CANCELLED: "insert+delete pairs cancelled by coalescing",
    MAINT_BATCH_ARRAYS: "arrays re-peeled once per batch (windowed + full)",
    MAINT_BATCH_WINDOW_UNIONS: "arrays apply_batch re-peeled through a [p_-, p_+] window (one-op batches only)",
    MAINT_BATCH_FULL_REPEELS: "arrays apply_batch re-peeled in full (every reached array of a multi-op batch)",
    INDEX_QUERIES: "KP-Index queries answered (Algorithm 3)",
    INDEX_EMPTY_QUERIES: "queries whose answer was empty",
    INDEX_VERTICES_TOUCHED: "vertices returned across all queries",
    INDEX_SLICE_REBUILDS: "per-(k, level) answer slices materialized (lazy, reset on array mutation)",
    SERVICE_CHECKPOINTS: "durable checkpoints written (graph + index + manifest)",
    SERVICE_JOURNAL_RECORDS: "write-ahead journal records appended",
    SERVICE_REPLAYED: "journal records replayed during recovery",
    SERVICE_RECOVERIES: "recoveries from persisted state (checkpoint and/or journal)",
    SERVER_QUERIES: "queries answered by the concurrent server (cached or not)",
    SERVER_CACHE_HITS: "server queries served from the versioned result cache",
    SERVER_CACHE_MISSES: "server queries that had to run Algorithm 3",
    SERVER_CACHE_INVALIDATIONS: "cache entries dropped because their A_k version moved",
    SERVER_CACHE_EVICTIONS: "cache entries evicted by the LRU capacity bound",
    SERVER_CACHE_ADMISSION_REJECTS: "answers below min_answer_size denied cache admission",
    KCORE_MAINT_PROMOTED: "vertices whose core number rose by an insert",
    KCORE_MAINT_DEMOTED: "vertices whose core number fell by a delete",
}

HISTOGRAMS: dict[str, str] = {
    DECOMP_ARRAY_SIZE: "per-k array size |V_k| built by Algorithm 2",
    DECOMP_FLAT_LEVELS: "distinct fraction levels in the global flat ladder",
    MAINT_WINDOW_WIDTH: "recomputed p-number window widths p_+ - p_-",
    MAINT_WINDOW_P_MINUS: "window lower ends p_- (Thms. 3/5/8, Def. 7 witness)",
    MAINT_WINDOW_P_PLUS: "window upper ends p_+ (Thms. 4/9, one-hop cap)",
    INDEX_ANSWER_SIZE: "per-query answer sizes (Theorem 1 output bound)",
    INDEX_LEVELS_SEARCHED: "|P_k| binary-searched per query",
    SERVER_BATCH_SIZE: "queries per query_many batch on the concurrent server",
    KCORE_MAINT_SUBCORE_SIZE: "subcore sizes walked per core update",
}

SPANS: dict[str, str] = {
    KPCORE_SPAN: "one kpCore computation (with snapshot/peel children)",
    KPCORE_SPAN_SNAPSHOT: "compact adjacency snapshot build",
    KPCORE_SPAN_PEEL: "threshold peel over the snapshot",
    DECOMP_SPAN: "one full Algorithm 2 decomposition",
    DECOMP_SPAN_CORE_NUMBERS: "core numbers of the snapshot",
    DECOMP_SPAN_SORT: "neighbour sort by descending core number",
    DECOMP_SPAN_PEEL: "fixed-k peels for every k",
    MAINT_SPAN_INSERT: "one kpIndexInsert update",
    MAINT_SPAN_DELETE: "one kpIndexDelete update",
    MAINT_SPAN_BATCH: "one coalesced apply_batch (multi-update) application",
    TRACE_COMMAND: "root span of a `repro profile <cmd>` run",
    TRACE_SERVER_QUERY: "one KPCoreServer.query request",
    TRACE_SERVER_QUERY_MANY: "one KPCoreServer.query_many batch",
    TRACE_SERVER_QUERY_ONE: "one (k, p) pair inside a query_many batch",
    TRACE_SERVER_APPLY: "one KPCoreServer.apply update batch",
    TRACE_SERVER_INSERT: "one KPCoreServer.insert_edge update",
    TRACE_SERVER_DELETE: "one KPCoreServer.delete_edge update",
    TRACE_SERVER_CHECKPOINT: "one KPCoreServer.checkpoint",
    TRACE_LOCK_READ_WAIT: "time blocked acquiring the read lock (per site)",
    TRACE_LOCK_READ_HOLD: "time the read lock was held (per site)",
    TRACE_LOCK_WRITE_WAIT: "time blocked acquiring the write lock (per site)",
    TRACE_LOCK_WRITE_HOLD: "time the write lock was held (per site)",
    TRACE_CACHE_PROBE: "QueryCache lookup (hit or miss)",
    TRACE_CACHE_FILL: "QueryCache insert of a freshly computed answer",
    TRACE_CACHE_PURGE: "QueryCache invalidation of changed-version entries",
    TRACE_QUERY_ANSWER: "Algorithm 3 answer build on a cache miss",
    TRACE_PEEL_FIXED_K: "one fixed-k peel",
}


def catalog() -> dict[str, dict[str, str]]:
    """``{kind: {name: description}}`` — the documented metric surface."""
    return {
        "counters": dict(COUNTERS),
        "histograms": dict(HISTOGRAMS),
        "spans": dict(SPANS),
    }
