"""Concurrent query serving with a version-keyed result cache.

:class:`KPCoreServer` turns a :class:`~repro.service.durable.
DurableMaintainer` into a thread-safe serving surface:

* **Reader-writer lock** — any number of query threads proceed
  concurrently; :meth:`apply` / :meth:`insert_edge` / :meth:`delete_edge`
  / :meth:`checkpoint` take exclusive access.  The lock is
  writer-preferring so a steady query stream cannot starve updates.
* **Versioned result cache** — every ``A_k`` carries a monotonic version
  counter (see :meth:`~repro.core.index.KPIndex.version`) that the
  maintenance layer bumps exactly when it mutates the array.  Answers
  are cached under ``(k, level)`` — the float ``p`` is resolved to its
  canonical grid level once via
  :meth:`~repro.core.index.KPIndex.level_index`, so ``0.3`` and a
  grid-produced ``0.30000000000000004`` share one entry — together with
  the version they were computed at; the theorem-driven skip logic of
  Algorithms 4/5 (Thms. 2, 6, 7) therefore doubles as the
  cache-invalidation oracle: an update that provably leaves ``A_k``
  untouched leaves its cached answers serving.  After each write the
  server eagerly purges every entry whose version moved, so the cache
  never *holds* a stale answer, not merely never serves one.
* **Stored-tuple answers** — :meth:`query` / :meth:`query_many` return
  ``Sequence[Vertex]``: the index's precomputed per-level slice tuple
  (or the cached reference to it), never a per-query list rebuild.  No
  list materialization happens while the read lock is held; callers
  that need a mutable list call ``list(...)`` outside the lock.
* **Cache admission control** — answers smaller than
  ``min_answer_size`` are not admitted (tiny answers are cheaper to
  re-fetch from the slice store than to LRU-shuffle past large ones);
  rejects are counted as ``service.cache.admission_rejects``.  The
  default ``min_answer_size=0`` admits everything.
* **Batch queries** — :meth:`query_many` answers a list of ``(k, p)``
  pairs under a single read-lock acquisition.

Consistency guarantees under concurrency:

* A query observes the index state at some write boundary (reads hold
  the read lock across version capture, compute, and cache fill — no
  torn answers).
* A cached entry is served only while ``entry.version ==
  index.version(k)``; both are read under the same read lock.

The cache is in-memory state of the server, not of the durable
directory: restarts begin cold (and versions restart at 0, which is
consistent because the cache restarts empty too).  Metric collection
(``REPRO_OBS=1``) records ``service.cache.hits`` / ``.misses`` /
``.invalidations`` / ``.evictions`` and ``service.server.queries``;
see ``docs/serving.md`` and ``docs/observability.md``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import ParameterError
from repro.graph.adjacency import Vertex
from repro.core.index import KPIndex
from repro.core.peel_engines import DEFAULT_ENGINE
from repro.core.pvalue import check_p
from repro.obs import names as metric
from repro.obs.instrumentation import Instrumentation, Span, get_collector, maybe_span
from repro.service.durable import ApplyReport, DurableMaintainer
from repro.service.stream import UpdateOp

__all__ = [
    "RWLock",
    "CacheStats",
    "QueryCache",
    "KPCoreServer",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_MIN_ANSWER_SIZE",
]

DEFAULT_CACHE_SIZE = 4096
DEFAULT_MIN_ANSWER_SIZE = 0


class RWLock:
    """A writer-preferring readers-writer lock.

    Many readers may hold the lock at once; a writer waits for active
    readers to drain and blocks new readers while it waits (otherwise a
    busy query stream would starve updates forever).  Not reentrant: a
    thread must not acquire the write lock while holding the read lock
    (or vice versa).

    When collection is on (``REPRO_OBS=1``), each acquisition records a
    ``trace.lock.*.wait`` event (time blocked before entry) and wraps
    the scope body in a ``trace.lock.*.hold`` span, both attributed to
    the caller-supplied ``site`` label — the data behind the lock-wait /
    lock-hold buckets of the attribution table.  With collection off,
    the cost is one cached ``None`` check per acquisition.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def _acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def _release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def _acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def _release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self, site: str = "") -> Iterator[None]:
        obs = get_collector()
        if obs is None:
            self._acquire_read()
            try:
                yield
            finally:
                self._release_read()
            return
        wait_start = time.perf_counter()
        self._acquire_read()
        obs.record(
            metric.TRACE_LOCK_READ_WAIT,
            wait_start,
            time.perf_counter(),
            site=site,
        )
        try:
            with obs.span(metric.TRACE_LOCK_READ_HOLD, site=site):
                yield
        finally:
            self._release_read()

    @contextmanager
    def write_locked(self, site: str = "") -> Iterator[None]:
        obs = get_collector()
        if obs is None:
            self._acquire_write()
            try:
                yield
            finally:
                self._release_write()
            return
        wait_start = time.perf_counter()
        self._acquire_write()
        obs.record(
            metric.TRACE_LOCK_WRITE_WAIT,
            wait_start,
            time.perf_counter(),
            site=site,
        )
        try:
            with obs.span(metric.TRACE_LOCK_WRITE_HOLD, site=site):
                yield
        finally:
            self._release_write()


@dataclass(frozen=True)
class CacheStats:
    """Counters of one :class:`QueryCache` (and so of its server)."""

    hits: int
    misses: int
    invalidations: int
    evictions: int
    admission_rejects: int
    size: int
    capacity: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class QueryCache:
    """LRU cache of answers keyed ``(k, level)``, guarded by versions.

    Keys are canonical integer grid levels (see
    :meth:`~repro.core.index.KPIndex.level_index`), not raw float
    ``p`` values — every float spelling of one level shares one entry.
    Each entry stores the ``A_k`` version it was computed at.  A lookup
    hits only when the stored version equals the current one; a lookup
    that finds an outdated entry drops it (counted as an invalidation)
    and reports a miss.  :meth:`purge_k` drops every entry of one ``k``
    — the eager path the server runs for each array an update actually
    mutated.  Answers shorter than ``min_answer_size`` are refused
    admission (counted as ``admission_rejects``): re-fetching a tiny
    answer from the index's slice store costs about as much as a cache
    hit, so letting it in only churns the LRU order against answers
    that are worth keeping.  All operations take the internal mutex, so
    concurrent readers may share one cache (the LRU reordering is a
    mutation even on the hit path).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_SIZE,
        min_answer_size: int = DEFAULT_MIN_ANSWER_SIZE,
    ) -> None:
        if capacity < 1:
            raise ParameterError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        if min_answer_size < 0:
            raise ParameterError(
                f"min_answer_size must be >= 0, got {min_answer_size}"
            )
        self.capacity = capacity
        self.min_answer_size = min_answer_size
        self._mutex = threading.Lock()
        # (k, level) -> (version, answer); insertion order = LRU order.
        self._entries: OrderedDict[
            tuple[int, int], tuple[int, tuple[Vertex, ...]]
        ] = OrderedDict()
        # k -> set of cached levels, for O(|entries of k|) purges.
        self._by_k: dict[int, set[int]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.admission_rejects = 0

    def get(
        self, k: int, level: int, version: int
    ) -> tuple[Vertex, ...] | None:
        """The cached answer for ``(k, level)`` at exactly ``version``."""
        obs = get_collector()
        if obs is None:
            # Uninstrumented hit fast path, duplicated from _get to skip
            # one call frame — see _get for why it is safe without the
            # lock.
            key = (k, level)
            entry = self._entries.get(key)
            if entry is not None and entry[0] == version:
                try:
                    self._entries.move_to_end(key)
                except KeyError:
                    pass  # concurrently evicted; the answer stays fresh
                self.hits += 1
                return entry[1]
            return self._get(k, level, version, None)
        start = time.perf_counter()
        cached = self._get(k, level, version, obs)
        obs.record(
            metric.TRACE_CACHE_PROBE,
            start,
            time.perf_counter(),
            k=k,
            level=level,
            hit=cached is not None,
        )
        return cached

    def _get(
        self, k: int, level: int, version: int, obs: Instrumentation | None
    ) -> tuple[Vertex, ...] | None:
        # Lock-free hit path: C-implemented OrderedDict ops are atomic
        # under the GIL, the entry tuple is immutable, and purges run
        # under the server's exclusive write lock (no concurrent
        # readers then).  The only race left is a concurrent _put
        # evicting the key between the get and the move_to_end — caught
        # below; the already-fetched answer stays valid.  The mutex is
        # reserved for the mutating slow paths (fill, invalidate,
        # purge), which keeps a hit cheaper than recomputing the answer
        # slice — the whole economic case for this cache.  `hits` may
        # undercount by a hair under reader races; it is a statistic,
        # not a correctness input.
        key = (k, level)
        entry = self._entries.get(key)
        if entry is not None and entry[0] == version:
            try:
                self._entries.move_to_end(key)
            except KeyError:
                pass  # concurrently evicted; the answer is still fresh
            self.hits += 1
            if obs is not None:
                obs.inc(metric.SERVER_CACHE_HITS)
            return entry[1]
        with self._mutex:
            stale = self._entries.get(key)
            if stale is not None and stale[0] != version:
                # Outdated leftover (the eager purge runs under the write
                # lock, so this is only reachable through direct cache
                # use); drop it rather than let it linger.
                self._drop(k, level)
                self.invalidations += 1
                if obs is not None:
                    obs.inc(metric.SERVER_CACHE_INVALIDATIONS)
            self.misses += 1
            if obs is not None:
                obs.inc(metric.SERVER_CACHE_MISSES)
            return None

    def put(
        self, k: int, level: int, version: int, answer: tuple[Vertex, ...]
    ) -> None:
        obs = get_collector()
        if obs is None:
            self._put(k, level, version, answer, None)
            return
        start = time.perf_counter()
        admitted = self._put(k, level, version, answer, obs)
        obs.record(
            metric.TRACE_CACHE_FILL,
            start,
            time.perf_counter(),
            k=k,
            level=level,
            answer_size=len(answer),
            admitted=admitted,
        )

    def _put(
        self,
        k: int,
        level: int,
        version: int,
        answer: tuple[Vertex, ...],
        obs: Instrumentation | None,
    ) -> bool:
        with self._mutex:
            if len(answer) < self.min_answer_size:
                self.admission_rejects += 1
                if obs is not None:
                    obs.inc(metric.SERVER_CACHE_ADMISSION_REJECTS)
                return False
            key = (k, level)
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (version, answer)
            self._by_k.setdefault(k, set()).add(level)
            while len(self._entries) > self.capacity:
                (old_k, old_level), _ = self._entries.popitem(last=False)
                self._discard_by_k(old_k, old_level)
                self.evictions += 1
                if obs is not None:
                    obs.inc(metric.SERVER_CACHE_EVICTIONS)
            return True

    def purge_k(self, k: int) -> int:
        """Drop every entry of ``k``; returns how many were dropped."""
        obs = get_collector()
        if obs is None:
            return self._purge_k(k, None)
        start = time.perf_counter()
        dropped = self._purge_k(k, obs)
        obs.record(
            metric.TRACE_CACHE_PURGE,
            start,
            time.perf_counter(),
            k=k,
            dropped=dropped,
        )
        return dropped

    def _purge_k(self, k: int, obs: Instrumentation | None) -> int:
        with self._mutex:
            levels = self._by_k.pop(k, None)
            if not levels:
                return 0
            for level in levels:
                self._entries.pop((k, level), None)
            dropped = len(levels)
            self.invalidations += dropped
            if obs is not None:
                obs.add(metric.SERVER_CACHE_INVALIDATIONS, dropped)
            return dropped

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
            self._by_k.clear()

    def _drop(self, k: int, level: int) -> None:
        self._entries.pop((k, level), None)
        self._discard_by_k(k, level)

    def _discard_by_k(self, k: int, level: int) -> None:
        levels = self._by_k.get(k)
        if levels is not None:
            levels.discard(level)
            if not levels:
                del self._by_k[k]

    def contents(self) -> dict[tuple[int, int], int]:
        """``{(k, level): version}`` of everything cached (tests/debug)."""
        with self._mutex:
            return {key: entry[0] for key, entry in self._entries.items()}

    def stats(self) -> CacheStats:
        with self._mutex:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                invalidations=self.invalidations,
                evictions=self.evictions,
                admission_rejects=self.admission_rejects,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)


class KPCoreServer:
    """Thread-safe (k,p)-core query serving over a durable index.

    Parameters
    ----------
    durable:
        The :class:`~repro.service.durable.DurableMaintainer` to serve
        from.  The server takes ownership of its write path: route every
        update through :meth:`apply` / :meth:`insert_edge` /
        :meth:`delete_edge` (writing to ``durable`` directly would bypass
        both the write lock and the cache purge).
    cache_size:
        Capacity of the LRU result cache.
    cache_enabled:
        ``False`` serves every query straight from Algorithm 3 — the
        ablation/soak configuration.
    min_answer_size:
        Admission threshold: answers with fewer vertices than this are
        served but never cached (see :class:`QueryCache`).  ``0`` (the
        default) admits everything.
    """

    def __init__(
        self,
        durable: DurableMaintainer,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_enabled: bool = True,
        min_answer_size: int = DEFAULT_MIN_ANSWER_SIZE,
    ) -> None:
        self._durable = durable
        # The maintainer's index object is stable for the server's
        # lifetime (updates mutate it in place); binding it here skips
        # two property hops per query on the hot path.
        self._index = durable.index
        self._lock = RWLock()
        self._cache: QueryCache | None = (
            QueryCache(cache_size, min_answer_size=min_answer_size)
            if cache_enabled
            else None
        )
        self._queries = 0
        self._queries_mutex = threading.Lock()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def durable(self) -> DurableMaintainer:
        return self._durable

    @property
    def index(self) -> KPIndex:
        return self._index

    @property
    def cache_enabled(self) -> bool:
        return self._cache is not None

    @property
    def queries_served(self) -> int:
        with self._queries_mutex:
            return self._queries

    def cache_stats(self) -> CacheStats:
        """Counters of the result cache (all-zero when disabled)."""
        if self._cache is None:
            return CacheStats(
                hits=0, misses=0, invalidations=0, evictions=0,
                admission_rejects=0, size=0, capacity=0,
            )
        return self._cache.stats()

    def cache_contents(self) -> dict[tuple[int, int], int]:
        """``{(k, level): version}`` of the live cache (tests/debug)."""
        if self._cache is None:
            return {}
        return self._cache.contents()

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------
    @staticmethod
    def _validate(k: int, p: float) -> None:
        if k < 1:
            raise ParameterError(
                f"degree threshold k must be >= 1, got {k}"
            )
        check_p(p)

    def query(self, k: int, p: float) -> Sequence[Vertex]:
        """Vertices of ``C_{k,p}`` on the current graph, cache-assisted.

        Returns the index's stored answer tuple (possibly via the
        cache) — treat it as immutable and ``list(...)`` it outside the
        lock if a mutable copy is needed.  Validation runs before the
        cache is consulted, so out-of-range parameters raise
        (:class:`~repro.errors.ParameterError`) rather than ever
        touching — or poisoning — the cache.
        """
        self._validate(k, p)
        with self._queries_mutex:
            self._queries += 1
        obs = get_collector()
        if obs is None:
            with self._lock.read_locked(site="query"):
                return self._answer_locked(k, p)
        obs.inc(metric.SERVER_QUERIES)
        with obs.span(metric.TRACE_SERVER_QUERY, k=k, p=p) as span:
            with self._lock.read_locked(site="query"):
                return self._answer_locked(k, p, span)

    def query_many(
        self, pairs: Sequence[tuple[int, float]]
    ) -> list[Sequence[Vertex]]:
        """Answer many ``(k, p)`` queries under one read-lock hold.

        All pairs are validated up front; the batch is all-or-nothing
        with respect to validation.  Every answer in the returned list
        is a stored tuple (see :meth:`query`) reflecting the same index
        state (no write interleaves mid-batch).
        """
        for k, p in pairs:
            self._validate(k, p)
        with self._queries_mutex:
            self._queries += len(pairs)
        obs = get_collector()
        if obs is None:
            with self._lock.read_locked(site="query_many"):
                return [self._answer_locked(k, p) for k, p in pairs]
        obs.observe(metric.SERVER_BATCH_SIZE, len(pairs))
        obs.inc(metric.SERVER_QUERIES, len(pairs))
        with obs.span(metric.TRACE_SERVER_QUERY_MANY, pairs=len(pairs)):
            with self._lock.read_locked(site="query_many"):
                answers: list[Sequence[Vertex]] = []
                for k, p in pairs:
                    with obs.span(
                        metric.TRACE_SERVER_QUERY_ONE, k=k, p=p
                    ) as span:
                        answers.append(self._answer_locked(k, p, span))
                return answers

    def _answer_locked(
        self, k: int, p: float, span: Span | None = None
    ) -> Sequence[Vertex]:
        # The served-queries counter and obs bump happen once per entry
        # point (query / query_many batch), not here: a mutex hold per
        # answer on the batched read path cost more than a cache hit.
        # ``span`` is the open request span when collection is on.
        cache = self._cache
        if cache is None:
            answer = self._answer_built(k, p)
            if span is not None:
                span.set("cache_hit", False)
                span.set("answer_size", len(answer))
            return answer
        version, level = self._index.answer_key(k, p)
        cached = cache.get(k, level, version)
        if cached is not None:
            if span is not None:
                span.set("version", version)
                span.set("cache_hit", True)
                span.set("answer_size", len(cached))
            return cached
        answer = self._answer_built(k, p)
        cache.put(k, level, version, answer)
        if span is not None:
            span.set("version", version)
            span.set("cache_hit", False)
            span.set("answer_size", len(answer))
        return answer

    def _answer_built(self, k: int, p: float) -> tuple[Vertex, ...]:
        """Fetch the stored answer slice for a miss, under a
        ``trace.query.answer`` span when collection is on."""
        obs = get_collector()
        if obs is None:
            return self._durable.query_slice(k, p)
        with obs.span(metric.TRACE_QUERY_ANSWER, k=k, p=p) as span:
            answer = self._durable.query_slice(k, p)
            span.set("answer_size", len(answer))
            return answer

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def apply(self, updates: Iterable[UpdateOp]) -> ApplyReport:
        """Apply an update batch under the write lock, then purge.

        Delegates to :meth:`DurableMaintainer.apply` (write-ahead
        journaling, periodic checkpoints, the configured error policy)
        and afterwards — still exclusively — drops every cache entry
        whose ``A_k`` version moved.  The purge runs even when the batch
        raises under ``ErrorPolicy.FAIL``: whatever prefix was applied
        has mutated the index for good.
        """
        with maybe_span(metric.TRACE_SERVER_APPLY):
            with self._lock.write_locked(site="apply"):
                before = self.index.versions()
                try:
                    # The WAL contract *requires* journal+fsync inside
                    # the exclusive section: it must be ordered with the
                    # mutation it logs.  noqa KP012: blocking by design.
                    return self._durable.apply(updates)  # noqa: KP012 WAL ordering
                finally:
                    self._purge_changed(before)

    def apply_batch(
        self,
        updates: Iterable[UpdateOp],
        *,
        engine: str = DEFAULT_ENGINE,
        workers: int = 1,
    ) -> ApplyReport:
        """Apply a coalesced batch under one write-lock hold.

        Delegates to :meth:`DurableMaintainer.apply_batch` — one journal
        record, one fsync, at most one re-peel per affected ``A_k`` —
        and afterwards, still exclusively, purges every cache entry
        whose version moved.  Each touched array's version bumps exactly
        once per batch regardless of how many batch edges touch it, so
        the purge-and-refill churn is amortized the same way the
        re-peels are.  Readers never observe a half-applied batch: the
        write lock spans validation, mutation, and purge.
        """
        with maybe_span(metric.TRACE_SERVER_APPLY):
            with self._lock.write_locked(site="apply_batch"):
                before = self.index.versions()
                try:
                    # Same WAL ordering argument as apply(): the batch
                    # journal record + fsync must stay inside the
                    # exclusive section.  noqa KP012: blocking by design.
                    return self._durable.apply_batch(  # noqa: KP012 WAL ordering
                        updates, engine=engine, workers=workers
                    )
                finally:
                    self._purge_changed(before)

    def insert_edge(self, u: Vertex, v: Vertex) -> None:
        """Journal, apply, and invalidate for one edge insertion."""
        with maybe_span(metric.TRACE_SERVER_INSERT):
            with self._lock.write_locked(site="insert_edge"):
                before = self.index.versions()
                try:
                    self._durable.insert_edge(u, v)  # noqa: KP012 WAL ordering
                finally:
                    self._purge_changed(before)

    def delete_edge(self, u: Vertex, v: Vertex) -> None:
        """Journal, apply, and invalidate for one edge deletion."""
        with maybe_span(metric.TRACE_SERVER_DELETE):
            with self._lock.write_locked(site="delete_edge"):
                before = self.index.versions()
                try:
                    self._durable.delete_edge(u, v)  # noqa: KP012 WAL ordering
                finally:
                    self._purge_changed(before)

    def checkpoint(self) -> int:
        """Write a durable checkpoint under the write lock.

        Checkpoints do not mutate any ``A_k``, so the cache keeps
        serving across them.
        """
        with maybe_span(metric.TRACE_SERVER_CHECKPOINT):
            with self._lock.write_locked(site="checkpoint"):
                # Checkpoints block writers on purpose; readers drain
                # first because the RWLock prefers writers.
                return self._durable.checkpoint()  # noqa: KP012 atomic checkpoint

    def _purge_changed(self, before: dict[int, int]) -> int:
        cache = self._cache
        if cache is None:
            return 0
        purged = 0
        for k, version in self.index.versions().items():
            if before.get(k, 0) != version:
                purged += cache.purge_k(k)
        return purged

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock.write_locked(site="close"):
            self._durable.close()  # noqa: KP012 final flush at shutdown
            if self._cache is not None:
                self._cache.clear()

    def __enter__(self) -> "KPCoreServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
