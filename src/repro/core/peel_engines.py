"""Peeling engines for Algorithm 2's fixed-k inner loop.

Four interchangeable engines compute the same ``(order, p_numbers)``
pair for one ``k``:

* :func:`peel_fixed_k_heap` — the original lazy min-heap engine,
  O(m_k log n_k) per ``k``.  Every neighbour decrement pushes a fresh
  ``(fraction, vertex)`` entry; stale entries are skipped on pop.
* :func:`peel_fixed_k_bucket` — a Batagelj–Zaveršnik-style bucket queue,
  O(m_k) per ``k``.  At fixed ``k`` the only keys a vertex ``v`` can ever
  take are the fractions ``a / deg_G(v)`` with ``k <= a <= deg_k(v)``
  (below ``a = k`` the degree constraint deletes it), so the candidate
  level set is finite and at most ``m_k`` large.  Vertices live in an
  array of buckets indexed by sorted level; a peel round drains the
  lowest non-empty bucket and cascades deletions with a plain stack —
  no heap re-keys, no log factor.
* :func:`~repro.core.peel_flat.peel_fixed_k_flat` (the default) and its
  optional numpy sibling ``flat-numpy`` — the bucket discipline rebuilt
  on flat integer arrays: fraction levels become composite integer keys,
  the per-``k`` level set becomes one global ladder built once per
  decomposition, and the drain runs on index arithmetic alone (no dict
  hashing, no float division).  See :mod:`repro.core.peel_flat`.

Exact-double soundness of the bucket keys: every key is the correctly
rounded double of a rational ``a/b`` with ``b <= d_max``.  Two distinct
such rationals differ by at least ``1/d_max^2``, far above double spacing
on [0, 1] for any graph this library can hold, so float ordering equals
rational ordering and the float-keyed level index is collision-free (the
same argument :mod:`repro.core.pvalue` makes for fraction comparisons —
and the same gap bound that makes the flat engine's integer keys exact).

Every engine emits the **canonical deletion order**: rounds (maximal runs
of one p-number, which strictly increases between rounds) appear in peel
order, and vertices within a round are sorted by internal id.  The
within-round order of the paper's Algorithm 2 is unspecified — every
vertex of a round shares one p-number — so canonicalizing it makes the
engines byte-comparable and the output machine-independent.

Engines accept an optional engine-specific ``scratch`` object
(:func:`make_scratch`) holding state that is valid for every ``k`` of one
``(snapshot, core)`` pair; the decomposition driver passes one so the
serial full decomposition stops re-allocating O(n) containers per ``k``.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Any, Protocol, Sequence

from repro.errors import ParameterError
from repro.graph.compact import CompactAdjacency
from repro.core.peel_flat import (
    FlatScratch,
    peel_fixed_k_flat,
    peel_fixed_k_flat_numpy,
)
from repro.obs import names
from repro.obs.instrumentation import get_collector

__all__ = [
    "BucketScratch",
    "DEFAULT_ENGINE",
    "ENGINES",
    "PeelEngine",
    "available_engines",
    "get_engine",
    "make_scratch",
    "peel_fixed_k_bucket",
    "peel_fixed_k_heap",
]


class PeelEngine(Protocol):
    """Signature shared by every engine: ``(snapshot, core, k)`` to
    ``(deletion order, p-numbers)`` over internal vertex ids.  The
    snapshot's neighbour lists must already be sorted by descending core
    number (:meth:`~repro.graph.compact.CompactAdjacency.sort_neighbors_by_rank_desc`).
    ``scratch`` optionally carries reusable cross-``k`` state from
    :func:`make_scratch`; engines without one ignore it.
    """

    def __call__(
        self,
        snapshot: CompactAdjacency,
        core: Sequence[int],
        k: int,
        *,
        scratch: Any | None = None,
    ) -> tuple[list[int], list[float]]: ...

#: Heap key marking "degree below k: peel within the current round".
_DEGREE_VIOLATION = -1.0


def _canonicalize_rounds(order: list[int], p_numbers: list[float]) -> None:
    """Sort each equal-p-number run of ``order`` by internal id, in place.

    Rounds are maximal runs of one p-number (levels strictly increase
    between rounds), so this never reorders across rounds and leaves
    ``p_numbers`` untouched.
    """
    n = len(order)
    start = 0
    for i in range(1, n + 1):
        # Exact-double level grouping; see repro.core.pvalue.
        if i < n and p_numbers[i] == p_numbers[start]:  # noqa: KP002
            continue
        if i - start > 1:
            chunk = order[start:i]
            chunk.sort()
            order[start:i] = chunk
        start = i


def peel_fixed_k_heap(
    snapshot: CompactAdjacency,
    core: Sequence[int],
    k: int,
    *,
    scratch: Any | None = None,
) -> tuple[list[int], list[float]]:
    """Lazy min-heap engine; see the module docstring.

    ``core`` must be the core numbers of the snapshot and the snapshot's
    neighbour lists must already be sorted by descending core number.
    The heap engine keeps no cross-``k`` state — ``scratch`` is accepted
    for signature uniformity and ignored.
    """
    del scratch  # no reusable state: the heap is rebuilt per call anyway
    if k < 1:
        raise ParameterError(f"degree threshold k must be >= 1, got {k}")
    # Collector fetched once, checked per call — never inside the peel
    # loop (KP007); everything is recorded after the drain.
    obs = get_collector()
    trace_start = time.perf_counter() if obs is not None else 0.0
    members = [v for v in range(snapshot.num_vertices) if core[v] >= k]
    if not members:
        return [], []
    indptr, indices = snapshot.indptr, snapshot.indices

    # Residual degree within the k-core, via the sorted-prefix trick.
    deg_s: dict[int, int] = {}
    global_deg: dict[int, int] = {}
    for v in members:
        deg_s[v] = snapshot.rank_prefix_length(v, k, core)
        global_deg[v] = indptr[v + 1] - indptr[v]

    # The divisions below are the canonical float-fraction construction of
    # repro.core.pvalue.fraction_value, inlined because this is the O(m)
    # hot path; global_deg is always >= 1 for k-core members.
    heap: list[tuple[float, int]] = [
        (deg_s[v] / global_deg[v], v) for v in members  # noqa: KP001 hot loop
    ]
    heapify(heap)
    key = {v: deg_s[v] / global_deg[v] for v in members}  # noqa: KP001 hot loop

    alive = set(members)
    order: list[int] = []
    p_numbers: list[float] = []
    level = 0.0
    # Loop-local operation counters (plain int increments, dwarfed by the
    # heap/dict work per iteration); flushed to the collector once, after
    # the loop — the KP007-checked pattern.
    rekeys = 0
    degree_violations = 0
    while heap:
        f, v = heappop(heap)
        # Exact-double inequality: both sides are correctly-rounded doubles
        # of the same rational construction (see repro.core.pvalue).
        if v not in alive or f != key[v]:  # noqa: KP002 stale-entry test
            continue  # already deleted, or a stale (higher) entry
        if f > level:
            level = f
        alive.discard(v)
        order.append(v)
        p_numbers.append(level)
        # Only the prefix of v's slice (neighbours inside the k-core) can
        # still be alive; the slice is sorted by descending core number.
        for ptr in range(indptr[v], indptr[v + 1]):
            u = indices[ptr]
            if core[u] < k:
                break  # sorted prefix exhausted
            if u not in alive:
                continue
            deg_s[u] -= 1
            if deg_s[u] < k:
                new_key = _DEGREE_VIOLATION
                degree_violations += 1
            else:
                new_key = deg_s[u] / global_deg[u]  # noqa: KP001 hot loop
            rekeys += 1
            key[u] = new_key
            heappush(heap, (new_key, u))
    _canonicalize_rounds(order, p_numbers)
    if obs is not None:
        obs.inc(names.DECOMP_ROUNDS)
        obs.add(names.DECOMP_PEELS, len(order))
        obs.add(names.DECOMP_REKEYS, rekeys)
        obs.add(names.DECOMP_DEGREE_VIOLATIONS, degree_violations)
        obs.observe(names.DECOMP_ARRAY_SIZE, len(order))
        obs.record(
            names.TRACE_PEEL_FIXED_K,
            trace_start,
            time.perf_counter(),
            k=k,
            engine="heap",
            vertices=len(order),
        )
    return order, p_numbers


class BucketScratch:
    """Reusable cross-``k`` buffers for :func:`peel_fixed_k_bucket`.

    The bucket engine's per-``k`` state is four O(n) arrays, the level
    set/index, and the bucket lists.  Called 1..degeneracy times by the
    serial decomposition driver, re-allocating them per call is pure
    churn: every array is either fully rewritten for the members before
    it is read (``deg_s``/``global_deg``/``bucket_of``), self-cleaning
    (``alive`` — every member is dead when a peel returns), or explicitly
    cleared here (the level containers; bucket lists can keep stale
    entries of cascaded vertices, so the used prefix is re-cleared on
    loan).
    """

    __slots__ = (
        "snapshot",
        "deg_s",
        "global_deg",
        "alive",
        "bucket_of",
        "level_set",
        "level_index",
        "buckets",
        "stack",
        "round_buf",
    )

    def __init__(self, snapshot: CompactAdjacency) -> None:
        n = snapshot.num_vertices
        self.snapshot = snapshot
        self.deg_s = [0] * n
        self.global_deg = [1] * n
        self.alive = bytearray(n)
        self.bucket_of = [-1] * n
        self.level_set: set[float] = set()
        self.level_index: dict[float, int] = {}
        self.buckets: list[list[int]] = []
        self.stack: list[int] = []
        self.round_buf: list[int] = []

    def lend_buckets(self, count: int) -> list[list[int]]:
        """The first ``count`` bucket lists, grown on demand and cleared."""
        buckets = self.buckets
        grow = count - len(buckets)
        if grow > 0:
            buckets.extend([] for _ in range(grow))
        for i in range(count):
            del buckets[i][:]
        return buckets


def peel_fixed_k_bucket(
    snapshot: CompactAdjacency,
    core: Sequence[int],
    k: int,
    *,
    scratch: Any | None = None,
) -> tuple[list[int], list[float]]:
    """Bucket-queue engine; see the module docstring.

    ``core`` must be the core numbers of the snapshot and the snapshot's
    neighbour lists must already be sorted by descending core number.
    Passing a shared :class:`BucketScratch` (as the decomposition driver
    does) reuses the O(n) working arrays across consecutive ``k``.
    """
    if k < 1:
        raise ParameterError(f"degree threshold k must be >= 1, got {k}")
    # Collector fetched once, checked per call — never inside the peel
    # loop (KP007); everything is recorded after the drain.
    obs = get_collector()
    trace_start = time.perf_counter() if obs is not None else 0.0
    members = [v for v in range(snapshot.num_vertices) if core[v] >= k]
    if not members:
        return [], []
    if scratch is None:
        scratch = BucketScratch(snapshot)
    elif not isinstance(scratch, BucketScratch):
        raise ParameterError(
            "the bucket engine expects a BucketScratch, got "
            f"{type(scratch).__name__}"
        )
    elif scratch.snapshot is not snapshot:
        raise ParameterError(
            "scratch was built for a different snapshot; build one "
            "BucketScratch per snapshot"
        )
    indptr, indices = snapshot.indptr, snapshot.indices

    # Flat arrays indexed by internal id (only member slots are used, and
    # every member slot is written below before it is read): list
    # indexing beats dict hashing in the cascade loop.
    deg_s = scratch.deg_s
    global_deg = scratch.global_deg
    alive = scratch.alive
    bucket_of = scratch.bucket_of
    for v in members:
        deg_s[v] = snapshot.rank_prefix_length(v, k, core)
        global_deg[v] = indptr[v + 1] - indptr[v]
        alive[v] = 1

    # Candidate levels: every key vertex v can ever take is a/deg_G(v)
    # with k <= a <= deg_k(v) — below a = k the degree constraint deletes
    # it before its fraction matters.  Collect, sort, index.
    level_set = scratch.level_set
    level_set.clear()
    for v in members:
        gd = global_deg[v]
        for a in range(k, deg_s[v] + 1):
            level_set.add(a / gd)  # noqa: KP001 hot setup
    levels = sorted(level_set)
    level_index = scratch.level_index
    level_index.clear()
    for i, f in enumerate(levels):
        level_index[f] = i

    buckets = scratch.lend_buckets(len(levels))
    for v in members:
        b = level_index[deg_s[v] / global_deg[v]]  # noqa: KP001 hot setup
        bucket_of[v] = b
        buckets[b].append(v)

    order: list[int] = []
    p_numbers: list[float] = []
    remaining = len(members)
    cur = 0
    # Reused across rounds so the while-loop never allocates containers.
    stack = scratch.stack
    round_buf = scratch.round_buf
    # Loop-local operation counters, flushed after the loop (KP007).
    bucket_scans = 0
    rekeys = 0
    degree_violations = 0
    bucket_moves = 0
    while remaining:
        # Seed a round: drain the current bucket, skipping entries whose
        # vertex moved to a lower bucket (bucket_of mismatch) or died.
        bucket = buckets[cur]
        while bucket:
            v = bucket.pop()
            if alive[v] and bucket_of[v] == cur:
                alive[v] = 0
                stack.append(v)
        if not stack:
            cur += 1
            bucket_scans += 1
            continue
        level = levels[cur]
        # Cascade: a deletion drags neighbours whose fraction falls to
        # <= level (or whose degree falls below k) into the same round,
        # inheriting its p-number — the paper's Line 5.
        while stack:
            v = stack.pop()
            round_buf.append(v)
            # Only the prefix of v's slice (neighbours inside the k-core)
            # can still be alive; sorted by descending core number.
            for ptr in range(indptr[v], indptr[v + 1]):
                u = indices[ptr]
                if core[u] < k:
                    break  # sorted prefix exhausted
                if not alive[u]:
                    continue
                rekeys += 1
                d = deg_s[u] - 1
                deg_s[u] = d
                if d < k:
                    degree_violations += 1
                    alive[u] = 0
                    stack.append(u)
                    continue
                new_key = d / global_deg[u]  # noqa: KP001 hot loop
                if new_key <= level:
                    alive[u] = 0
                    stack.append(u)
                else:
                    b = level_index[new_key]
                    bucket_of[u] = b
                    buckets[b].append(u)
                    bucket_moves += 1
        # Rounds come out canonical directly: strictly increasing levels,
        # ids sorted within the round.
        round_buf.sort()
        for v in round_buf:
            order.append(v)
            p_numbers.append(level)
        remaining -= len(round_buf)
        del round_buf[:]
    if obs is not None:
        obs.inc(names.DECOMP_ROUNDS)
        obs.add(names.DECOMP_PEELS, len(order))
        obs.add(names.DECOMP_REKEYS, rekeys)
        obs.add(names.DECOMP_DEGREE_VIOLATIONS, degree_violations)
        obs.add(names.DECOMP_BUCKET_SCANS, bucket_scans)
        obs.add(names.DECOMP_BUCKET_MOVES, bucket_moves)
        obs.observe(names.DECOMP_BUCKET_LEVELS, len(levels))
        obs.observe(names.DECOMP_ARRAY_SIZE, len(order))
        obs.record(
            names.TRACE_PEEL_FIXED_K,
            trace_start,
            time.perf_counter(),
            k=k,
            engine="bucket",
            vertices=len(order),
        )
    return order, p_numbers


#: Engine registry, keyed by the name the API and CLI accept.  The
#: ``flat-numpy`` entry is always registered: it degrades to the pure
#: flat scratch when numpy is not importable (identical output).
ENGINES: dict[str, PeelEngine] = {
    "bucket": peel_fixed_k_bucket,
    "flat": peel_fixed_k_flat,
    "flat-numpy": peel_fixed_k_flat_numpy,
    "heap": peel_fixed_k_heap,
}

#: The engine used when callers do not choose one.
DEFAULT_ENGINE = "flat"


def available_engines() -> list[str]:
    """Engine names accepted by ``engine=`` parameters, sorted."""
    return sorted(ENGINES)


def make_scratch(
    engine: str, snapshot: CompactAdjacency, core: Sequence[int]
) -> Any | None:
    """Engine-specific cross-``k`` scratch for one ``(snapshot, core)``.

    Returns ``None`` for engines that keep no reusable state (``heap``).
    The decomposition driver builds one scratch and threads it through
    every fixed-``k`` call; pool workers build one per process.  The name
    is validated the same way :func:`get_engine` validates it.
    """
    get_engine(engine)  # surface unknown names with the canonical error
    if engine == "flat":
        return FlatScratch(snapshot, core)
    if engine == "flat-numpy":
        return FlatScratch(snapshot, core, use_numpy=True)
    if engine == "bucket":
        return BucketScratch(snapshot)
    return None


def get_engine(name: str) -> PeelEngine:
    """Resolve an engine name; raises :class:`ParameterError` if unknown."""
    try:
        return ENGINES[name]
    except KeyError:
        known = ", ".join(available_engines())
        raise ParameterError(
            f"unknown peel engine {name!r} (known: {known})"
        ) from None
