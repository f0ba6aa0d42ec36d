"""Flat integer-array peeling engine for Algorithm 2's fixed-k loop.

The bucket engine (:func:`repro.core.peel_engines.peel_fixed_k_bucket`)
is already O(m_k) per ``k``, but it pays Python-object tax everywhere: a
float division per re-key, a ``dict`` level index probed per move, and —
dominating the profile — a per-``k`` ``level_set`` construction that
re-enumerates every candidate fraction ``a / deg_G(v)`` with
``k <= a <= deg_k(v)`` for every ``k`` (O(sum_k m_k) float ops across a
full decomposition).  This module removes all of it:

* **Composite integer keys.**  Each fraction ``a / b`` (``b = deg_G(v)``)
  is encoded as the integer ``a * SCALE // b`` with
  ``SCALE = d_max**2 + 1``.  Two distinct rationals with denominators
  ``<= d_max`` differ by at least ``1 / d_max**2``, so after scaling they
  differ by more than 1 and their floor divisions cannot collide; equal
  rationals obviously floor to the same integer.  Integer-key order
  therefore equals rational order exactly — the same shape of argument
  :mod:`repro.core.pvalue` makes for correctly-rounded doubles, with the
  double spacing replaced by the scaled integer gap.  (See
  :func:`composite_key` / :func:`key_scale`; the soundness test sweeps
  every ``a/b`` pair against :class:`fractions.Fraction` ordering.)
* **One global ladder, built once.**  The union over all ``k`` of the
  candidate fractions of vertex ``v`` is just ``{a / deg_G(v) : 1 <= a <=
  deg_G(v)}`` — ``2m`` candidates in total, independent of ``k``.  The
  :class:`FlatScratch` built once per decomposition stores, for every
  ladder slot, the *rank* of its key among the sorted distinct keys
  (``vli``), plus one exact float per distinct key (``lvl_val``, the same
  correctly-rounded double the other engines emit).  A re-key during any
  fixed-``k`` peel is then two list reads: ``rank = vli[lp[u] + d]``.
* **Bin-sorted drain, no dict, no floats.**  Vertices are parked in
  per-rank chains threaded through one preallocated two-array arena
  (``arena_vertex`` / ``arena_next``), the flat-array generalization of
  Batagelj–Zaveršnik's ``vert``/``pos``/``bin_start`` layout: BZ's O(1)
  swap trick assumes keys step down one bin at a time (true for core
  numbers), while a fixed-``k`` re-key can drop a vertex several bins at
  once, so the engine re-parks moved vertices and filters stale chain
  entries by comparing the parked rank against the vertex's current one
  (``rank_of``).  Re-parks are **batched per round**: a cascade often
  decrements the same vertex once per dying neighbour, but only its rank
  at the end of the round matters to the (monotone) cursor, so the drain
  stamps touched vertices into a dirty list and parks each exactly once
  when the round closes — intermediate bins would only add stale entries
  for the seed walk to filter (on the benchmark graph this cuts arena
  traffic to under a third).  Chain heads are epoch-stamped so nothing
  is cleared between ``k``'s.  Keys only ever decrease, hence a vertex
  is parked at most once per rank and a stale entry can never be
  mistaken for a live one.

The hot arrays are plain Python ``list``s rather than ``array('l')``:
``array`` subscripting boxes a fresh ``int`` per read in CPython, while
lists hand back the cached small-int objects — measurably faster in the
interpreter loop that dominates here.  The memory layout is still flat
and integer-only; nothing in the drain hashes or allocates per edge.

``engine="flat-numpy"`` (:func:`peel_fixed_k_flat_numpy`) vectorizes the
scratch build — the initial degree/key computation for every ladder
slot, binned into ranks by one ``numpy.unique`` — and the per-``k``
member scan; the cascade drain is shared with the pure engine.  (The
per-``k`` prefix degrees deliberately stay on the shared incremental
sweep, and initial ranks on the park loop's inline ladder reads: both
vectorized alternatives measured slower, see ``_setup_numpy``.)  numpy
stays an optional dependency: the import is guarded and the engine
silently degrades to the pure-Python scratch when it is absent,
producing identical output.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.errors import ParameterError
from repro.graph.compact import CompactAdjacency
from repro.obs import names
from repro.obs.instrumentation import get_collector

try:  # optional acceleration; the pure-Python path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None  # type: ignore[assignment]

__all__ = [
    "FlatScratch",
    "composite_key",
    "have_numpy",
    "key_scale",
    "peel_fixed_k_flat",
    "peel_fixed_k_flat_numpy",
]

#: Largest ``d_max`` for which ``a * SCALE`` fits an int64 (``d_max**3``
#: headroom); beyond it the numpy key build falls back to Python ints.
_NUMPY_KEY_DMAX_LIMIT = 2_000_000


def have_numpy() -> bool:
    """Whether the optional numpy backend is importable in this process."""
    return _np is not None


def key_scale(d_max: int) -> int:
    """The composite-key scale for a graph of maximum degree ``d_max``.

    ``d_max**2 + 1`` makes the scaled gap between any two distinct
    rationals with denominators ``<= d_max`` strictly greater than 1, so
    floor division cannot merge them (see the module docstring).
    """
    return d_max * d_max + 1


def composite_key(numerator: int, denominator: int, scale: int) -> int:
    """Order-preserving integer encoding of ``numerator / denominator``.

    For fractions with denominators ``<= d_max`` and
    ``scale = key_scale(d_max)``, ``composite_key`` is monotone and
    injective up to rational equality: ``key(a1/b1) < key(a2/b2)`` iff
    ``a1/b1 < a2/b2`` and keys are equal iff the rationals are.
    """
    if denominator < 1:
        raise ParameterError(
            f"fraction denominator must be >= 1, got {denominator}"
        )
    return numerator * scale // denominator


class FlatScratch:
    """Once-per-decomposition state shared by every fixed-``k`` flat peel.

    Building the scratch costs O(m + L log L) (``L`` = distinct fraction
    levels, ``L <= 2m``); every per-``k`` structure it hands out is either
    reused storage (epoch-stamped chain heads, the parking arena) or an
    O(n) copy.  The prefix-length array ``plen`` (``plen[v]`` = number of
    neighbours of ``v`` with core number ``>= k``) is maintained
    incrementally as ``k`` advances — the driver peels ``k`` in ascending
    order, so each edge is touched once across the whole decomposition —
    and rebuilt by binary search if a caller jumps backwards.
    """

    __slots__ = (
        "snapshot",
        "core",
        "n",
        "iptr",
        "ind",
        "gdeg",
        "dmax",
        "scale",
        "base",
        "lp",
        "vli",
        "lvl_val",
        "num_levels",
        "corder",
        "sizes",
        "core_bucket",
        "plen",
        "cur_k",
        "rank_of",
        "bin_head",
        "bin_epoch",
        "arena_vertex",
        "arena_next",
        "epoch",
        "touch_stamp",
        "stamp",
        "core_np",
    )

    def __init__(
        self,
        snapshot: CompactAdjacency,
        core: Sequence[int],
        *,
        use_numpy: bool = False,
    ) -> None:
        self.snapshot = snapshot
        self.core = core
        n = snapshot.num_vertices
        self.n = n
        iptr = list(snapshot.indptr)
        self.iptr = iptr
        self.ind = list(snapshot.indices)
        gdeg = [iptr[v + 1] - iptr[v] for v in range(n)]
        self.gdeg = gdeg
        dmax = max(gdeg, default=0)
        self.dmax = dmax
        self.scale = key_scale(dmax)
        base = [0] * (n + 1)
        for v in range(n):
            base[v + 1] = base[v] + gdeg[v]
        self.base = base
        self.lp = [base[v] - 1 for v in range(n)]
        if use_numpy and _np is not None and dmax <= _NUMPY_KEY_DMAX_LIMIT:
            self._build_ladder_numpy()
        else:
            self._build_ladder_pure()
            self.core_np = None
        degeneracy = max(core, default=0)
        counts = [0] * (degeneracy + 2)
        for c in core:
            counts[c] += 1
        sizes = [0] * (degeneracy + 2)
        running = 0
        for k in range(degeneracy, -1, -1):
            running += counts[k]
            sizes[k] = running
        self.sizes = sizes
        self.corder = sorted(range(n), key=lambda v: (-core[v], v))
        core_bucket: list[list[int]] = [[] for _ in range(degeneracy + 1)]
        for v in range(n):
            core_bucket[core[v]].append(v)
        self.core_bucket = core_bucket
        # plen at k=1 is the plain degree: a vertex has core number 0
        # exactly when it is isolated, so every neighbour has core >= 1.
        self.plen = gdeg[:]
        self.cur_k = 1
        # Reused per-k drain state; rank_of is self-cleaning (stale chain
        # entries are filtered against it), chain heads are epoch-stamped.
        # Liveness needs no array of its own: the drain's working degrees
        # are clamped to k-1 on kill, so "deg_s[u] > k-1" doubles as the
        # alive test — one list read instead of two per edge event.
        self.rank_of = [0] * n
        length = self.num_levels
        self.bin_head = [-1] * length
        self.bin_epoch = [0] * length
        capacity = base[n] + n + 1  # initial parks + one park per re-key
        self.arena_vertex = [0] * capacity
        self.arena_next = [0] * capacity
        self.epoch = 0
        # Per-round dirty-list dedup: ``touch_stamp[v]`` holds the stamp
        # of the last round that decremented ``v``; ``stamp`` increases
        # monotonically across every round of every peel, so stale stamps
        # never collide and nothing is ever cleared.
        self.touch_stamp = [0] * n
        self.stamp = 0

    # -- ladder construction ------------------------------------------

    def _build_ladder_pure(self) -> None:
        """Keys, ranks and exact float values for every ladder slot."""
        scale = self.scale
        keys: list[int] = []
        vals: list[float] = []
        kext = keys.extend
        vext = vals.extend
        for gd in self.gdeg:
            if gd:
                kext([a * scale // gd for a in range(1, gd + 1)])
                # Canonical float-fraction construction (pvalue.fraction_value
                # inlined for the O(m) setup sweep): one correctly-rounded
                # double per candidate, the exact value the engines emit.
                vext([a / gd for a in range(1, gd + 1)])  # noqa: KP001
        representative = dict(zip(keys, vals))
        distinct = sorted(representative)
        self.num_levels = len(distinct)
        rank = {key: i for i, key in enumerate(distinct)}
        self.vli = list(map(rank.__getitem__, keys))
        self.lvl_val = list(map(representative.__getitem__, distinct))

    def _build_ladder_numpy(self) -> None:
        """Vectorized ladder build plus cached per-edge numpy views."""
        assert _np is not None
        np = _np
        core_np = np.asarray(self.core, dtype=np.int64)
        iptr_np = np.asarray(self.iptr, dtype=np.int64)
        gdeg_np = np.diff(iptr_np)
        base_np = iptr_np[:-1].copy()
        total = int(iptr_np[-1])
        # Ladder numerators: slot i of vertex v holds a = i - base[v] + 1.
        numerators = np.arange(total, dtype=np.int64) - np.repeat(
            base_np, gdeg_np
        ) + 1
        denominators = np.repeat(gdeg_np, gdeg_np)
        keys = numerators * np.int64(self.scale) // denominators
        distinct, first_slot, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        self.num_levels = int(distinct.size)
        # One exact double per distinct key — float64 division is the same
        # correctly-rounded result CPython's ``a / b`` produces.
        level_values = (
            numerators[first_slot].astype(np.float64)
            / denominators[first_slot].astype(np.float64)
        )
        self.vli = inverse.tolist()
        self.lvl_val = level_values.tolist()
        self.core_np = core_np

    # -- prefix-length maintenance ------------------------------------

    def prefix_lengths(self, k: int) -> list[int]:
        """``plen`` positioned at ``k`` (incremental forward, rebuilt back).

        Forward steps retire the vertices of one core-number class at a
        time: moving ``k -> k+1`` subtracts, for every vertex ``u`` with
        ``core(u) == k``, one from each neighbour's prefix length — each
        adjacency slot is walked at most once over a full ascending
        sweep.  A backward jump (out-of-order caller) falls back to the
        snapshot's per-vertex binary search.
        """
        if k < self.cur_k:
            self._rebuild_plen(k)
            return self.plen
        iptr, ind, plen = self.iptr, self.ind, self.plen
        while self.cur_k < k:
            for u in self.core_bucket[self.cur_k]:
                for w in ind[iptr[u] : iptr[u + 1]]:
                    plen[w] -= 1
            self.cur_k += 1
        return plen

    def _rebuild_plen(self, k: int) -> None:
        snapshot, core, plen = self.snapshot, self.core, self.plen
        for v in self.members(k):
            plen[v] = snapshot.rank_prefix_length(v, k, core)
        self.cur_k = k

    def members(self, k: int) -> list[int]:
        """Vertices of the k-core (any order; the drain does not care)."""
        if k >= len(self.sizes):
            return []
        return self.corder[: self.sizes[k]]


def _check_scratch(
    scratch: FlatScratch | None,
    snapshot: CompactAdjacency,
    core: Sequence[int],
    use_numpy: bool,
) -> FlatScratch:
    if scratch is None:
        return FlatScratch(snapshot, core, use_numpy=use_numpy)
    if not isinstance(scratch, FlatScratch):
        raise ParameterError(
            f"flat engines expect a FlatScratch, got {type(scratch).__name__}"
        )
    if scratch.snapshot is not snapshot:
        raise ParameterError(
            "scratch was built for a different snapshot; build one "
            "FlatScratch per (snapshot, core) pair"
        )
    return scratch


def peel_fixed_k_flat(
    snapshot: CompactAdjacency,
    core: Sequence[int],
    k: int,
    *,
    scratch: Any | None = None,
) -> tuple[list[int], list[float]]:
    """Flat integer-array engine; see the module docstring.

    ``core`` must be the core numbers of the snapshot and the snapshot's
    neighbour lists must already be sorted by descending core number.
    Pass a shared :class:`FlatScratch` (as the decomposition driver does)
    to amortize the global ladder build across every ``k``.
    """
    if k < 1:
        raise ParameterError(f"degree threshold k must be >= 1, got {k}")
    state = _check_scratch(scratch, snapshot, core, use_numpy=False)
    return _peel(state, k, "flat")


def peel_fixed_k_flat_numpy(
    snapshot: CompactAdjacency,
    core: Sequence[int],
    k: int,
    *,
    scratch: Any | None = None,
) -> tuple[list[int], list[float]]:
    """numpy-accelerated flat engine (identical output, optional numpy).

    Vectorizes the scratch build, member scan and initial binning when
    numpy is importable; otherwise runs the pure-Python scratch path —
    the drain and the emitted ``(order, p_numbers)`` are byte-identical
    either way.
    """
    if k < 1:
        raise ParameterError(f"degree threshold k must be >= 1, got {k}")
    state = _check_scratch(scratch, snapshot, core, use_numpy=True)
    return _peel(state, k, "flat-numpy")


def _setup_pure(
    state: FlatScratch, k: int
) -> tuple[list[int], list[int], list[int]]:
    """(members, plen, deg_s) via the incremental scratch.

    Initial ranks are left to the park loop (one ladder read per member
    beats materializing an intermediate list).
    """
    members = state.members(k)
    if not members:
        return members, [], []
    plen = state.prefix_lengths(k)
    return members, plen, plen[:]


def _setup_numpy(
    state: FlatScratch, k: int
) -> tuple[list[int], list[int], list[int]]:
    """Vectorized member scan; prefix degrees stay incremental.

    Recomputing prefix degrees per ``k`` with a vectorized ``bincount``
    costs O(2m) *per k* and loses to the O(changed edges) incremental
    sweep on every dataset tried, so that path is shared with the pure
    engine; likewise a vectorized initial-rank gather (one ndarray
    round-trip per ``k``) measures slower than the park loop's inline
    ladder reads, so initial ranks are left to it.
    """
    assert _np is not None and state.core_np is not None
    member_ids = _np.flatnonzero(state.core_np >= k)
    if member_ids.size == 0:
        return [], [], []
    plen = state.prefix_lengths(k)
    return member_ids.tolist(), plen, plen[:]


def _peel(
    state: FlatScratch, k: int, engine_label: str
) -> tuple[list[int], list[float]]:
    """Shared drain: rounds walk the rank cursor, cascades re-park."""
    # Collector fetched once per call, never inside the peel loop (KP007
    # discipline); all recording happens after the drain.
    obs = get_collector()
    trace_start = time.perf_counter() if obs is not None else 0.0
    if state.core_np is not None:
        members, plen, deg_s = _setup_numpy(state, k)
    else:
        members, plen, deg_s = _setup_pure(state, k)
    if not members:
        return [], []
    # Local bindings for the interpreter loop (every name below is read
    # O(m_k) times).
    iptr, ind = state.iptr, state.ind
    vli, lp, lvl_val = state.vli, state.lp, state.lvl_val
    rank_of = state.rank_of
    bin_head, bin_epoch = state.bin_head, state.bin_epoch
    arena_vertex, arena_next = state.arena_vertex, state.arena_next
    state.epoch += 1
    epoch = state.epoch
    # Every k-core member starts with deg_s[v] = plen[v] >= k > k-1, so
    # "deg_s[v] > k-1" is true exactly for the not-yet-killed members: no
    # separate alive array, and killing is one clamp to k-1.
    tail = 0
    rank_min = state.num_levels
    for v in members:
        r = vli[lp[v] + deg_s[v]]
        rank_of[v] = r
        if bin_epoch[r] != epoch:
            bin_epoch[r] = epoch
            bin_head[r] = -1
        arena_vertex[tail] = v
        arena_next[tail] = bin_head[r]
        bin_head[r] = tail
        tail += 1
        if r < rank_min:
            rank_min = r
    members_n = len(members)
    order: list[int] = []
    p_numbers: list[float] = []
    order_extend = order.extend
    pn_extend = p_numbers.extend
    remaining = members_n
    cur = rank_min
    stack: list[int] = []
    stack_append = stack.append
    stack_pop = stack.pop
    dirty: list[int] = []
    dirty_append = dirty.append
    tstamp = state.touch_stamp
    stamp = state.stamp
    km1 = k - 1
    # Loop-local accumulators, flushed to the collector after the loop
    # (KP007); everything else per round is index arithmetic.
    rank_skips = 0
    seeds_total = 0
    while remaining:
        # Advance to the next epoch-stamped rank.  Every surviving vertex
        # sits in a chain stamped this epoch at its current rank (the
        # round-end park below guarantees it), so while anything remains
        # the walk terminates before running off the ladder.
        start = cur
        while bin_epoch[cur] != epoch:
            cur += 1
        rank_skips += cur - start
        # Seed a round: consume the chain parked at the cursor rank,
        # filtering entries whose vertex died or re-parked lower since.
        node = bin_head[cur]
        while node >= 0:
            v = arena_vertex[node]
            node = arena_next[node]
            if deg_s[v] > km1 and rank_of[v] == cur:
                deg_s[v] = km1
                stack_append(v)
        if not stack:
            cur += 1
            rank_skips += 1
            continue
        stamp += 1
        seeds_total += len(stack)
        round_buf = stack[:]
        # Cascade: a deletion drags neighbours whose rank falls to <= cur
        # (or whose degree falls below k) into the same round — the
        # paper's Line 5, with the exact fraction comparison replaced by
        # an integer rank comparison (order-isomorphic by construction).
        # Survivors are not re-parked here: the first decrement stamps
        # them into ``dirty`` and the round-end sweep parks each once, at
        # its final rank.
        while stack:
            v = stack_pop()
            pv = iptr[v]
            for u in ind[pv : pv + plen[v]]:
                d = deg_s[u]
                if d > km1:
                    d -= 1
                    if d > km1:
                        if vli[lp[u] + d] > cur:
                            deg_s[u] = d
                            if tstamp[u] != stamp:
                                tstamp[u] = stamp
                                dirty_append(u)
                            continue
                    deg_s[u] = km1
                    stack_append(u)
                    round_buf.append(u)
        for u in dirty:
            d = deg_s[u]
            if d > km1:
                r = vli[lp[u] + d]
                rank_of[u] = r
                if bin_epoch[r] != epoch:
                    bin_epoch[r] = epoch
                    bin_head[r] = -1
                arena_vertex[tail] = u
                arena_next[tail] = bin_head[r]
                bin_head[r] = tail
                tail += 1
        del dirty[:]
        # Canonical emission: ids sorted within the round, levels strictly
        # increasing between rounds (the cursor is monotone).
        round_buf.sort()
        order_extend(round_buf)
        pn_extend([lvl_val[cur]] * len(round_buf))  # noqa: KP006 per round
        remaining -= len(round_buf)
        cur += 1
    state.stamp = stamp
    if obs is not None:
        # moves = round-end re-parks (deduped: one per touched vertex per
        # round); rekeys adds the cascade kills, whose thresholds were
        # also recomputed before they dropped out.
        moves = tail - members_n
        obs.inc(names.DECOMP_ROUNDS)
        obs.add(names.DECOMP_PEELS, members_n)
        obs.add(names.DECOMP_REKEYS, moves + members_n - seeds_total)
        obs.add(names.DECOMP_FLAT_MOVES, moves)
        obs.add(names.DECOMP_FLAT_RANK_SKIPS, rank_skips)
        obs.observe(names.DECOMP_FLAT_LEVELS, state.num_levels)
        obs.observe(names.DECOMP_ARRAY_SIZE, members_n)
        obs.record(
            names.TRACE_PEEL_FIXED_K,
            trace_start,
            time.perf_counter(),
            k=k,
            engine=engine_label,
            vertices=members_n,
        )
    return order, p_numbers
