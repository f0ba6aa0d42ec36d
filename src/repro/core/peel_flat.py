"""The peel kernel: Algorithm 2's fixed-k loop and the Algorithms 4/5 re-peel.

Both are one computation — peel a vertex set in rounds by the fraction
``deg(v, C) / deg(v, G)``, the round level at deletion being the
vertex's p-number — so all three peels run on one drain (:func:`_drain`):

* :func:`peel_fixed_k_flat` peels a whole k-core of a frozen
  :class:`~repro.graph.compact.CompactAdjacency` snapshot (the full
  decomposition), on a once-per-snapshot :class:`FlatScratch`;
* the maintainer's persistent :class:`PeelState` — an int-id adjacency
  of the live graph patched in O(deg) per edge — runs the other two:
  :meth:`PeelState.peel_window` peels the window residual of one ``A_k``
  (a single-op splice), with the Theorem 4/9 early stop, the residual a
  member mask in the state's ``deg_s`` rather than a copy; and
  :meth:`PeelState.peel_cores` peels whole k-cores for ``k = 2 ..
  reach`` (a multi-op batch), on core numbers from one bucket pass over
  the same adjacency, each member's k-core degree kept incrementally as
  ``k`` rises.

The drain's ingredients:

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
  every ``a/b`` pair against :class:`fractions.Fraction` ordering.)  The
  window peel keeps the *global* degree as every denominator, so its
  keys obey the same bound with ``d_max`` the largest degree its ladder
  holds.
* **A rank ladder.**  Every candidate fraction ``a / b`` gets a ladder
  slot holding the *rank* of its key among the sorted distinct keys
  (``vli``), plus one exact float per distinct key (``lvl_val``, the
  correctly-rounded double ``a / b`` every p-number is stored as).
  Vertices of equal degree ``b`` share one block of slots, so a re-key
  is two list reads: ``rank = vli[lp[u] + d]``.  Both states hold one
  global ladder, ``1 <= a <= b`` per denominator ``b`` (at most ``2m``
  slots, independent of ``k``): :class:`FlatScratch` over the snapshot's
  degrees, :class:`PeelState` over every degree it has held, rebuilt
  only when a vertex reaches a new one.
* **Bin-sorted drain, no dict, no floats.**  Vertices are parked in
  per-rank chains threaded through one preallocated two-array arena
  (``arena_vertex`` / ``arena_next``), the flat-array generalization of
  Batagelj–Zaveršnik's ``vert``/``pos``/``bin_start`` layout: BZ's O(1)
  swap trick assumes keys step down one bin at a time (true for core
  numbers), while a fixed-``k`` re-key can drop a vertex several bins at
  once, so the drain re-parks moved vertices and filters stale chain
  entries by comparing the parked rank against the vertex's current one
  (``rank_of``).  Re-parks are **batched per round**: a cascade often
  decrements the same vertex once per dying neighbour, but only its rank
  at the end of the round matters to the (monotone) cursor, so the drain
  stamps touched vertices into a dirty list and parks each exactly once
  when the round closes.  Chain heads are epoch-stamped so nothing is
  cleared between peels.  Keys only ever decrease, hence a vertex is
  parked at most once per rank and a stale entry can never be mistaken
  for a live one.  A vertex outside the peeled set has working degree
  ``<= k-1`` — the snapshot's prefix lengths exclude it, the window's
  mask rests at 0, and a vertex outside the k-core has at most ``k-1``
  neighbours in it — so the drain never decrements it.

The hot arrays are plain Python ``list``s rather than ``array('l')``:
``array`` subscripting boxes a fresh ``int`` per read in CPython, while
lists hand back the cached small-int objects — measurably faster in the
interpreter loop that dominates here.

Every peel emits the **canonical deletion order**: rounds in strictly
increasing level order, vertices within a round sorted by internal id
(the snapshot's index, or the state's first-seen id).  The
within-round order of Algorithm 2 is unspecified — every vertex of a
round shares one p-number — so canonicalizing it makes the output
machine-independent.  :mod:`repro.core.naive` is the reference the
kernel is tested against.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import IndexStateError, ParameterError
from repro.graph.adjacency import Graph, Vertex
from repro.graph.compact import CompactAdjacency
from repro.kcore.decomposition import bucket_core_numbers
from repro.obs import names
from repro.obs.instrumentation import Instrumentation, get_collector

__all__ = [
    "FlatScratch",
    "PeelState",
    "composite_key",
    "key_scale",
    "peel_fixed_k_flat",
]


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


def _rank_ladder(
    dens: set[int],
) -> tuple[dict[int, int], list[int], list[float]]:
    """``(start, vli, lvl_val)``: every ``a / b``, ``1 <= a <= b``, ``b`` in ``dens``.

    Vertices of equal degree ``b`` share one block of slots: the rank of
    the fraction ``a / b`` is ``vli[start[b] + a]``.
    """
    keys: list[int] = []
    owners: list[int] = []
    start: dict[int, int] = {}
    scale = key_scale(max(dens, default=0))
    for b in dens:
        start[b] = len(keys) - 1
        keys.extend([a * scale // b for a in range(1, b + 1)])
        owners.extend(repeat(b, b))
    den_of = dict(zip(keys, owners))
    distinct = sorted(den_of)
    rank = dict(zip(distinct, range(len(distinct))))
    # One correctly-rounded double per distinct key, the exact value the
    # p-numbers are stored as.  ``key = a * scale // b`` with ``b < scale``
    # leaves exactly one integer in [key*b/scale, key*b/scale + b/scale),
    # so the numerator comes back as ``ceil(key * b / scale)``.
    lvl_val = [
        -(-key * b // scale) / b  # noqa: KP001 canonical a / b double
        for key, b in zip(distinct, map(den_of.__getitem__, distinct))
    ]
    return start, list(map(rank.__getitem__, keys)), lvl_val


class _DrainState:
    """A neighbour layout, its rank ladder and the reusable drain buffers.

    Vertex ``v``'s neighbours start at ``ind[iptr[v]]``; the drain reads
    as many of them as the caller's ``plen[v]`` says, so ``iptr`` is a
    start offset per vertex and nothing requires the blocks to be
    contiguous or in vertex order.
    """

    __slots__ = (
        "iptr",
        "ind",
        "lp",
        "vli",
        "lvl_val",
        "num_levels",
        "rank_of",
        "bin_head",
        "bin_epoch",
        "arena_vertex",
        "arena_next",
        "epoch",
        "touch_stamp",
        "stamp",
    )

    def __init__(
        self,
        iptr: list[int],
        ind: list[int],
        n: int,
        ladder: tuple[list[int], list[int], list[float]],
    ) -> None:
        self.iptr = iptr
        self.ind = ind
        self.lp, self.vli, self.lvl_val = ladder
        self._reset_bins()
        # rank_of is self-cleaning (stale chain entries are filtered
        # against it); chain heads are epoch-stamped.  Liveness needs no
        # array of its own: the drain's working degrees are clamped to
        # k-1 on kill, so "deg_s[u] > k-1" doubles as the alive test.
        self.rank_of = [0] * n
        capacity = len(ind) + n + 1  # initial parks + one park per re-key
        self.arena_vertex = [0] * capacity
        self.arena_next = [0] * capacity
        self.epoch = 0
        # Per-round dirty-list dedup: ``touch_stamp[v]`` holds the stamp
        # of the last round that decremented ``v``; ``stamp`` increases
        # monotonically across every round of every peel, so stale stamps
        # never collide and nothing is ever cleared.
        self.touch_stamp = [0] * n
        self.stamp = 0

    def _reset_bins(self) -> None:
        """Chain heads sized to the ladder (the epoch keeps counting)."""
        self.num_levels = length = len(self.lvl_val)
        self.bin_head = [-1] * length
        self.bin_epoch = [0] * length


class FlatScratch(_DrainState):
    """Once-per-decomposition state shared by every fixed-``k`` peel.

    Building the scratch costs O(m + L log L) (``L`` = distinct fraction
    levels, ``L <= 2m``); every per-``k`` structure it hands out is either
    reused storage (epoch-stamped chain heads, the parking arena) or an
    O(n) copy.  The prefix-length array ``plen`` (``plen[v]`` = number of
    neighbours of ``v`` with core number ``>= k``) is maintained
    incrementally as ``k`` advances — the decomposition peels ``k`` in
    ascending order, so each edge is touched once across the whole
    decomposition — and rebuilt by binary search if a caller jumps
    backwards.
    """

    __slots__ = (
        "snapshot",
        "core",
        "corder",
        "sizes",
        "core_bucket",
        "plen",
        "cur_k",
    )

    def __init__(self, snapshot: CompactAdjacency, core: Sequence[int]) -> None:
        self.snapshot = snapshot
        self.core = core
        n = snapshot.num_vertices
        iptr = list(snapshot.indptr)
        gdeg = [iptr[v + 1] - iptr[v] for v in range(n)]
        start, vli, lvl_val = _rank_ladder(set(gdeg))
        super().__init__(
            iptr,
            list(snapshot.indices),
            n,
            (list(map(start.__getitem__, gdeg)), vli, lvl_val),
        )
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
        self.plen = gdeg
        self.cur_k = 1

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
) -> FlatScratch:
    if scratch is None:
        return FlatScratch(snapshot, core)
    if not isinstance(scratch, FlatScratch):
        raise ParameterError(
            f"the peel kernel expects a FlatScratch, got {type(scratch).__name__}"
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
    """Peel the k-core of ``snapshot``: ``(deletion order, p-numbers)``.

    ``core`` must be the core numbers of the snapshot and the snapshot's
    neighbour lists must already be sorted by descending core number
    (:meth:`~repro.graph.compact.CompactAdjacency.sort_neighbors_by_rank_desc`),
    so the k-core neighbours of a vertex are a prefix of its slice.  Pass
    a shared :class:`FlatScratch` (as the decomposition does) to
    amortize the global ladder build across every ``k``.
    """
    if k < 1:
        raise ParameterError(f"degree threshold k must be >= 1, got {k}")
    state = _check_scratch(scratch, snapshot, core)
    # Collector fetched once per call, never inside the peel loop (KP007
    # discipline); all recording happens after the drain.
    obs = get_collector()
    trace_start = time.perf_counter() if obs is not None else 0.0
    members = state.members(k)
    if not members:
        return [], []
    plen = state.prefix_lengths(k)
    order, p_numbers, _ = _drain(
        state, k, members, plen, plen[:],
        stop_rank=state.num_levels, fresh=(), pending=0,
        obs=obs, trace_start=trace_start,
    )
    return order, p_numbers


class PeelState(_DrainState):
    """One maintainer's persistent peel state over its live graph.

    Built once from the :class:`~repro.graph.adjacency.Graph` and patched
    in O(deg) per edge (:meth:`patch`), it holds everything a window
    re-peel (:meth:`peel_window`) and a batch's full-core re-peels
    (:meth:`core_numbers`, :meth:`peel_cores`) drain on:

    * an int-id adjacency — ``id_of`` / ``label_of`` map vertex labels to
      ids in first-seen order; ``ind[iptr[v] : iptr[v] + deg[v]]`` are
      ``v``'s neighbours in a slack block of ``cap[v]`` slots, moved to
      the end of ``ind`` with doubled capacity when it fills up;
    * one global rank ladder holding ``a / b`` for ``1 <= a <= b`` and
      every degree ``b`` it has held (``block[b]`` is the ladder offset
      of degree ``b``, ``lp[v] = block[deg[v]]``).  It is rebuilt only
      when a vertex reaches a degree it has never held;
    * the drain buffers, plus ``deg_s`` and ``fresh``, whose resting
      value 0 means "not in the window": a re-peel marks its residual in
      them and resets them before it returns.
    """

    __slots__ = (
        "id_of",
        "label_of",
        "deg",
        "cap",
        "block",
        "deg_s",
        "fresh",
    )

    def __init__(self, graph: Graph) -> None:
        labels = list(graph.vertices())
        id_of = dict(zip(labels, range(len(labels))))
        iptr: list[int] = []
        ind: list[int] = []
        for v in labels:
            iptr.append(len(ind))
            ind.extend(map(id_of.__getitem__, graph.neighbors(v)))
        n = len(labels)
        deg = [len(graph.neighbors(v)) for v in labels]
        self.id_of = id_of
        self.label_of = labels
        self.deg = deg
        self.cap = deg[:]
        # Degree 0 is always held, so isolating a vertex never re-levels.
        start, vli, lvl_val = _rank_ladder({0, *deg})
        self.block = start
        super().__init__(iptr, ind, n, ([start[d] for d in deg], vli, lvl_val))
        self.deg_s = [0] * n
        self.fresh = [0] * n

    # -- O(deg) patches ------------------------------------------------

    def patch(self, ops: Iterable[tuple[str, Vertex, Vertex]]) -> bool:
        """Apply net ``(op, u, v)`` edge ops; True when the ladder was rebuilt.

        Every op is O(deg) on the adjacency; the ladder is re-levelled
        once, after the last op, so a batch rebuilds it at most once.
        """
        touched: list[int] = []
        for op, u, v in ops:
            if op == "insert":
                x, y = self._id(u), self._id(v)
                self._link(x, y)
                self._link(y, x)
            else:
                x, y = self.id_of[u], self.id_of[v]
                self._unlink(x, y)
                self._unlink(y, x)
            touched += (x, y)
        return self._relevel(touched)

    def _id(self, v: Vertex) -> int:
        x = self.id_of.get(v)
        if x is None:
            x = self.id_of[v] = len(self.label_of)
            self.label_of.append(v)
            self.iptr.append(len(self.ind))
            for column in (
                self.deg, self.cap, self.deg_s, self.fresh, self.rank_of,
                self.touch_stamp,
            ):
                column.append(0)
            self.lp.append(self.block[0])
        return x

    def _link(self, x: int, y: int) -> None:
        ind, d = self.ind, self.deg[x]
        if d == self.cap[x]:
            p = self.iptr[x]
            self.iptr[x] = len(ind)
            self.cap[x] = 2 * d + 2
            ind.extend(ind[p : p + d])
            ind.extend(repeat(0, d + 2))
        ind[self.iptr[x] + d] = y
        self.deg[x] = d + 1

    def _unlink(self, x: int, y: int) -> None:
        ind, p, last = self.ind, self.iptr[x], self.deg[x] - 1
        ind[ind.index(y, p, p + last + 1)] = ind[p + last]
        self.deg[x] = last

    def _relevel(self, touched: Sequence[int]) -> bool:
        deg, block, lp = self.deg, self.block, self.lp
        if all(deg[x] in block for x in touched):
            for x in touched:
                lp[x] = block[deg[x]]
            return False
        start, self.vli, self.lvl_val = _rank_ladder(
            {*block, *map(deg.__getitem__, touched)}
        )
        self.block = start
        self.lp = [start[d] for d in deg]
        self._reset_bins()
        return True

    # -- the batch path: core numbers and full-core re-peels ------------

    def core_numbers(self) -> list[int]:
        """Core numbers by state id: one bucket pass over the adjacency."""
        core, _ = bucket_core_numbers(self.iptr, self.deg, self.ind)
        return core

    def peel_cores(
        self, core: Sequence[int], reach: int
    ) -> Iterator[tuple[int, list[Vertex], list[float]]]:
        """Peel the whole k-core for ``k = 2 .. reach``, in ascending order.

        ``core`` are the state's :meth:`core_numbers`.  Yields ``(k,
        order, p_numbers)`` with ``order`` in labels: the ``A_k`` a full
        decomposition builds, empty above the degeneracy.  Each vertex's
        count of k-core neighbours is kept incrementally as ``k`` rises:
        stepping to ``k`` retires the core-``(k-1)`` vertices and
        decrements their neighbours, so every adjacency slot is walked
        once over the sweep.  A non-member needs no reset: with core
        number ``c < k`` it has at most ``c <= k-1`` neighbours in the
        k-core (one more would put it in the ``(c+1)``-core), which the
        drain reads as dead.  So the drain reads each member's whole
        block (``plen = deg``) and never decrements a non-member.
        """
        iptr, ind, deg, labels = self.iptr, self.ind, self.deg, self.label_of
        top = max(core, default=0)
        by_core: list[list[int]] = [[] for _ in range(top + 1)]
        for v, c in enumerate(core):
            by_core[c].append(v)
        # Parks: one per member plus at most one per decrement.
        need = len(core) + sum(deg) + 1
        if len(self.arena_vertex) < need:
            grow = need - len(self.arena_vertex)
            self.arena_vertex.extend(repeat(0, grow))
            self.arena_next.extend(repeat(0, grow))
        # The k-core is a prefix of ``members`` (descending core number);
        # at k = 1 every neighbour counts (core 0 means isolated).
        members = [v for c in range(top, 0, -1) for v in by_core[c]]
        size = len(members)
        counts = deg[:]
        obs = get_collector()
        for k in range(2, reach + 1):
            if k > top:
                yield k, [], []
                continue
            retired = by_core[k - 1]
            for u in retired:
                p = iptr[u]
                for w in ind[p : p + deg[u]]:
                    counts[w] -= 1
            size -= len(retired)
            trace_start = time.perf_counter() if obs is not None else 0.0
            order, p_numbers, _ = _drain(
                self, k, members[:size], deg, counts[:],
                stop_rank=self.num_levels, fresh=(), pending=0,
                obs=obs, trace_start=trace_start,
            )
            yield k, [labels[v] for v in order], p_numbers

    # -- the window re-peel --------------------------------------------

    def peel_window(
        self,
        residual: Sequence[Vertex],
        first_new: int,
        k: int,
        p_plus: float,
    ) -> tuple[list[Vertex], list[float], list[Vertex], bool]:
        """Peel the subgraph induced by ``residual`` at fixed ``k``.

        ``residual[:first_new]`` are vertices with an old p-number, in old
        array order; ``residual[first_new:]`` are new k-core members.
        Keys use the global degree ``deg_G(v)`` as denominator, so every
        emitted p-number is the same double a full decomposition stores.
        Before every round the Theorem 4/9 early stop applies: once the
        round's level exceeds ``p_plus`` and no new member is still alive,
        the peel stops and the survivors keep their old p-numbers.

        A correct window's residual is a k-core of the graph (the
        ``pn >= p_-`` suffix of ``A_k`` is one), so a vertex that starts
        with fewer than ``k`` residual neighbours means the window is
        wrong: :class:`~repro.errors.IndexStateError` is raised before
        anything is peeled.

        Returns ``(order, p_numbers, tail, stopped_early)``; ``tail`` is
        the survivors in old array order (empty unless the peel stopped
        early).  Within a round, ``order`` is sorted by state id.
        """
        if not residual:
            return [], [], [], False
        ids = list(map(self.id_of.__getitem__, residual))
        iptr, ind, deg, deg_s, fresh = (
            self.iptr, self.ind, self.deg, self.deg_s, self.fresh
        )
        # Mark the residual, then count each member's marked neighbours:
        # its residual degree, without copying the residual anywhere.
        for v in ids:
            deg_s[v] = 1
        marked: Callable[[int], int] = deg_s.__getitem__
        counts = [sum(map(marked, ind[iptr[v] : iptr[v] + deg[v]])) for v in ids]
        new_ids = ids[first_new:]
        try:
            low = min(counts)
            if low < k:
                w = residual[counts.index(low)]
                raise IndexStateError(
                    f"A_{k}: residual vertex {w!r} has {low} residual "
                    f"neighbours < k; the re-peel window does not contain "
                    f"every change"
                )
            for v, c in zip(ids, counts):
                deg_s[v] = c
            for v in new_ids:
                fresh[v] = 1
            # Parks: one per member plus at most one per decrement.
            need = len(ids) + sum(counts)
            if len(self.arena_vertex) < need:
                grow = need - len(self.arena_vertex)
                self.arena_vertex.extend(repeat(0, grow))
                self.arena_next.extend(repeat(0, grow))
            order, p_numbers, stopped = _drain(
                self, k, ids, deg, deg_s,
                stop_rank=bisect_right(self.lvl_val, p_plus),
                fresh=fresh, pending=len(new_ids),
                obs=None, trace_start=0.0,
            )
            km1 = k - 1
            tail = (
                [w for w, v in zip(residual[:first_new], ids) if deg_s[v] > km1]
                if stopped
                else []
            )
        finally:
            for v in ids:
                deg_s[v] = 0
            for v in new_ids:
                fresh[v] = 0
        labels = self.label_of
        return [labels[v] for v in order], p_numbers, tail, stopped


def _drain(
    state: _DrainState,
    k: int,
    members: Sequence[int],
    plen: Sequence[int],
    deg_s: list[int],
    *,
    stop_rank: int,
    fresh: Sequence[int],
    pending: int,
    obs: Instrumentation | None,
    trace_start: float,
) -> tuple[list[int], list[float], bool]:
    """Rounds walk the rank cursor, cascades re-park; see the module doc.

    ``members`` start with ``deg_s >= k`` and are parked at their rank.
    Vertex ``v``'s live neighbours are ``ind[iptr[v] : iptr[v] +
    plen[v]]``.  Before each round the peel stops when the cursor has
    reached ``stop_rank`` and none of the ``pending`` vertices flagged in
    ``fresh`` is alive; the third result says whether it did.
    """
    # Local bindings for the interpreter loop (every name below is read
    # O(m_k) times).
    iptr, ind = state.iptr, state.ind
    vli, lp, lvl_val = state.vli, state.lp, state.lvl_val
    rank_of = state.rank_of
    bin_head, bin_epoch = state.bin_head, state.bin_epoch
    arena_vertex, arena_next = state.arena_vertex, state.arena_next
    state.epoch += 1
    epoch = state.epoch
    km1 = k - 1
    # Every member starts with deg_s[v] >= k > k-1, so "deg_s[v] > k-1"
    # is true exactly for the not-yet-killed vertices: no separate alive
    # array, and killing is one clamp to k-1.
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
    stack: list[int] = []
    stack_append = stack.append
    stack_pop = stack.pop
    parked = tail
    order: list[int] = []
    p_numbers: list[float] = []
    order_extend = order.extend
    pn_extend = p_numbers.extend
    remaining = len(members)
    cur = rank_min
    stopped = False
    dirty: list[int] = []
    dirty_append = dirty.append
    tstamp = state.touch_stamp
    stamp = state.stamp
    is_new: Callable[[int], int] = fresh.__getitem__
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
        if cur >= stop_rank and not pending:
            # Theorems 4/9: every later level exceeds p_+, so the
            # survivors keep their old p-numbers.
            stopped = True
            break
        # Seed a round: consume the chain parked at the cursor rank,
        # filtering entries whose vertex died or re-parked lower.
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
        if pending:
            pending -= sum(map(is_new, round_buf))
        cur += 1
    state.stamp = stamp
    if obs is not None:
        # moves = round-end re-parks (deduped: one per touched vertex per
        # round); rekeys adds the cascade kills, whose thresholds were
        # also recomputed before they dropped out.
        moves = tail - parked
        peeled = len(order)
        obs.inc(names.DECOMP_ROUNDS)
        obs.add(names.DECOMP_PEELS, peeled)
        obs.add(names.DECOMP_REKEYS, moves + peeled - seeds_total)
        obs.add(names.DECOMP_FLAT_MOVES, moves)
        obs.add(names.DECOMP_FLAT_RANK_SKIPS, rank_skips)
        obs.observe(names.DECOMP_FLAT_LEVELS, state.num_levels)
        obs.observe(names.DECOMP_ARRAY_SIZE, peeled)
        obs.record(
            names.TRACE_PEEL_FIXED_K,
            trace_start,
            time.perf_counter(),
            k=k,
            vertices=peeled,
        )
    return order, p_numbers, stopped
