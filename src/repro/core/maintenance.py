"""KP-Index maintenance under edge insertion/deletion (Sec. VI, Algs. 4-5).

:class:`KPIndexMaintainer` owns a graph, a :class:`~repro.kcore.
maintenance.CoreMaintainer` (incremental core numbers) and a
:class:`~repro.core.index.KPIndex`, and keeps the index exact under single
edge updates.  Per update it:

1. applies the edge to the graph and incrementally repairs core numbers,
2. skips every ``A_k`` with ``k`` above ``max(cn(u), cn(v))``
   (Theorem 2 for insertion, Theorem 7 for deletion),
3. for each remaining ``k``, derives a p-number window ``[p_-, p_+]`` from
   the case analysis of Algorithms 4/5 (Theorems 3-5, 8, 9, Defs. 5-7) —
   vertices with old p-number outside the window are untouched,
4. re-peels only the induced subgraph on the windowed vertices, stopping as
   soon as the peel level exceeds ``p_+`` (the survivors keep their old
   p-numbers), and splices the recomputed segment back into ``A_k``.

Theorem 6 supplies an extra early-exit: when only the larger-core endpoint
is in the k-core and a support bound certifies its p-number cannot drop,
``A_k`` is skipped without any re-peel.

Two modes support the ablation benchmark: ``RANGE`` (the full machinery
above, the paper's algorithm) and ``FULL_K`` (skip rules only; every
affected ``A_k`` is re-peeled in full).  Both are property-tested for exact
agreement with from-scratch decomposition.

:meth:`KPIndexMaintainer.apply_batch` amortizes a *burst* of updates: the
batch is coalesced (insert+delete pairs of one edge cancel), the per-edge
windows above are unioned per affected ``A_k``, and each array re-peels
exactly **once** per batch — membership-stable arrays through the unioned
``[p_-, p_+]`` window, membership-churned arrays through one shared
:class:`~repro.graph.compact.CompactAdjacency` snapshot and the Algorithm 2
peel engines (optionally fanned across the ``repro.core.parallel`` worker
pool).  Version counters consequently bump once per touched array per
batch, which is what lets the serving cache invalidate once instead of
once per edge (see docs/algorithms.md, "Batched maintenance").
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from bisect import bisect_left
from heapq import heappush, heappop, heapify
from typing import Callable, Iterable, Sequence

from repro.devtools.contracts import (
    verify_batch_state,
    verify_maintainer_query,
    verify_maintainer_update,
)

from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    IndexStateError,
    ParameterError,
    SelfLoopError,
)
from repro.graph.adjacency import Graph, Vertex
from repro.graph.compact import CompactAdjacency
from repro.kcore.maintenance import CoreMaintainer
from repro.obs import names as metric
from repro.obs.instrumentation import Instrumentation, get_collector, maybe_span
from repro.core.bounds import (
    BoundsCache,
    degree_in,
    deletion_pair_bound,
    insertion_support_bound,
)
from repro.core.index import KArray, KPIndex
from repro.core.parallel import peel_all_k
from repro.core.peel_engines import DEFAULT_ENGINE, get_engine, make_scratch
from repro.core.pvalue import fraction_value

__all__ = [
    "MaintenanceMode",
    "MaintenanceStats",
    "BatchReport",
    "coalesce_updates",
    "KPIndexMaintainer",
]


class MaintenanceMode(enum.Enum):
    """How aggressively an update narrows the re-peeled region."""

    #: Theorems 2/7 skip rules only; affected arrays re-peel in full.
    FULL_K = "full-k"
    #: Additionally narrow each affected array to the ``[p_-, p_+]`` window
    #: and early-exit via Theorem 6 — the paper's Algorithms 4/5.
    RANGE = "range"


@dataclass
class MaintenanceStats:
    """Work counters for the efficiency/ablation benchmarks."""

    insertions: int = 0
    deletions: int = 0
    arrays_examined: int = 0
    arrays_skipped_theorem6: int = 0
    arrays_updated: int = 0
    vertices_repeeled: int = 0
    early_stops: int = 0
    fallback_rebuilds: int = 0
    batches: int = 0
    batch_cancelled_pairs: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class BatchReport:
    """What one :meth:`KPIndexMaintainer.apply_batch` call did.

    ``windowed_repeels``/``full_repeels`` report the batch planner's
    classification and are both 0 for a coalesced batch of one update,
    which delegates to the single-edge algorithms verbatim.
    """

    applied: int
    cancelled_pairs: int
    arrays_repeeled: int
    windowed_repeels: int = 0
    full_repeels: int = 0


@dataclass
class _KTouch:
    """Per-``A_k`` accumulator over one coalesced batch."""

    #: Every batch-edge endpoint whose op registered at this k — exactly
    #: the vertices whose degree may differ between the pre- and
    #: post-batch graph while sitting in (either version of) the k-core.
    endpoints: set[Vertex] = field(default_factory=set)
    #: Net membership churn of the k-core across the batch.
    joined: set[Vertex] = field(default_factory=set)
    left: set[Vertex] = field(default_factory=set)
    #: True as soon as *any* promote/demote event fired at this k, even if
    #: a later opposite event cancelled it: a mid-batch membership dip
    #: breaks the endpoint-registration invariant the windowed path relies
    #: on (an op only registers at k when an endpoint's core number is
    #: >= k *at that moment*), so such an array re-peels in full.
    membership_changed: bool = False


def coalesce_updates(
    graph: Graph, updates: Iterable[tuple[str, Vertex, Vertex]]
) -> tuple[list[tuple[str, Vertex, Vertex]], int]:
    """Validate a mixed batch and reduce it to net per-edge operations.

    Each edge keeps at most one net op: an insert+delete pair on the same
    edge (in either order) cancels outright, and the whole op sequence is
    validated against the *simulated* edge presence before anything
    mutates — a self-loop, a double insert, or a delete of an absent edge
    raises with no state change, which is what makes
    :meth:`KPIndexMaintainer.apply_batch` all-or-nothing in memory.
    Returns the net ops in first-touch order (first-seen endpoint
    orientation) plus the number of cancelled insert+delete pairs.
    """
    initial: dict[frozenset[Vertex], bool] = {}
    current: dict[frozenset[Vertex], bool] = {}
    orientation: dict[frozenset[Vertex], tuple[Vertex, Vertex]] = {}
    op_counts: dict[frozenset[Vertex], int] = {}
    order: list[frozenset[Vertex]] = []
    for op, u, v in updates:
        if op not in ("insert", "delete"):
            raise ParameterError(
                f"unknown update op {op!r} (expected 'insert' or 'delete')"
            )
        if u == v:
            raise SelfLoopError(u)
        edge = frozenset((u, v))
        if edge not in current:
            present = graph.has_edge(u, v)
            initial[edge] = present
            current[edge] = present
            orientation[edge] = (u, v)
            op_counts[edge] = 0
            order.append(edge)
        op_counts[edge] += 1
        if op == "insert":
            if current[edge]:
                raise EdgeExistsError(u, v)
            current[edge] = True
        else:
            if not current[edge]:
                raise EdgeNotFoundError(u, v)
            current[edge] = False
    net: list[tuple[str, Vertex, Vertex]] = []
    cancelled = 0
    for edge in order:
        u, v = orientation[edge]
        surviving = 0 if current[edge] == initial[edge] else 1
        cancelled += (op_counts[edge] - surviving) // 2
        if surviving:
            net.append(("insert" if current[edge] else "delete", u, v))
    return net, cancelled


@dataclass
class _PeelResult:
    order: list[Vertex] = field(default_factory=list)
    p_numbers: list[float] = field(default_factory=list)
    tail: list[Vertex] = field(default_factory=list)
    stopped_early: bool = False


class KPIndexMaintainer:
    """Keeps a :class:`KPIndex` exact while its graph receives edge updates.

    Parameters
    ----------
    graph:
        The graph to index; the maintainer takes ownership — mutate it only
        through :meth:`insert_edge` / :meth:`delete_edge`.
    mode:
        See :class:`MaintenanceMode`.
    strict:
        When true, internal consistency violations raise
        :class:`~repro.errors.IndexStateError` instead of triggering a
        defensive full re-peel of the affected array.  Tests run strict.
    index:
        An already-built :class:`KPIndex` of exactly ``graph`` — a loaded
        checkpoint in the durability layer (:mod:`repro.service`) — to
        resume from instead of rebuilding with Algorithm 2.  The caller
        is responsible for the graph/index pairing (the service layer
        verifies it via graph fingerprints); the index is structurally
        :meth:`~KPIndex.validate`-d here.
    """

    def __init__(
        self,
        graph: Graph,
        mode: MaintenanceMode = MaintenanceMode.RANGE,
        strict: bool = False,
        index: KPIndex | None = None,
    ) -> None:
        self.graph = graph
        self.mode = mode
        self.strict = strict
        #: Write-ahead hooks: each callable receives ``(op, u, v)`` with
        #: ``op`` in ``{"insert", "delete"}`` *before* the update is
        #: applied — the journaling point of :mod:`repro.service`.  A hook
        #: that raises aborts the update before any state changes.
        self.update_hooks: list[Callable[[str, Vertex, Vertex], None]] = []
        #: Batch write-ahead hooks: each callable receives the *coalesced*
        #: net op list once per :meth:`apply_batch`, after validation and
        #: before any mutation — the atomic-group journaling point of
        #: :class:`repro.service.durable.DurableMaintainer`.  ``apply_batch``
        #: deliberately does **not** fire the per-edge ``update_hooks``
        #: (a batch must journal as one record, not be double-logged).
        self.batch_hooks: list[
            Callable[[Sequence[tuple[str, Vertex, Vertex]]], None]
        ] = []
        self._cores = CoreMaintainer(graph)
        if index is None:
            self.index = KPIndex.build(graph)
        else:
            index.validate()
            self.index = index
        self.stats = MaintenanceStats()

    def _fire_update_hooks(self, op: str, u: Vertex, v: Vertex) -> None:
        for hook in self.update_hooks:
            hook(op, u, v)

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------
    def core_number(self, v: Vertex) -> int:
        return self._cores.core_number(v)

    @verify_maintainer_query
    def query(self, k: int, p: float) -> list[Vertex]:
        """Answer a (k,p)-core query on the current graph.

        Under ``REPRO_VERIFY=1`` the answer is compared against a
        from-scratch :func:`repro.core.kpcore.kp_core_vertices` run.
        """
        return self.index.query(k, p)

    @verify_maintainer_query
    def query_slice(self, k: int, p: float) -> tuple[Vertex, ...]:
        """The (k,p)-core answer as the index's stored tuple (shared).

        The serving hot path: no per-query list build.  Verified against
        from-scratch kpCore under ``REPRO_VERIFY=1`` like :meth:`query`.
        """
        return self.index.query_slice(k, p)

    # ------------------------------------------------------------------
    # vertex dynamics (Sec. VI preamble): reduce to edge updates
    # ------------------------------------------------------------------
    def insert_vertex(self, v: Vertex, neighbors: Iterable[Vertex] = ()) -> None:
        """Insert a vertex and then each of its incident edges.

        Following the paper, a fresh vertex starts with ``cn = 0`` and
        ``pn = 0`` everywhere; every incident edge is handled by
        :meth:`insert_edge`.
        """
        self.graph.add_vertex(v)
        self._cores.insert_vertex(v)
        for w in neighbors:
            self.insert_edge(v, w)

    def delete_vertex(self, v: Vertex) -> None:
        """Delete ``v`` by removing its incident edges one at a time."""
        for w in list(self.graph.neighbors(v)):
            self.delete_edge(v, w)
        self._cores.delete_vertex(v)
        array = self.index.arrays().get(1)
        if array is not None and array.contains(v):
            array.vertices = [w for w in array.vertices if w != v]
            array.p_numbers = [1.0] * len(array.vertices)
            array._rebuild_levels()
            self.index.bump_version(1)

    def apply_updates(
        self,
        insertions: Iterable[tuple[Vertex, Vertex]] = (),
        deletions: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> None:
        """Apply a batch of edge updates (deletions first, then insertions).

        Convenience wrapper over the single-edge algorithms; the index is
        exact after every intermediate step, so a failure mid-batch leaves
        a consistent (partially updated) state.
        """
        for u, v in deletions:
            self.delete_edge(u, v)
        for u, v in insertions:
            self.insert_edge(u, v)

    # ------------------------------------------------------------------
    # batched maintenance: one re-peel per affected A_k
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        updates: Iterable[tuple[str, Vertex, Vertex]],
        *,
        engine: str = DEFAULT_ENGINE,
        workers: int = 1,
    ) -> BatchReport:
        """Apply a mixed batch of ``(op, u, v)`` updates, coalesced.

        The batch is validated and coalesced first
        (:func:`coalesce_updates`) — an invalid op sequence raises before
        anything mutates, and insert+delete pairs of the same edge cancel
        without touching the index at all.  Every surviving update is then
        applied to the graph/core numbers, and each affected ``A_k``
        re-peels exactly **once**:

        * membership-stable arrays re-peel the *union* of the per-edge
          Thm. 3-5/8/9 windows ``[p_-, p_+]`` (and are skipped outright
          when the unioned support bound meets the unioned cap — the
          batched form of Theorem 6);
        * arrays whose k-core membership churned re-peel in full through
          one shared :class:`CompactAdjacency` snapshot and the selected
          Algorithm 2 peel ``engine`` (scratch reused across ks;
          ``workers > 1`` fans these across the process pool).

        Each touched array bumps its version once per batch, so serving
        caches invalidate once instead of once per edge.  A coalesced
        batch of exactly one update delegates to the single-edge
        Algorithm 4/5 code path verbatim (same windows, same Theorem 6
        skips, same version bumps).
        """
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        get_engine(engine)  # validate the name before any mutation
        ops, cancelled = coalesce_updates(self.graph, updates)
        self.stats.batches += 1
        self.stats.batch_cancelled_pairs += cancelled
        obs = get_collector()
        if obs is not None:
            obs.inc(metric.MAINT_BATCH_BATCHES)
            obs.add(metric.MAINT_BATCH_UPDATES, len(ops))
            obs.add(metric.MAINT_BATCH_CANCELLED, cancelled)
        if not ops:
            return BatchReport(0, cancelled, 0)
        for hook in self.batch_hooks:
            hook(ops)
        before_updated = self.stats.arrays_updated
        if len(ops) == 1:
            op, u, v = ops[0]
            if op == "insert":
                with maybe_span(metric.MAINT_SPAN_INSERT):
                    self._insert_edge_impl(u, v)
            else:
                with maybe_span(metric.MAINT_SPAN_DELETE):
                    self._delete_edge_impl(u, v)
            verify_batch_state(self, (u, v))
            return BatchReport(
                1, cancelled, self.stats.arrays_updated - before_updated
            )
        with maybe_span(metric.MAINT_SPAN_BATCH):
            windowed, full = self._apply_batch_impl(ops, engine, workers)
        verify_batch_state(
            self, tuple({w for _, u, v in ops for w in (u, v)})
        )
        return BatchReport(
            applied=len(ops),
            cancelled_pairs=cancelled,
            arrays_repeeled=self.stats.arrays_updated - before_updated,
            windowed_repeels=windowed,
            full_repeels=full,
        )

    def _apply_batch_impl(
        self,
        ops: Sequence[tuple[str, Vertex, Vertex]],
        engine: str,
        workers: int,
    ) -> tuple[int, int]:
        """Apply coalesced ``ops``; returns (windowed, full) re-peel counts."""
        obs = get_collector()
        touched: dict[int, _KTouch] = {}

        def touch(k: int) -> _KTouch:
            t = touched.get(k)
            if t is None:
                t = _KTouch()
                touched[k] = t
            return t

        for op, u, v in ops:
            if op == "insert":
                cn_old_u = self._cores.core_number_or(u)
                cn_old_v = self._cores.core_number_or(v)
                promoted = self._cores.insert_edge(u, v)
                self.stats.insertions += 1
                self.index.adjust_num_edges(+1)
                low = min(cn_old_u, cn_old_v)
                k_changed = low + 1 if promoted else None
                movers = promoted
                k_max = max(
                    self._cores.core_number(u), self._cores.core_number(v)
                )  # Theorem 2
            else:
                cn_old_u = self._cores.core_number(u)
                cn_old_v = self._cores.core_number(v)
                movers = self._cores.delete_edge(u, v)
                self.stats.deletions += 1
                self.index.adjust_num_edges(-1)
                low = min(cn_old_u, cn_old_v)
                k_changed = low if movers else None
                k_max = max(cn_old_u, cn_old_v)  # Theorem 7
            for k in range(2, k_max + 1):
                touch(k).endpoints.update((u, v))
            if k_changed is not None and k_changed >= 2:
                t = touch(k_changed)
                t.membership_changed = True
                if op == "insert":
                    for w in movers:
                        if w in t.left:
                            t.left.discard(w)
                        else:
                            t.joined.add(w)
                else:
                    for w in movers:
                        if w in t.joined:
                            t.joined.discard(w)
                        else:
                            t.left.add(w)

        self._update_a1_after_batch(ops)

        windowed_plans: list[tuple[KArray, float, float]] = []
        full_ks: list[int] = []
        for k in sorted(touched):
            t = touched[k]
            self.stats.arrays_examined += 1
            if obs is not None:
                obs.inc(metric.MAINT_ARRAYS_EXAMINED)
            array = self._ensure_array(k)
            if self.mode is MaintenanceMode.FULL_K or t.membership_changed:
                full_ks.append(k)
                continue
            plan = self._batch_window(array, t)
            if plan is None:
                # Batched Theorem 6: the unioned window is empty, so the
                # array provably cannot change — no re-peel, no bump.
                self.stats.arrays_skipped_theorem6 += 1
                if obs is not None:
                    obs.inc(metric.MAINT_THM6_SKIPS)
                continue
            p_minus, p_plus = plan
            if obs is not None:
                obs.inc(metric.MAINT_BATCH_WINDOW_UNIONS)
                self._record_window(obs, p_minus, p_plus)
            windowed_plans.append((array, p_minus, p_plus))
        for array, p_minus, p_plus in windowed_plans:
            self._repeel_and_splice(array, None, p_minus, p_plus, set())
        if full_ks:
            self._repeel_full_arrays(full_ks, engine, workers)
        if obs is not None:
            obs.add(metric.MAINT_BATCH_FULL_REPEELS, len(full_ks))
            obs.add(
                metric.MAINT_BATCH_ARRAYS,
                len(full_ks) + len(windowed_plans),
            )
        return len(windowed_plans), len(full_ks)

    def _batch_window(
        self, array: KArray, t: _KTouch
    ) -> tuple[float, float] | None:
        """The unioned ``[p_-, p_+]`` window of one membership-stable array.

        ``p_+`` (Thms. 4/9 unioned): for ``p0`` above every endpoint's old
        p-number, ``C_{k,p0}(G)`` avoids every batch edge and stays valid
        in the post-batch graph ``G_B``; for ``p0`` above every
        member-endpoint's ``p̃`` (computed on ``G_B``), ``C_{k,p0}(G_B)``
        avoids every endpoint and stays valid in ``G`` — above the max of
        both, the two cores coincide and the suffix is untouched.

        ``p_-`` (Thms. 3/5/8 + Def. 7 unioned, clamped): with ``p1`` the
        smallest member-endpoint old p-number, ``C = C_{k,p1}(G)`` is its
        own witness on ``G_B`` — non-endpoint members keep their degrees
        (every degree-changed k-core vertex is a registered endpoint),
        and member endpoints are re-checked explicitly.  Every member of
        ``C`` keeps ``pn >= p_-``, so the prefix below ``p_-`` is
        identical.  Returns ``None`` when ``p_- >= p_+``: the window is
        empty and the array provably cannot change (batched Theorem 6).
        """
        members = array.members_view()
        bounds = BoundsCache(self.graph, members)
        graph = self.graph
        p_plus = 0.0
        inside: list[Vertex] = []
        for x in t.endpoints:
            pn_old = array.p_number_or(x, 0.0)
            if pn_old > p_plus:
                p_plus = pn_old
            if x in members:
                inside.append(x)
                cap = bounds.p_tilde(x)
                if cap > p_plus:
                    p_plus = cap
        if not inside:
            return 0.0, p_plus
        p1 = min(array.p_number(x) for x in inside)
        witness = set(array.query(p1))
        p_minus = p1
        for x in inside:
            dx = degree_in(graph, witness, x)
            if dx < array.k:
                p_minus = 0.0
                break
            fx = fraction_value(dx, graph.degree(x))
            if fx < p_minus:
                p_minus = fx
        if p_minus >= p_plus and p_plus > 0.0:
            return None
        return p_minus, p_plus

    def _repeel_full_arrays(
        self, ks: Sequence[int], engine: str, workers: int
    ) -> None:
        """Re-peel each ``A_k`` in ``ks`` from scratch with a peel engine.

        One :class:`CompactAdjacency` snapshot of the live graph is built
        per batch and shared by every array (and, with ``workers > 1``,
        shipped once per worker through the pool initializer), so the
        per-array marginal cost is the engine peel itself — the same
        kernels Algorithm 2 runs, scratch reused across the ks.
        """
        obs = get_collector()
        snapshot = CompactAdjacency(self.graph)
        cn = self._cores.core_numbers()
        core = [cn.get(label, 0) for label in snapshot.labels]
        snapshot.sort_neighbors_by_rank_desc(core)
        if workers > 1 and len(ks) > 1:
            peeled = peel_all_k(
                snapshot,
                core,
                max(ks),
                engine=engine,
                workers=workers,
                ks=ks,
            )
        else:
            engine_fn = get_engine(engine)
            scratch = make_scratch(engine, snapshot, core)
            peeled = {
                k: engine_fn(snapshot, core, k, scratch=scratch) for k in ks
            }
        labels = snapshot.labels
        arrays = self.index.arrays()
        for k in ks:
            order, p_numbers = peeled[k]
            array = arrays[k]
            # Bump before touching the array — the same discipline as
            # _repeel_and_splice: a conservative bump only costs cache
            # entries, it can never let a stale answer survive.
            self.index.bump_version(k)
            array.vertices = [labels[i] for i in order]
            array.p_numbers = list(p_numbers)
            array._rebuild_levels()
            self.stats.arrays_updated += 1
            self.stats.vertices_repeeled += len(order)
            if obs is not None:
                obs.inc(metric.MAINT_ARRAYS_REPEELED)
                obs.add(metric.MAINT_VERTICES_REPEELED, len(order))

    def _update_a1_after_batch(
        self, ops: Sequence[tuple[str, Vertex, Vertex]]
    ) -> None:
        """One-shot A_1 bookkeeping for a whole batch (single bump).

        Runs after every graph mutation of the batch: A_1 membership is
        purely degree-based (every non-isolated vertex, pn 1.0), so the
        final graph decides the adds and drops in one pass.
        """
        endpoints = {w for _, u, v in ops for w in (u, v)}
        if not endpoints:
            return
        array = self._ensure_array(1)
        graph = self.graph
        drop = {w for w in endpoints if graph.degree(w) == 0}
        added: set[Vertex] = set()
        add: list[Vertex] = []
        for _, u, v in ops:
            for w in (u, v):
                if w in drop or w in added or array.contains(w):
                    continue
                added.add(w)
                add.append(w)
        if not drop.intersection(array.members_view()) and not add:
            return
        if drop:
            array.vertices = [w for w in array.vertices if w not in drop]
        array.vertices.extend(add)
        array.p_numbers = [1.0] * len(array.vertices)
        array._rebuild_levels()
        self.index.bump_version(1)

    # ------------------------------------------------------------------
    # edge insertion — Algorithm 4 (kpIndexInsert)
    # ------------------------------------------------------------------
    @verify_maintainer_update
    def insert_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert ``(u, v)`` and repair the index.

        Under ``REPRO_OBS`` the update records one counter per theorem it
        fires (Thms. 2-6) plus the ``[p_-, p_+]`` windows it re-peels.
        """
        self._fire_update_hooks("insert", u, v)
        with maybe_span(metric.MAINT_SPAN_INSERT):
            self._insert_edge_impl(u, v)

    def _insert_edge_impl(self, u: Vertex, v: Vertex) -> None:
        obs = get_collector()
        cn_old_u = self._cores.core_number_or(u)
        cn_old_v = self._cores.core_number_or(v)
        promoted = self._cores.insert_edge(u, v)  # graph is now G+
        self.stats.insertions += 1
        self.index.adjust_num_edges(+1)
        self._update_a1_after_insert(u, v)

        low, high = sorted((cn_old_u, cn_old_v))
        small, large = (u, v) if cn_old_u <= cn_old_v else (v, u)
        k_changed = low + 1 if promoted else None
        k_max = max(self._cores.core_number(u), self._cores.core_number(v))
        if obs is not None:
            # Theorem 2: every A_k with k > max(cn(u), cn(v)) is provably
            # untouched — count how many the k-range cut skips outright.
            obs.add(
                metric.MAINT_THM2_SKIPS,
                max(0, self.index.degeneracy - max(k_max, 1)),
            )

        for k in range(2, k_max + 1):
            self.stats.arrays_examined += 1
            if obs is not None:
                obs.inc(metric.MAINT_ARRAYS_EXAMINED)
            array = self._ensure_array(k)
            if self.mode is MaintenanceMode.FULL_K:
                # Promotions only enter the (low+1)-core; other arrays keep
                # their membership and are merely re-peeled.
                joining = promoted if k == k_changed else set()
                members = self._current_members(array, k, joining, set())
                self._repeel_and_splice(
                    array, members, 0.0, 1.0, new_members=set(members)
                )
                continue
            if k == k_changed:
                # Minor case: `promoted` just joined this k-core.  Levels
                # above every endpoint bound are unchanged: for p0 beyond
                # the old p-numbers, C_{k,p0}(G) avoids the new edge and
                # stays valid in G+; beyond both p̃ bounds, C_{k,p0}(G+)
                # avoids both endpoints and stays valid in G.
                members = self._current_members(array, k, promoted, set())
                bounds = BoundsCache(self.graph, members)
                p_plus = max(
                    array.p_number_or(u, 0.0),
                    array.p_number_or(v, 0.0),
                    bounds.p_tilde(u),
                    bounds.p_tilde(v),
                )
                if obs is not None:
                    obs.inc(metric.MAINT_MINOR_CASES)
                    self._record_window(obs, 0.0, p_plus)
                self._repeel_and_splice(
                    array, members, 0.0, p_plus, new_members=set(promoted)
                )
            elif k <= low:
                # Case 1.1: both endpoints are in the (unchanged) k-core;
                # membership tests run against the array's own p-number
                # map, avoiding an O(|V_k|) set build.
                pn_u = array.p_number_or(u, 0.0)
                pn_v = array.p_number_or(v, 0.0)
                p_minus = min(pn_u, pn_v)  # Theorem 3
                bounds = BoundsCache(self.graph, array.members_view())
                p_plus = max(  # Theorem 4
                    min(bounds.p_tilde(u), bounds.p_tilde(v)),
                    pn_u,
                    pn_v,
                )
                if obs is not None:
                    obs.inc(metric.MAINT_THM3_WINDOWS)
                    obs.inc(metric.MAINT_THM4_WINDOWS)
                    self._record_window(obs, p_minus, p_plus)
                self._repeel_and_splice(array, None, p_minus, p_plus, set())
            else:
                # Case 1.2: cn(small) < k <= cn(large); only `large` is in
                # the k-core and its p-number can only decrease.
                p1 = array.p_number_or(large, 0.0)
                core_at_p1 = set(array.query(p1))
                p_star = insertion_support_bound(self.graph, core_at_p1, large, p1)
                if p_star >= p1:  # Theorem 6: A_k provably unchanged
                    self.stats.arrays_skipped_theorem6 += 1
                    if obs is not None:
                        obs.inc(metric.MAINT_THM6_SKIPS)
                    continue
                if obs is not None:
                    obs.inc(metric.MAINT_THM5_WINDOWS)
                    self._record_window(obs, p_star, p1)
                self._repeel_and_splice(array, None, p_star, p1, set())

    # ------------------------------------------------------------------
    # edge deletion — Algorithm 5 (kpIndexDelete)
    # ------------------------------------------------------------------
    @verify_maintainer_update
    def delete_edge(self, u: Vertex, v: Vertex) -> None:
        """Delete ``(u, v)`` and repair the index.

        Under ``REPRO_OBS`` the update records one counter per theorem it
        fires (Thms. 7-9) plus the ``[p_-, p_+]`` windows it re-peels.
        """
        self._fire_update_hooks("delete", u, v)
        with maybe_span(metric.MAINT_SPAN_DELETE):
            self._delete_edge_impl(u, v)

    def _delete_edge_impl(self, u: Vertex, v: Vertex) -> None:
        obs = get_collector()
        if not self.graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        cn_old_u = self._cores.core_number(u)
        cn_old_v = self._cores.core_number(v)
        demoted = self._cores.delete_edge(u, v)  # graph is now G-
        self.stats.deletions += 1
        self.index.adjust_num_edges(-1)
        self._update_a1_after_delete(u, v)

        low, high = sorted((cn_old_u, cn_old_v))
        large = v if cn_old_v >= cn_old_u else u
        k_changed = low if demoted else None
        k_max = high  # Theorem 7
        if obs is not None:
            # Theorem 7: arrays above both old core numbers are untouched.
            obs.add(
                metric.MAINT_THM7_SKIPS,
                max(0, self.index.degeneracy - max(k_max, 1)),
            )

        for k in range(2, k_max + 1):
            self.stats.arrays_examined += 1
            if obs is not None:
                obs.inc(metric.MAINT_ARRAYS_EXAMINED)
            array = self._ensure_array(k)
            if self.mode is MaintenanceMode.FULL_K:
                # Demotions only leave the low-core; other arrays keep
                # their membership and are merely re-peeled.
                leaving = demoted if k == k_changed else set()
                members = self._current_members(array, k, set(), leaving)
                self._repeel_and_splice(
                    array, members, 0.0, 1.0, new_members=set(members)
                )
                continue
            if k == k_changed:
                # Minor case: `demoted` just left this k-core.  Unlike the
                # paper's Sec. VI-B, the cap must also dominate the *old*
                # endpoint p-numbers: for p0 beyond them, C_{k,p0}(G)
                # avoids the removed edge and is still a valid core of G-.
                members = self._current_members(array, k, set(), demoted)
                bounds = BoundsCache(self.graph, members)
                candidates = [
                    array.p_number_or(u, 0.0),
                    array.p_number_or(v, 0.0),
                ]
                if u in members:
                    candidates.append(bounds.p_tilde(u))
                if v in members:
                    candidates.append(bounds.p_tilde(v))
                if obs is not None:
                    obs.inc(metric.MAINT_MINOR_CASES)
                    self._record_window(obs, 0.0, max(candidates))
                self._repeel_and_splice(
                    array, members, 0.0, max(candidates), set()
                )
            elif k <= low:
                # Major case, both endpoints in the k-core (Thm. 8 / Def. 7
                # for p_-, via the sound pair bound; Thm. 9 for p_+).
                pn_u = array.p_number(u)
                pn_v = array.p_number(v)
                p1 = min(pn_u, pn_v)
                p_minus = deletion_pair_bound(
                    self.graph, set(array.query(p1)), u, v, k, p1
                )
                # Thm. 9 widened by the old endpoint p-numbers (see the
                # minor-case comment): both are needed for levels where
                # C_{k,p0}(G) must avoid the removed edge.
                bounds = BoundsCache(self.graph, array.members_view())
                p_plus = max(bounds.p_tilde(u), bounds.p_tilde(v), pn_u, pn_v)
                if obs is not None:
                    obs.inc(metric.MAINT_THM8_WINDOWS)
                    obs.inc(metric.MAINT_THM9_WINDOWS)
                    self._record_window(obs, p_minus, p_plus)
                self._repeel_and_splice(array, None, p_minus, p_plus, set())
            else:
                # Major case, cn(small) < k <= cn(large): only `large` in
                # the k-core; its p-number can only rise.
                p_minus = array.p_number(large)  # Theorem 8
                # Theorem 9 capped from below by the old p-number, so the
                # window is never inverted.
                bounds = BoundsCache(self.graph, array.members_view())
                p_plus = max(bounds.p_tilde(large), p_minus)
                if obs is not None:
                    obs.inc(metric.MAINT_THM8_WINDOWS)
                    obs.inc(metric.MAINT_THM9_WINDOWS)
                    self._record_window(obs, p_minus, p_plus)
                self._repeel_and_splice(array, None, p_minus, p_plus, set())

    # ------------------------------------------------------------------
    # A_1 bookkeeping: every 1-core vertex has p-number exactly 1.0
    # ------------------------------------------------------------------
    # For k = 1 the (1,p)-core is the whole graph minus isolated vertices,
    # for *every* p in [0, 1]: each vertex keeps all of its neighbours, so
    # every fraction is 1.  A_1 therefore only tracks membership.
    def _update_a1_after_insert(self, u: Vertex, v: Vertex) -> None:
        array = self._ensure_array(1)
        changed = False
        for w in (u, v):
            if not array.contains(w):
                array.vertices.append(w)
                array.p_numbers.append(1.0)
                changed = True
        if changed:
            array._rebuild_levels()
            self.index.bump_version(1)

    def _update_a1_after_delete(self, u: Vertex, v: Vertex) -> None:
        isolated = [w for w in (u, v) if self.graph.degree(w) == 0]
        if not isolated:
            return
        array = self._ensure_array(1)
        drop = set(isolated)
        before = len(array.vertices)
        array.vertices = [w for w in array.vertices if w not in drop]
        array.p_numbers = [1.0] * len(array.vertices)
        array._rebuild_levels()
        if len(array.vertices) != before:
            self.index.bump_version(1)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _record_window(
        obs: Instrumentation, p_minus: float, p_plus: float
    ) -> None:
        """Record one recomputed ``[p_-, p_+]`` window.

        Widths are recorded unclamped: a negative width in the metrics
        would expose an inverted window, which the Defs. 5-7 bounds rule
        out — the pruning-effectiveness tests assert exactly that.
        """
        obs.observe(metric.MAINT_WINDOW_P_MINUS, p_minus)
        obs.observe(metric.MAINT_WINDOW_P_PLUS, p_plus)
        obs.observe(metric.MAINT_WINDOW_WIDTH, p_plus - p_minus)

    def _ensure_array(self, k: int) -> KArray:
        arrays = self.index.arrays()
        array = arrays.get(k)
        if array is None:
            array = KArray(k=k, vertices=[], p_numbers=[])
            arrays[k] = array
            # Creation is a mutation: a cached "no A_k" answer may now be
            # wrong, so the version oracle must move past it.
            self.index.bump_version(k)
        return array

    def _current_members(
        self,
        array: KArray,
        k: int,
        promoted: Iterable[Vertex],
        demoted: Iterable[Vertex],
    ) -> set[Vertex]:
        """Vertex set of the *current* k-core, derived incrementally."""
        members = array.vertex_set()
        members.update(promoted)
        members.difference_update(demoted)
        return members

    def _repeel_and_splice(
        self,
        array: KArray,
        members: set[Vertex] | None,
        p_minus: float,
        p_plus: float,
        new_members: set[Vertex],
    ) -> None:
        """Recompute p-numbers in ``[p_minus, p_plus]`` and splice ``A_k``.

        ``members=None`` means the k-core membership is unchanged (the
        major cases): the residual is then the array's own ``pn >= p_-``
        suffix, found by bisection, so per-array work is proportional to
        the window instead of |V_k|.
        """
        k = array.k
        # Bump before touching the array: even an exceptional exit below
        # may leave A_k mutated, and a conservative bump only costs cache
        # entries — it can never let a stale answer survive.
        self.index.bump_version(k)
        if members is None:
            start = bisect_left(array.p_numbers, p_minus)
            tail_source = array.vertices[start:]
            residual = set(tail_source)
            residual |= new_members
        else:
            tail_source = array.vertices
            residual = {
                w
                for w in members
                if w in new_members or array.p_number_or(w, -1.0) >= p_minus
            }
        result = self._peel_residual(
            k, residual, p_plus, new_members, array, tail_source
        )
        self.stats.arrays_updated += 1
        self.stats.vertices_repeeled += len(result.order)
        if result.stopped_early:
            self.stats.early_stops += 1
        obs = get_collector()
        if obs is not None:
            obs.inc(metric.MAINT_ARRAYS_REPEELED)
            obs.add(metric.MAINT_VERTICES_REPEELED, len(result.order))
            if result.stopped_early:
                obs.inc(metric.MAINT_EARLY_STOPS)
        try:
            array.replace_segment(
                keep_below=p_minus,
                segment_vertices=result.order,
                segment_p_numbers=result.p_numbers,
                tail_from=result.tail,
            )
        except IndexStateError:
            if self.strict:
                raise
            # Defensive fallback: the window was too narrow (should not
            # happen; kept as a safety valve for unanticipated topologies).
            self.stats.fallback_rebuilds += 1
            if obs is not None:
                obs.inc(metric.MAINT_FALLBACK_REBUILDS)
            full_members = (
                array.vertex_set() if members is None else set(members)
            )
            full = self._peel_residual(
                k, full_members, 2.0, full_members, array
            )
            array.vertices = full.order
            array.p_numbers = full.p_numbers
            array._rebuild_levels()

    def _peel_residual(
        self,
        k: int,
        residual: set[Vertex],
        p_plus: float,
        new_members: set[Vertex],
        array: KArray,
        tail_source: list[Vertex] | None = None,
    ) -> _PeelResult:
        """Fixed-k peel of the residual subgraph on the live graph.

        Mirrors the heap peel of :mod:`repro.core.decomposition` but runs
        over dict adjacency (the graph is dynamic here) and supports the
        early stop: once the next peel level would exceed ``p_plus`` and no
        vertex lacking an old p-number remains, the survivors keep their
        old p-numbers and are returned as the tail, in old array order.
        """
        graph = self.graph
        result = _PeelResult()
        if not residual:
            return result
        alive = set(residual)
        deg_r: dict[Vertex, int] = {}
        key: dict[Vertex, float] = {}
        # Heap entries carry a serial number so ties never compare the
        # vertex labels themselves (labels of mixed types are allowed).
        serial = 0
        heap: list[tuple[float, int, Vertex]] = []
        violators: deque[Vertex] = deque()
        # Canonical float-fraction construction (pvalue.fraction_value)
        # inlined in this hot residual peel; degrees are >= k >= 1 here.
        for w in residual:
            inside = sum(1 for x in graph.neighbors(w) if x in residual)
            deg_r[w] = inside
            key[w] = inside / graph.degree(w)  # noqa: KP001 hot loop
            heap.append((key[w], serial, w))
            serial += 1
            if inside < k:
                violators.append(w)
        heapify(heap)
        # Vertices violating the degree constraint at the window boundary
        # are peeled in the first round; Algorithm 2 assigns them that
        # round's p_min, which is the minimum fraction over the whole
        # residual (their own fractions included).
        level = min(key.values()) if violators else 0.0
        pending_new = sum(1 for w in alive if w in new_members)

        def remove(w: Vertex, pn: float) -> None:
            nonlocal pending_new, serial
            alive.discard(w)
            if w in new_members:
                pending_new -= 1
            result.order.append(w)
            result.p_numbers.append(pn)
            for x in graph.neighbors(w):
                if x not in alive:
                    continue
                deg_r[x] -= 1
                new_key = deg_r[x] / graph.degree(x)  # noqa: KP001 hot loop
                key[x] = new_key
                heappush(heap, (new_key, serial, x))
                serial += 1
                if deg_r[x] == k - 1:
                    violators.append(x)

        while alive:
            if violators:
                w = violators.popleft()
                if w in alive:
                    remove(w, level)
                continue
            w = None
            while heap:
                f, _, candidate = heappop(heap)
                # Exact-double stale-entry test; see repro.core.pvalue.
                if candidate in alive and key[candidate] == f:  # noqa: KP002
                    w = candidate
                    break
            if w is None:
                raise IndexStateError(
                    f"A_{k}: peel heap exhausted with {len(alive)} vertices alive"
                )
            if f > p_plus and pending_new == 0:
                # Theorems 4/9: survivors keep their old p-numbers.
                result.stopped_early = True
                source = array.vertices if tail_source is None else tail_source
                result.tail = [x for x in source if x in alive]
                if self.strict:
                    bad = [
                        x for x in result.tail if array.p_number(x) <= p_plus
                    ]
                    if bad:
                        raise IndexStateError(
                            f"A_{k}: early-stop tail contains p-numbers "
                            f"<= p_+ ({bad[:3]}...)"
                        )
                return result
            level = max(level, f)
            remove(w, level)
        return result
