"""KP-Index maintenance under edge insertion/deletion (Sec. VI, Algs. 4-5).

:class:`KPIndexMaintainer` owns a graph, a :class:`~repro.kcore.
maintenance.CoreMaintainer` (core numbers) and a
:class:`~repro.core.index.KPIndex`, and keeps the index exact under edge
updates.  :meth:`~KPIndexMaintainer.insert_edge` /
:meth:`~KPIndexMaintainer.delete_edge` and :meth:`~KPIndexMaintainer.
apply_batch` all coalesce their ops first (insert+delete pairs of one
edge cancel), and the number of net ops picks one of two rules.

**One net op** is the paper's Algorithm 4/5:

1. apply the update to the graph and incrementally repair core numbers,
2. skip every ``A_k`` with ``k`` above both endpoint core numbers
   (Theorem 2 for insertion, Theorem 7 for deletion),
3. for each remaining ``k``, derive the p-number window ``[p_-, p_+]``
   (Theorems 3-5, 8, 9, Defs. 5-7) — vertices with old p-number outside
   it are untouched — and skip the array outright when the window is
   empty (Theorem 6),
4. re-peel the ``pn >= p_-`` suffix on the peel kernel, stopping as soon
   as the level exceeds ``p_+`` (the survivors keep their old
   p-numbers), and splice it back into ``A_k``.  An array whose k-core
   membership changed is windowed at ``[0, p_+]`` over its new members.

**More than one net op** re-peels in full: every op is applied to the
graph, core numbers come from one linear decomposition of the post-batch
graph, and ``A_2 .. A_reach`` are re-peeled from scratch through one
shared :class:`~repro.graph.compact.CompactAdjacency` snapshot and the
Algorithm 2 kernel (optionally fanned across the ``repro.core.parallel``
worker pool).  ``reach`` is the largest old or new core number of a batch
endpoint: Theorems 2/7 for a batch — if no endpoint lies in ``C_k``
before or after, ``C_k`` and ``A_k`` are unchanged.

Each touched array bumps its version once per batch, which is what lets
the serving cache invalidate once instead of once per edge (see
docs/algorithms.md, "Maintenance").

A window that is too narrow is a bug, not a case: the re-peel raises
:class:`~repro.errors.IndexStateError` instead of repairing it.

Two modes support the ablation benchmark: ``RANGE`` (the windows above,
the paper's algorithm) and ``FULL_K`` (skip rules only; every affected
``A_k`` is re-peeled in full).  Both are property-tested for exact
agreement with from-scratch decomposition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from bisect import bisect_left
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
from repro.core.bounds import BoundsCache
from repro.core.index import KArray, KPIndex
from repro.core.parallel import peel_all_k
from repro.core.peel_engines import ENGINES, make_scratch
from repro.core.peel_flat import peel_residual
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
    #: Always 0 (a wrong window raises); kept because benchmark readers
    #: of :meth:`snapshot` still look the key up.
    fallback_rebuilds: int = 0
    batches: int = 0
    batch_cancelled_pairs: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class BatchReport:
    """What one :meth:`KPIndexMaintainer.apply_batch` call did.

    ``windowed_repeels`` counts arrays re-peeled through a ``[p_-, p_+]``
    window, which only a batch of one net op in ``RANGE`` mode does
    (membership-churned arrays included, windowed at ``[0, p_+]``);
    ``full_repeels`` counts arrays re-peeled in full through the shared
    snapshot — every reached array of a multi-op batch.
    """

    applied: int
    cancelled_pairs: int
    arrays_repeeled: int
    windowed_repeels: int = 0
    full_repeels: int = 0


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


class KPIndexMaintainer:
    """Keeps a :class:`KPIndex` exact while its graph receives edge updates.

    Parameters
    ----------
    graph:
        The graph to index; the maintainer takes ownership — mutate it only
        through :meth:`insert_edge` / :meth:`delete_edge` /
        :meth:`apply_batch`.
    mode:
        See :class:`MaintenanceMode`.
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
        index: KPIndex | None = None,
    ) -> None:
        self.graph = graph
        self.mode = mode
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
    # single-edge updates: batches of one
    # ------------------------------------------------------------------
    @verify_maintainer_update
    def insert_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert ``(u, v)`` and repair the index (Algorithm 4).

        Fires the ``update_hooks`` first, then runs the batch planner on
        the one op; raises :class:`~repro.errors.SelfLoopError` or
        :class:`~repro.errors.EdgeExistsError` before anything mutates.
        """
        self._apply_one("insert", u, v, metric.MAINT_SPAN_INSERT)

    @verify_maintainer_update
    def delete_edge(self, u: Vertex, v: Vertex) -> None:
        """Delete ``(u, v)`` and repair the index (Algorithm 5).

        Fires the ``update_hooks`` first, then runs the batch planner on
        the one op; raises :class:`~repro.errors.EdgeNotFoundError` before
        anything mutates.
        """
        self._apply_one("delete", u, v, metric.MAINT_SPAN_DELETE)

    def _apply_one(self, op: str, u: Vertex, v: Vertex, span: str) -> None:
        for hook in self.update_hooks:
            hook(op, u, v)
        with maybe_span(span):
            ops, _ = coalesce_updates(self.graph, ((op, u, v),))
            self._apply_batch_impl(ops, workers=1)

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

    # ------------------------------------------------------------------
    # batched maintenance: one re-peel per affected A_k
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        updates: Iterable[tuple[str, Vertex, Vertex]],
        *,
        workers: int = 1,
    ) -> BatchReport:
        """Apply a mixed batch of ``(op, u, v)`` updates, coalesced.

        The batch is validated and coalesced first
        (:func:`coalesce_updates`) — an invalid op sequence raises before
        anything mutates, and insert+delete pairs of the same edge cancel
        without touching the index at all.  One surviving op runs
        Algorithm 4/5 (windowed re-peels, the Theorem 6 skip); more than
        one applies every op to the graph, takes core numbers from one
        decomposition of the result and re-peels ``A_2 .. A_reach`` in
        full through one shared :class:`CompactAdjacency` snapshot
        (``workers > 1`` fans those across the process pool) — see the
        module docstring.  Each touched array re-peels at most **once**
        and bumps its version once per batch, so serving caches
        invalidate once instead of once per edge.
        """
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
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
        with maybe_span(metric.MAINT_SPAN_BATCH):
            windowed, full = self._apply_batch_impl(ops, workers)
        if obs is not None:
            obs.add(metric.MAINT_BATCH_WINDOW_UNIONS, windowed)
            obs.add(metric.MAINT_BATCH_FULL_REPEELS, full)
            obs.add(metric.MAINT_BATCH_ARRAYS, windowed + full)
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
        workers: int,
    ) -> tuple[int, int]:
        """Apply coalesced ``ops``; returns (windowed, full) re-peel counts."""
        if len(ops) > 1:
            return 0, self._repeel_reached_arrays(ops, workers)
        entry = ops[0]
        op, u, v = entry
        obs = get_collector()
        cn_old_u = self._cores.core_number_or(u)
        cn_old_v = self._cores.core_number_or(v)
        low = min(cn_old_u, cn_old_v)
        if op == "insert":
            movers = self._cores.insert_edge(u, v)
            self.stats.insertions += 1
            self.index.adjust_num_edges(+1)
            k_changed = low + 1
            reach = max(
                self._cores.core_number(u), self._cores.core_number(v)
            )  # Theorem 2
            skip_metric = metric.MAINT_THM2_SKIPS
        else:
            movers = self._cores.delete_edge(u, v)
            self.stats.deletions += 1
            self.index.adjust_num_edges(-1)
            k_changed = low
            reach = max(cn_old_u, cn_old_v)  # Theorem 7
            skip_metric = metric.MAINT_THM7_SKIPS
        if obs is not None:
            # Theorems 2/7: arrays above both endpoint core numbers are
            # provably untouched by this op.
            obs.add(skip_metric, max(0, self.index.degeneracy - max(reach, 1)))

        self._update_a1_after_batch(ops)

        windowed = 0
        full_ks: list[int] = []
        # A mover's level never exceeds the op's reach, so this range
        # covers the churned k too.
        for k in range(2, reach + 1):
            self.stats.arrays_examined += 1
            if obs is not None:
                obs.inc(metric.MAINT_ARRAYS_EXAMINED)
            array = self._ensure_array(k)
            if self.mode is MaintenanceMode.FULL_K:
                full_ks.append(k)
                continue
            members = None
            if movers and k == k_changed:
                members = array.vertex_set()
                if op == "insert":
                    members |= movers
                else:
                    members -= movers
            plan = self._batch_window(array, entry, members)
            if plan is None:
                # Theorem 6: the window is empty, so the array provably
                # cannot change — no re-peel, no bump.
                self.stats.arrays_skipped_theorem6 += 1
                if obs is not None:
                    obs.inc(metric.MAINT_THM6_SKIPS)
                continue
            p_minus, p_plus = plan
            if obs is not None:
                self._record_window(obs, p_minus, p_plus)
            self._repeel_and_splice(array, members, p_minus, p_plus)
            windowed += 1
        if full_ks:
            self._repeel_full_arrays(full_ks, workers)
        return windowed, len(full_ks)

    def _repeel_reached_arrays(
        self, ops: Sequence[tuple[str, Vertex, Vertex]], workers: int
    ) -> int:
        """Apply a multi-op batch and re-peel every reached ``A_k`` in full.

        No per-op core repair and no window: the ops go straight into the
        graph, core numbers come from one linear decomposition of the
        post-batch graph, and ``A_2 .. A_reach`` re-peel through
        :meth:`_repeel_full_arrays`.  ``reach`` is the largest old or new
        core number of a batch endpoint — Theorems 2/7 for a batch: when
        no endpoint lies in ``C_k`` before or after, no edge inside
        ``C_k`` changed, so ``C_k`` and ``A_k`` are unchanged.  Returns
        the number of arrays re-peeled.
        """
        endpoints = {w for _, u, v in ops for w in (u, v)}
        reach = max(self._cores.core_number_or(w) for w in endpoints)
        graph = self.graph
        for op, u, v in ops:
            if op == "insert":
                graph.add_edge(u, v)
                self.stats.insertions += 1
                self.index.adjust_num_edges(+1)
            else:
                graph.remove_edge(u, v)
                self.stats.deletions += 1
                self.index.adjust_num_edges(-1)
        self._cores = CoreMaintainer(graph)
        reach = max(reach, max(self._cores.core_number(w) for w in endpoints))
        self._update_a1_after_batch(ops)
        ks = list(range(2, reach + 1))
        if not ks:
            return 0
        self.stats.arrays_examined += len(ks)
        obs = get_collector()
        if obs is not None:
            obs.add(metric.MAINT_ARRAYS_EXAMINED, len(ks))
        for k in ks:
            self._ensure_array(k)
        self._repeel_full_arrays(ks, workers)
        return len(ks)

    def _batch_window(
        self,
        array: KArray,
        op: tuple[str, Vertex, Vertex],
        members: set[Vertex] | None,
    ) -> tuple[float, float] | None:
        """The ``[p_-, p_+]`` window of one array for the single update ``op``.

        ``members`` is the post-update k-core ``C_k(G')`` when the array's
        membership changed (the window is then ``[0, p_+]``), else
        ``None``: the array's own members are ``C_k(G')``.  Old p-numbers
        ``pn_old`` are 0 outside ``A_k``; ``p̃`` (Def. 6) is evaluated on
        ``G'`` over ``C_k(G')``.

        ``p_+`` (Thms. 4/9): ``max(pn_old(u), pn_old(v))``, raised to
        ``min(p̃(u), p̃(v))`` for an insert with both endpoints in
        ``C_k(G')``, or to ``p̃(x)`` for each endpoint ``x`` of a delete
        that lies in ``C_k(G')``.  An insert with one endpoint outside the
        k-core (Algorithm 4's case 1.2) contributes no ``p̃``.  For
        ``p0 > p_+``, ``C_{k,p0}(G)`` holds no endpoint and
        ``C_{k,p0}(G')`` holds no member endpoint of a deleted edge and
        at most one endpoint of an inserted one, so each is a
        ``(k, p0)``-core of the other graph too and the suffix above
        ``p_+`` is untouched.

        ``p_-`` (Thms. 3/5/8 + Def. 7, clamped): with ``p1`` the smallest
        member-endpoint old p-number, ``C = C_{k,p1}(G)`` is its own
        witness on ``G'`` — non-endpoint members keep their degrees, and
        member endpoints are re-checked explicitly.  Every member of ``C``
        keeps ``pn >= p_-``, so the prefix below ``p_-`` is identical.
        Returns ``None`` when ``p_- >= p_+``: the window is empty and the
        array provably cannot change (Theorem 6).
        """
        kind, u, v = op
        kcore = array.members_view() if members is None else members
        bounds = BoundsCache(self.graph, kcore)
        pn_old = array.p_number_or
        p_plus = max(pn_old(u, 0.0), pn_old(v, 0.0))
        if kind == "delete":
            for x in (u, v):
                if x in kcore:
                    p_plus = max(p_plus, bounds.p_tilde(x))
        elif u in kcore and v in kcore:
            # max(p_plus, min(a, b)) without b's two-hop scan when a
            # cannot raise the cap.
            cap = bounds.p_tilde(u)
            if cap > p_plus:
                p_plus = min(cap, max(p_plus, bounds.p_tilde(v)))
        if members is not None:
            return 0.0, p_plus
        inside = [x for x in (u, v) if x in kcore]
        if not inside:
            return 0.0, p_plus
        p1 = min(array.p_number(x) for x in inside)
        graph = self.graph
        p_minus = p1
        for x in inside:
            # deg(x, C_{k,p1}(G)) on G': the members of pn >= p1.
            dx = sum(1 for w in graph.neighbors(x) if pn_old(w, -1.0) >= p1)
            if dx < array.k:
                p_minus = 0.0
                break
            fx = fraction_value(dx, graph.degree(x))
            if fx < p_minus:
                p_minus = fx
        if p_minus >= p_plus and p_plus > 0.0:
            return None
        return p_minus, p_plus

    def _repeel_full_arrays(self, ks: Sequence[int], workers: int) -> None:
        """Re-peel each ``A_k`` in ``ks`` from scratch with the peel kernel.

        One :class:`CompactAdjacency` snapshot of the live graph is built
        per batch and shared by every array (and, with ``workers > 1``,
        shipped once per worker through the pool initializer), so the
        per-array marginal cost is the kernel peel itself — the same
        kernel Algorithm 2 runs, scratch reused across the ks.
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
                workers=workers,
                ks=ks,
            )
        else:
            peel = ENGINES["flat"]
            scratch = make_scratch(snapshot, core)
            peeled = {k: peel(snapshot, core, k, scratch=scratch) for k in ks}
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

    @staticmethod
    def _residual(
        array: KArray, members: set[Vertex] | None, p_minus: float
    ) -> tuple[list[Vertex], int]:
        """The window residual and how many of it have an old p-number.

        The array's ``pn >= p_minus`` suffix (restricted to ``members``
        when given) in old array order, followed by the members the
        array lacks — the new k-core members.
        """
        old = array.vertices[bisect_left(array.p_numbers, p_minus) :]
        if members is None:
            return old, len(old)
        old = [w for w in old if w in members]
        new = [w for w in members if not array.contains(w)]
        return old + new, len(old)

    def _repeel_and_splice(
        self,
        array: KArray,
        members: set[Vertex] | None,
        p_minus: float,
        p_plus: float,
    ) -> None:
        """Recompute p-numbers in ``[p_minus, p_plus]`` and splice ``A_k``.

        ``members=None`` means the k-core membership is unchanged: the
        residual is then the array's own ``pn >= p_-`` suffix, found by
        bisection, so per-array work is proportional to the window instead
        of |V_k|.  Otherwise ``members`` is the current k-core, and its
        vertices missing from the array are new members that must be
        peeled before the Theorem 4/9 early stop may fire.  A window that
        does not contain every change raises
        :class:`~repro.errors.IndexStateError` — from the kernel, from the
        early-stop check below or from the splice's ordering check.
        """
        k = array.k
        # Bump before touching the array: even an exceptional exit below
        # may leave A_k mutated, and a conservative bump only costs cache
        # entries — it can never let a stale answer survive.
        self.index.bump_version(k)
        residual, first_new = self._residual(array, members, p_minus)
        order, p_numbers, tail, stopped = peel_residual(
            self.graph, residual, first_new, k, p_plus
        )
        # The tail is in old array order, so its head has the smallest
        # old p-number: every survivor must lie above p_+.
        if tail and array.p_number(tail[0]) <= p_plus:
            raise IndexStateError(
                f"A_{k}: early-stop tail starts at p-number "
                f"{array.p_number(tail[0])} <= p_+ = {p_plus}"
            )
        self.stats.arrays_updated += 1
        self.stats.vertices_repeeled += len(order)
        if stopped:
            self.stats.early_stops += 1
        obs = get_collector()
        if obs is not None:
            obs.inc(metric.MAINT_ARRAYS_REPEELED)
            obs.add(metric.MAINT_VERTICES_REPEELED, len(order))
            if stopped:
                obs.inc(metric.MAINT_EARLY_STOPS)
        array.replace_segment(
            keep_below=p_minus,
            segment_vertices=order,
            segment_p_numbers=p_numbers,
            tail_from=tail,
        )
