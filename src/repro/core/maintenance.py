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
   (Theorems 3-5, 8, 9, Def. 7) — vertices with old p-number outside
   it are untouched — and skip the array outright when the window is
   empty (Theorem 6).  ``p_+`` caps an endpoint's new p-number by its
   one-hop fraction ``deg(x, C_k(G')) / deg(x, G')``: ``x`` keeps that
   share of its neighbours in ``C_{k,pn'(x)}(G') ⊆ C_k(G')``, so no
   larger p-number is possible,
4. re-peel the ``pn >= p_-`` suffix on the peel kernel, stopping as soon
   as the level exceeds ``p_+`` (the survivors keep their old
   p-numbers), and splice it back into ``A_k``.  An array whose k-core
   membership changed is windowed at ``[0, p_+]`` over its new members.

The window re-peels drain on one persistent
:class:`~repro.core.peel_flat.PeelState` per maintainer: an int-id
adjacency of the live graph, one global rank ladder and the drain
buffers.  It is built at the first window re-peel, patched in O(deg) by
every later single op (the ladder is rebuilt only when an endpoint
reaches a degree it never held), and dropped by a multi-op batch,
:meth:`~KPIndexMaintainer.insert_vertex` and
:meth:`~KPIndexMaintainer.delete_vertex`; the next window re-peel builds
it again.  ``MaintenanceStats.peel_state_builds`` counts the builds.

**More than one net op** re-peels in full: every op is applied to the
graph, one :class:`~repro.graph.compact.CompactAdjacency` snapshot of the
post-batch graph yields the core numbers (one linear decomposition), and
``A_2 .. A_reach`` are re-peeled from scratch through that same snapshot
and the Algorithm 2 kernel, serially with one reused scratch.  ``reach``
is the largest old or new core number of a batch endpoint: Theorems 2/7
for a batch — if no endpoint lies in ``C_k`` before or after, ``C_k``
and ``A_k`` are unchanged.

Each touched array bumps its version once per batch, which is what lets
the serving cache invalidate once instead of once per edge (see
docs/algorithms.md, "Maintenance").

A window that is too narrow is a bug, not a case: the re-peel raises
:class:`~repro.errors.IndexStateError` instead of repairing it.  Both
rules are property-tested for exact agreement with from-scratch
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left
from typing import Callable, Iterable, Protocol, Sequence

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
from repro.graph.fingerprint import (
    GraphFingerprint,
    edge_digest,
    edge_multiset_hash,
    format_edge_hash,
)
from repro.kcore.decomposition import core_numbers_compact
from repro.kcore.maintenance import CoreMaintainer
from repro.obs import names as metric
from repro.obs.instrumentation import Instrumentation, get_collector, maybe_span
from repro.core.index import KArray, KPIndex
from repro.core.peel_engines import ENGINES, make_scratch
from repro.core.peel_flat import PeelState
from repro.core.pvalue import fraction_value

__all__ = [
    "MaintenanceStats",
    "BatchReport",
    "EdgePresence",
    "coalesce_updates",
    "KPIndexMaintainer",
]


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
    #: Full builds of the persistent peel state plus rank-ladder rebuilds
    #: (a vertex reached a degree the ladder never held).
    peel_state_builds: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class BatchReport:
    """What one :meth:`KPIndexMaintainer.apply_batch` call did.

    ``windowed_repeels`` counts arrays re-peeled through a ``[p_-, p_+]``
    window, which only a batch of one net op does (membership-churned
    arrays included, windowed at ``[0, p_+]``);
    ``full_repeels`` counts arrays re-peeled in full through the shared
    snapshot — every reached array of a multi-op batch.
    """

    applied: int
    cancelled_pairs: int
    arrays_repeeled: int
    windowed_repeels: int = 0
    full_repeels: int = 0


class EdgePresence(Protocol):
    """What :func:`coalesce_updates` validates against: a :class:`Graph`,
    or an edge set laid over one (journal recovery)."""

    def has_edge(self, u: Vertex, v: Vertex) -> bool: ...


def coalesce_updates(
    graph: EdgePresence, updates: Iterable[tuple[str, Vertex, Vertex]]
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
    # One record per edge, keyed by its first-seen orientation: [initial
    # presence, current presence, op count].  Dict order is first-touch
    # order.
    records: dict[tuple[Vertex, Vertex], list[int]] = {}
    for op, u, v in updates:
        if op not in ("insert", "delete"):
            raise ParameterError(
                f"unknown update op {op!r} (expected 'insert' or 'delete')"
            )
        if u == v:
            raise SelfLoopError(u)
        record = records.get((u, v))
        if record is None:
            record = records.get((v, u))
            if record is None:
                present = graph.has_edge(u, v)
                record = records[u, v] = [present, present, 0]
        record[2] += 1
        if op == "insert":
            if record[1]:
                raise EdgeExistsError(u, v)
            record[1] = True
        else:
            if not record[1]:
                raise EdgeNotFoundError(u, v)
            record[1] = False
    net: list[tuple[str, Vertex, Vertex]] = []
    cancelled = 0
    for (u, v), (initial, current, op_count) in records.items():
        surviving = 0 if current == initial else 1
        cancelled += (op_count - surviving) // 2
        if surviving:
            net.append(("insert" if current else "delete", u, v))
    return net, cancelled


class KPIndexMaintainer:
    """Keeps a :class:`KPIndex` exact while its graph receives edge updates.

    Parameters
    ----------
    graph:
        The graph to index; the maintainer takes ownership — mutate it only
        through :meth:`insert_edge` / :meth:`delete_edge` /
        :meth:`apply_batch`.
    index:
        An already-built :class:`KPIndex` of exactly ``graph`` — a loaded
        checkpoint in the durability layer (:mod:`repro.service`) — to
        resume from instead of rebuilding with Algorithm 2.  The caller
        is responsible for the graph/index pairing (the service layer
        verifies it via graph fingerprints); the index is structurally
        :meth:`~KPIndex.validate`-d here.

    Core numbers are read from the index (:meth:`KPIndex.core_numbers`),
    so opening a checkpoint does not decompose the graph again.

    The maintainer can also keep the graph's edge hash (the
    :class:`~repro.graph.fingerprint.GraphFingerprint` ``edge_hash``)
    current: :meth:`fingerprint` computes it from the graph on first
    request — or :meth:`adopt_fingerprint` takes a fingerprint already
    verified against the graph — and from then on every applied net op
    toggles its :func:`~repro.graph.fingerprint.edge_digest`.  A
    maintainer that is never fingerprinted pays nothing for it.
    """

    def __init__(
        self,
        graph: Graph,
        index: KPIndex | None = None,
    ) -> None:
        self.graph = graph
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
        if index is None:
            index = KPIndex.build(graph)
        else:
            index.validate()
        self.index = index
        self._cores = CoreMaintainer(graph, index.core_numbers(graph.vertices()))
        self.stats = MaintenanceStats()
        #: The window re-peels' int-id adjacency, rank ladder and drain
        #: buffers: built at the first window re-peel, patched per single
        #: op, dropped by multi-op batches and vertex insert/delete.
        self._peel_state: PeelState | None = None
        #: XOR of the edge digests of ``graph``, or ``None`` until the
        #: first :meth:`fingerprint` / :meth:`adopt_fingerprint`.
        self._edge_hash: int | None = None

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------
    def core_number(self, v: Vertex) -> int:
        return self._cores.core_number(v)

    def fingerprint(self) -> GraphFingerprint:
        """The graph's :class:`GraphFingerprint` from the running edge hash.

        Equal to :func:`~repro.graph.fingerprint.graph_fingerprint` of
        the graph; the edge hash is computed from the graph only on the
        first request (unless :meth:`adopt_fingerprint` supplied it), and
        kept current by every update after that.
        """
        if self._edge_hash is None:
            self._edge_hash = int(edge_multiset_hash(self.graph.edges()), 16)
        graph = self.graph
        return GraphFingerprint(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            edge_hash=format_edge_hash(self._edge_hash),
        )

    def adopt_fingerprint(self, fingerprint: GraphFingerprint) -> None:
        """Start the running edge hash from ``fingerprint``, unhashed.

        The caller vouches that ``fingerprint`` matches the current graph
        (:meth:`GraphFingerprint.matches` — the durability layer has just
        checked exactly that when it opens a checkpoint).
        """
        self._edge_hash = int(fingerprint.edge_hash, 16)

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
            self._apply_batch_impl(ops)

    # ------------------------------------------------------------------
    # vertex dynamics (Sec. VI preamble): reduce to edge updates
    # ------------------------------------------------------------------
    def insert_vertex(self, v: Vertex, neighbors: Iterable[Vertex] = ()) -> None:
        """Insert a vertex and then each of its incident edges.

        Following the paper, a fresh vertex starts with ``cn = 0`` and
        ``pn = 0`` everywhere; every incident edge is handled by
        :meth:`insert_edge`.
        """
        self._peel_state = None
        self.graph.add_vertex(v)
        self._cores.insert_vertex(v)
        for w in neighbors:
            self.insert_edge(v, w)

    def delete_vertex(self, v: Vertex) -> None:
        """Delete ``v`` by removing its incident edges one at a time.

        The last :meth:`delete_edge` leaves ``v`` isolated, which already
        drops it from ``A_1`` (:meth:`_update_a1_after_batch`).
        """
        for w in list(self.graph.neighbors(v)):
            self.delete_edge(v, w)
        self._cores.delete_vertex(v)
        self._peel_state = None

    # ------------------------------------------------------------------
    # batched maintenance: one re-peel per affected A_k
    # ------------------------------------------------------------------
    def apply_batch(
        self, updates: Iterable[tuple[str, Vertex, Vertex]]
    ) -> BatchReport:
        """Apply a mixed batch of ``(op, u, v)`` updates, coalesced.

        The batch is validated and coalesced first
        (:func:`coalesce_updates`) — an invalid op sequence raises before
        anything mutates, and insert+delete pairs of the same edge cancel
        without touching the index at all.  One surviving op runs
        Algorithm 4/5 (windowed re-peels, the Theorem 6 skip); more than
        one applies every op to the graph, takes core numbers from one
        decomposition of the result and re-peels ``A_2 .. A_reach`` in
        full through one shared :class:`CompactAdjacency` snapshot — see
        the module docstring.  Each touched array re-peels at most
        **once** and bumps its version once per batch, so serving caches
        invalidate once instead of once per edge.
        """
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
            windowed, full = self._apply_batch_impl(ops)
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
        self, ops: Sequence[tuple[str, Vertex, Vertex]]
    ) -> tuple[int, int]:
        """Apply coalesced ``ops``; returns (windowed, full) re-peel counts."""
        if len(ops) > 1:
            return 0, self._repeel_reached_arrays(ops)
        self._toggle_edge_hash(ops)
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
        state = self._peel_state
        if state is not None:
            patch = state.add_edge if op == "insert" else state.remove_edge
            if patch(u, v):
                self._count_state_build(obs)
        if obs is not None:
            # Theorems 2/7: arrays above both endpoint core numbers are
            # provably untouched by this op.
            obs.add(skip_metric, max(0, self.index.degeneracy - max(reach, 1)))

        self._update_a1_after_batch(ops)

        windowed = 0
        # A mover's level never exceeds the op's reach, so this range
        # covers the churned k too.
        for k in range(2, reach + 1):
            self.stats.arrays_examined += 1
            if obs is not None:
                obs.inc(metric.MAINT_ARRAYS_EXAMINED)
            array = self._ensure_array(k)
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
        return windowed, 0

    def _repeel_reached_arrays(
        self, ops: Sequence[tuple[str, Vertex, Vertex]]
    ) -> int:
        """Apply a multi-op batch and re-peel every reached ``A_k`` in full.

        No per-op core repair and no window: the ops go straight into the
        graph, one snapshot of the post-batch graph yields the core
        numbers (one linear decomposition), and ``A_2 .. A_reach`` re-peel
        through :meth:`_repeel_full_arrays` on that same snapshot.
        ``reach`` is the largest old or new core number of a batch
        endpoint — Theorems 2/7 for a batch: when no endpoint lies in
        ``C_k`` before or after, no edge inside ``C_k`` changed, so
        ``C_k`` and ``A_k`` are unchanged.  Returns the number of arrays
        re-peeled.
        """
        endpoints = {w for _, u, v in ops for w in (u, v)}
        reach = max(self._cores.core_number_or(w) for w in endpoints)
        self._peel_state = None
        self._toggle_edge_hash(ops)
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
        snapshot = CompactAdjacency(graph)
        core, _ = core_numbers_compact(snapshot)
        labels = snapshot.labels
        self._cores = CoreMaintainer(
            graph, {labels[i]: c for i, c in enumerate(core)}
        )
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
        self._repeel_full_arrays(ks, snapshot, core)
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
        ``pn_old`` are 0 outside ``A_k``.

        ``p_+`` (Thms. 4/9): ``max(pn_old(u), pn_old(v))``, raised to
        ``min(f(u), f(v))`` for an insert with both endpoints in
        ``C_k(G')``, or to ``f(x)`` for each endpoint ``x`` of a delete
        that lies in ``C_k(G')``, where ``f(x) = deg(x, C_k(G')) /
        deg(x, G')`` is the one-hop cap.  It bounds the new p-number: with
        ``q = pn'(x)``, ``x`` keeps at least ``q·deg(x, G')`` neighbours in
        ``C_{k,q}(G') ⊆ C_k(G')``, so ``q <= f(x)``.  An insert with one
        endpoint outside the k-core (Algorithm 4's case 1.2) contributes
        no cap.  For ``p0 > p_+``, ``C_{k,p0}(G)`` holds no endpoint and
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
        graph = self.graph
        pn_old = array.p_number_or
        p_plus = max(pn_old(u, 0.0), pn_old(v, 0.0))
        inside = [x for x in (u, v) if x in kcore]
        # The one-hop cap f(x) of each endpoint in C_k(G').
        caps = [
            fraction_value(
                sum(1 for w in graph.neighbors(x) if w in kcore),
                graph.degree(x),
            )
            for x in inside
        ]
        if kind == "delete":
            p_plus = max([p_plus, *caps])
        elif len(caps) == 2:
            p_plus = max(p_plus, min(caps))
        if members is not None or not inside:
            return 0.0, p_plus
        p1 = min(array.p_number(x) for x in inside)
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

    def _repeel_full_arrays(
        self, ks: Sequence[int], snapshot: CompactAdjacency, core: list[int]
    ) -> None:
        """Re-peel each ``A_k`` in ``ks`` from scratch with the peel kernel.

        ``snapshot`` is the post-batch graph and ``core`` its core numbers
        by internal id.  The snapshot is shared by every array, so the
        per-array marginal cost is the kernel peel itself — the same
        kernel Algorithm 2 runs, scratch reused across the ks.
        """
        obs = get_collector()
        snapshot.sort_neighbors_by_rank_desc(core)
        peel = ENGINES["flat"]
        scratch = make_scratch(snapshot, core)
        labels = snapshot.labels
        arrays = self.index.arrays()
        for k in ks:
            order, p_numbers = peel(snapshot, core, k, scratch=scratch)
            array = arrays[k]
            vertices = [labels[i] for i in order]
            self.stats.arrays_updated += 1
            self.stats.vertices_repeeled += len(order)
            if obs is not None:
                obs.inc(metric.MAINT_ARRAYS_REPEELED)
                obs.add(metric.MAINT_VERTICES_REPEELED, len(order))
                obs.add(
                    metric.MAINT_PNUMBERS_CHANGED,
                    self._pnumbers_changed(
                        array, len(array), vertices, p_numbers
                    ),
                )
            # Bump before touching the array — the same discipline as
            # _repeel_and_splice: a conservative bump only costs cache
            # entries, it can never let a stale answer survive.
            self.index.bump_version(k)
            array.vertices = vertices
            array.p_numbers = list(p_numbers)
            array._rebuild_levels()

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
        would expose an inverted window, which cannot happen — ``p_+``
        dominates the endpoints' old p-numbers and ``p_-`` never exceeds
        them; the pruning-effectiveness tests assert exactly that.
        """
        obs.observe(metric.MAINT_WINDOW_P_MINUS, p_minus)
        obs.observe(metric.MAINT_WINDOW_P_PLUS, p_plus)
        obs.observe(metric.MAINT_WINDOW_WIDTH, p_plus - p_minus)

    @staticmethod
    def _pnumbers_changed(
        array: KArray,
        scope: int,
        vertices: Sequence[Vertex],
        p_numbers: Sequence[float],
    ) -> int:
        """How many ``A_k`` entries a re-peel changes, read before the write.

        ``vertices`` / ``p_numbers`` are the re-peeled entries and
        ``scope`` the number of old entries they replace.  An entry counts
        when its p-number differs, when it joined ``A_k`` and when it
        left (the old entries in scope that were not re-peeled).
        """
        pn_old = array.p_number_or
        stayed = changed = 0
        for w, pn in zip(vertices, p_numbers):
            old = pn_old(w, -1.0)
            if old < 0.0:
                changed += 1
                continue
            stayed += 1
            # Both sides are fraction_value doubles: equal p-numbers are
            # equal doubles (repro.core.pvalue).
            if old != pn:  # noqa: KP002
                changed += 1
        return changed + scope - stayed

    def _toggle_edge_hash(
        self, ops: Sequence[tuple[str, Vertex, Vertex]]
    ) -> None:
        """Keep the running edge hash current: each net op, insert or
        delete, toggles its edge's digest (XOR is its own inverse)."""
        if self._edge_hash is not None:
            for _, u, v in ops:
                self._edge_hash ^= edge_digest(u, v)

    def _count_state_build(self, obs: Instrumentation | None) -> None:
        self.stats.peel_state_builds += 1
        if obs is not None:
            obs.inc(metric.MAINT_PEEL_STATE_BUILDS)

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
        peeled before the Theorem 4/9 early stop may fire.  The residual
        drains on the maintainer's :class:`PeelState` (built here on first
        use), marked in its member mask rather than copied.  A window
        that does not contain every change raises
        :class:`~repro.errors.IndexStateError` — from the kernel, from the
        early-stop check below or from the splice's ordering check.
        """
        k = array.k
        # Bump before touching the array: even an exceptional exit below
        # may leave A_k mutated, and a conservative bump only costs cache
        # entries — it can never let a stale answer survive.
        self.index.bump_version(k)
        residual, first_new = self._residual(array, members, p_minus)
        state = self._peel_state
        if state is None:
            state = self._peel_state = PeelState(self.graph)
            self._count_state_build(get_collector())
        order, p_numbers, tail, stopped = state.peel_window(
            residual, first_new, k, p_plus
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
            # The re-peel replaces the old pn >= p_- suffix minus the tail.
            scope = len(array) - bisect_left(array.p_numbers, p_minus)
            obs.add(
                metric.MAINT_PNUMBERS_CHANGED,
                self._pnumbers_changed(
                    array, scope - len(tail), order, p_numbers
                ),
            )
            if stopped:
                obs.inc(metric.MAINT_EARLY_STOPS)
        array.replace_segment(
            keep_below=p_minus,
            segment_vertices=order,
            segment_p_numbers=p_numbers,
            tail_from=tail,
        )
