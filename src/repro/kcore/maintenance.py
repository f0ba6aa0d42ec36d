"""Incremental core-number maintenance under edge insertions/deletions.

The KP-Index maintenance algorithms (Sec. VI) need up-to-date core numbers
after every edge update; the paper delegates this to the order-based
algorithm of [30], which shares its correctness foundation with the earlier
traversal ("subcore") algorithm of [18]:

* an edge update changes the core number of a vertex by **at most 1**, and
* only vertices with ``cn == K`` (``K = min(cn(u), cn(v))``) that are
  reachable from the updated endpoints through vertices of core number
  ``K`` — the *subcore* — can change.

:class:`CoreMaintainer` implements the traversal algorithm: it walks the
subcore, then runs a local peeling over it to decide which members gain
(insertion) or lose (deletion) one level.  The asymptotics match [30] on
the evaluation's workloads and the implementation is validated against
from-scratch recomputation in the test suite.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.errors import EdgeExistsError, EdgeNotFoundError, SelfLoopError
from repro.graph.adjacency import Graph, Vertex
from repro.kcore.decomposition import core_decomposition
from repro.obs import names
from repro.obs.instrumentation import get_collector

__all__ = ["CoreMaintainer"]


class CoreMaintainer:
    """Keeps ``cn(v, G)`` current while ``G`` receives edge updates.

    The maintainer owns its graph reference: all updates must go through
    :meth:`insert_edge` / :meth:`delete_edge` (or the vertex helpers), and
    callers must not mutate the graph behind its back.

    >>> g = Graph([(1, 2), (2, 3), (3, 1)])
    >>> maintainer = CoreMaintainer(g)
    >>> maintainer.core_number(1)
    2
    >>> changed = maintainer.delete_edge(1, 2)
    >>> sorted(changed)
    [1, 2, 3]
    >>> maintainer.core_number(1)
    1
    """

    def __init__(
        self, graph: Graph, core_numbers: dict[Vertex, int] | None = None
    ) -> None:
        self.graph = graph
        #: ``core_numbers``, when given, must be exactly ``cn(·, graph)``
        #: (a caller that already decomposed ``graph`` hands them over).
        self._core: dict[Vertex, int] = (
            dict(core_decomposition(graph).core_numbers)
            if core_numbers is None
            else core_numbers
        )
        #: total vertices whose promotion/demotion was evaluated — the
        #: work figure the backend ablation compares across algorithms
        self.candidates_evaluated = 0

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def core_number(self, v: Vertex) -> int:
        """Current ``cn(v, G)``."""
        return self._core[v]

    def core_number_or(self, v: Vertex, default: int = 0) -> int:
        """``cn(v, G)`` or ``default`` for vertices not (yet) in the graph."""
        return self._core.get(v, default)

    def core_numbers(self) -> dict[Vertex, int]:
        """A snapshot copy of all current core numbers."""
        return dict(self._core)

    @property
    def degeneracy(self) -> int:
        """Current ``d(G)``."""
        return max(self._core.values(), default=0)

    # ------------------------------------------------------------------
    # vertex updates (Sec. VI preamble: vertex dynamics reduce to edges)
    # ------------------------------------------------------------------
    def insert_vertex(self, v: Vertex, neighbors: Iterable[Vertex] = ()) -> None:
        """Insert a (possibly isolated) vertex, then each incident edge."""
        self.graph.add_vertex(v)
        self._core.setdefault(v, 0)
        for w in neighbors:
            self.insert_edge(v, w)

    def delete_vertex(self, v: Vertex) -> None:
        """Delete ``v`` by removing its incident edges one at a time."""
        for w in list(self.graph.neighbors(v)):
            self.delete_edge(v, w)
        self.graph.remove_vertex(v)
        del self._core[v]

    # ------------------------------------------------------------------
    # edge insertion
    # ------------------------------------------------------------------
    def insert_edge(self, u: Vertex, v: Vertex) -> set[Vertex]:
        """Insert ``(u, v)``; return the vertices whose core number rose.

        Endpoints are created on demand with core number 0.  Raises
        :class:`~repro.errors.EdgeExistsError` for duplicate edges and
        :class:`~repro.errors.SelfLoopError` for self loops.
        """
        if u == v:
            raise SelfLoopError(u)
        if self.graph.has_edge(u, v):
            raise EdgeExistsError(u, v)
        self.graph.add_edge(u, v)
        self._core.setdefault(u, 0)
        self._core.setdefault(v, 0)

        core = self._core
        level = min(core[u], core[v])
        subcore = self._collect_subcore(
            [w for w in (u, v) if core[w] == level], level
        )
        self.candidates_evaluated += len(subcore)
        # Local peeling: a subcore member can rise to level+1 only if it
        # keeps > level neighbours that are themselves above the level or
        # rising with it.
        support = {
            w: sum(1 for x in self.graph.neighbors(w) if core[x] >= level)
            for w in subcore
        }
        evicted: set[Vertex] = set()
        queue = deque(w for w in subcore if support[w] <= level)
        while queue:
            w = queue.popleft()
            if w in evicted:
                continue
            evicted.add(w)
            for x in self.graph.neighbors(w):
                if x in subcore and x not in evicted:
                    support[x] -= 1
                    if support[x] <= level:
                        queue.append(x)
        promoted = subcore - evicted
        for w in promoted:
            core[w] = level + 1
        obs = get_collector()
        if obs is not None:
            obs.observe(names.KCORE_MAINT_SUBCORE_SIZE, len(subcore))
            obs.add(names.KCORE_MAINT_PROMOTED, len(promoted))
        return promoted

    # ------------------------------------------------------------------
    # edge deletion
    # ------------------------------------------------------------------
    def delete_edge(self, u: Vertex, v: Vertex) -> set[Vertex]:
        """Delete ``(u, v)``; return the vertices whose core number fell.

        Raises :class:`~repro.errors.EdgeNotFoundError` if absent.
        """
        if not self.graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self.graph.remove_edge(u, v)

        core = self._core
        level = min(core[u], core[v])
        if level == 0:
            return set()
        seeds = [w for w in (u, v) if core[w] == level]
        subcore = self._collect_subcore(seeds, level)
        self.candidates_evaluated += len(subcore)
        # Members whose support drops below the level cascade down by one.
        support = {
            w: sum(1 for x in self.graph.neighbors(w) if core[x] >= level)
            for w in subcore
        }
        demoted: set[Vertex] = set()
        queue = deque(w for w in subcore if support[w] < level)
        while queue:
            w = queue.popleft()
            if w in demoted:
                continue
            demoted.add(w)
            for x in self.graph.neighbors(w):
                if x in subcore and x not in demoted:
                    support[x] -= 1
                    if support[x] < level:
                        queue.append(x)
        for w in demoted:
            core[w] = level - 1
        obs = get_collector()
        if obs is not None:
            obs.observe(names.KCORE_MAINT_SUBCORE_SIZE, len(subcore))
            obs.add(names.KCORE_MAINT_DEMOTED, len(demoted))
        return demoted

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _collect_subcore(self, seeds: Iterable[Vertex], level: int) -> set[Vertex]:
        """Vertices with ``cn == level`` reachable from ``seeds`` through
        vertices of that same core number."""
        core = self._core
        found: set[Vertex] = set()
        queue = deque()
        for s in seeds:
            if s not in found:
                found.add(s)
                queue.append(s)
        while queue:
            w = queue.popleft()
            for x in self.graph.neighbors(w):
                if x not in found and core[x] == level:
                    found.add(x)
                    queue.append(x)
        return found
