"""Dynamic undirected simple graph backed by adjacency sets.

:class:`Graph` is the mutable graph type used throughout the library.  It
stores one Python set of neighbours per vertex, which makes single-edge
updates (the workload of the KP-Index maintenance algorithms) O(1) and
neighbourhood iteration O(deg).  Vertices may be any hashable object; the
synthetic datasets use integers while the DBLP case study uses author-name
strings.

Batch algorithms (core decomposition, (k,p)-core decomposition) do not run
directly on this structure; they first take a :class:`~repro.graph.compact.
CompactAdjacency` snapshot for speed.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)

__all__ = ["Graph", "Vertex", "Edge"]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


class Graph:
    """An undirected simple graph (no self loops, no parallel edges).

    >>> g = Graph([(1, 2), (2, 3)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(2))
    [1, 3]
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(self, edges: Iterable[Edge] | None = None):
        self._adj: dict[Vertex, set[Vertex]] = {}
        self._num_edges = 0
        if edges is not None:
            self.add_edges(edges)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[Edge], vertices: Iterable[Vertex] | None = None
    ) -> "Graph":
        """Build a graph from an edge iterable, plus optional isolated vertices.

        Duplicate edges and both orientations of the same edge are merged;
        self loops raise :class:`~repro.errors.SelfLoopError`.
        """
        graph = cls()
        if vertices is not None:
            for v in vertices:
                graph.add_vertex(v)
        graph.add_edges(edges)
        return graph

    def copy(self) -> "Graph":
        """Return an independent deep copy of the adjacency structure."""
        clone = Graph.__new__(Graph)
        clone._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # vertex operations
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> bool:
        """Add an isolated vertex; return ``True`` if it was new."""
        if v in self._adj:
            return False
        self._adj[v] = set()
        return True

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges.

        Raises :class:`~repro.errors.VertexNotFoundError` if absent.
        """
        try:
            neighbors = self._adj.pop(v)
        except KeyError:
            raise VertexNotFoundError(v) from None
        for w in neighbors:
            self._adj[w].discard(v)
        self._num_edges -= len(neighbors)

    def has_vertex(self, v: Vertex) -> bool:
        """Return whether ``v`` is a vertex of the graph."""
        return v in self._adj

    __contains__ = has_vertex

    # ------------------------------------------------------------------
    # edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert the undirected edge ``(u, v)``; return ``True`` if new.

        Endpoints are created on demand.  Self loops raise
        :class:`~repro.errors.SelfLoopError`.
        """
        if u == v:
            raise SelfLoopError(u)
        adj = self._adj
        u_nbrs = adj.get(u)
        if u_nbrs is None:
            u_nbrs = adj[u] = set()
        v_nbrs = adj.get(v)
        if v_nbrs is None:
            v_nbrs = adj[v] = set()
        if v in u_nbrs:
            return False
        u_nbrs.add(v)
        v_nbrs.add(u)
        self._num_edges += 1
        return True

    def add_edge_strict(self, u: Vertex, v: Vertex) -> None:
        """Insert ``(u, v)``, raising :class:`EdgeExistsError` on duplicates."""
        if not self.add_edge(u, v):
            raise EdgeExistsError(u, v)

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert many edges; return the number that were actually new."""
        added = 0
        for u, v in edges:
            if self.add_edge(u, v):
                added += 1
        return added

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``(u, v)``.

        Endpoints stay in the graph even if they become isolated.  Raises
        :class:`~repro.errors.EdgeNotFoundError` if the edge is absent.
        """
        adj = self._adj
        if u not in adj or v not in adj[u]:
            raise EdgeNotFoundError(u, v)
        adj[u].discard(v)
        adj[v].discard(u)
        self._num_edges -= 1

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return whether the undirected edge ``(u, v)`` is present."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices, the paper's ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, the paper's ``m``."""
        return self._num_edges

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over the vertices in insertion order."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Yield every undirected edge exactly once.

        The orientation of each yielded pair is unspecified but
        deterministic for a given construction history.
        """
        seen: set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def neighbors(self, v: Vertex) -> set[Vertex]:
        """Return the neighbour set of ``v``.

        The returned set is the graph's internal storage for speed; callers
        must treat it as read-only.  Raises
        :class:`~repro.errors.VertexNotFoundError` if ``v`` is absent.
        """
        try:
            return self._adj[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def degree(self, v: Vertex) -> int:
        """Return ``deg(v, G)``, raising if ``v`` is absent."""
        try:
            return len(self._adj[v])
        except KeyError:
            raise VertexNotFoundError(v) from None

    def degrees(self) -> dict[Vertex, int]:
        """Return a fresh ``{vertex: degree}`` mapping."""
        return {v: len(nbrs) for v, nbrs in self._adj.items()}

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by ``vertices``.

        Unknown vertices raise :class:`~repro.errors.VertexNotFoundError`;
        that surfaces typos instead of silently shrinking the result.  The
        kept vertices enter the subgraph in this graph's own order, so the
        result does not depend on set iteration (the string hash).
        """
        keep = set()
        for v in vertices:
            if v not in self._adj:
                raise VertexNotFoundError(v)
            keep.add(v)
        sub = Graph()
        order = [v for v in self._adj if v in keep]
        for v in order:
            sub.add_vertex(v)
        for v in order:
            for w in self._adj[v]:
                if w in keep:
                    sub.add_edge(v, w)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """Return the subgraph made of ``edges`` (which must exist here)."""
        sub = Graph()
        for u, v in edges:
            if not self.has_edge(u, v):
                raise EdgeNotFoundError(u, v)
            sub.add_edge(u, v)
        return sub

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
