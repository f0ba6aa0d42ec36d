"""Compact array-based snapshot of a :class:`~repro.graph.adjacency.Graph`.

The batch algorithms in :mod:`repro.kcore` and :mod:`repro.core` are
peeling algorithms that touch every edge a small number of times.  Running
them over Python dict-of-set adjacency is dominated by hashing; this module
freezes a graph into flat typed arrays (a CSR layout) with vertices
renumbered to ``0..n-1`` so the inner loops become array indexing.  The
:mod:`array` storage also keeps the snapshot small: 4 bytes per edge
endpoint instead of a PyObject pointer per list slot.

The snapshot can additionally sort each neighbour list by *descending core
number*.  Then, for any ``k``, the neighbours of ``v`` inside the k-core
form a prefix of its slice — the (k,p)-core decomposition iterates that
prefix directly instead of filtering every neighbour, which is what keeps
the O(d·m) loop practical in pure Python.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

from repro.errors import VertexNotFoundError
from repro.graph.adjacency import Graph, Vertex

__all__ = ["CompactAdjacency"]


class CompactAdjacency:
    """Immutable CSR view of an undirected simple graph.

    Attributes
    ----------
    indptr:
        ``indptr[i]:indptr[i+1]`` delimits the neighbour slice of vertex
        ``i`` within :attr:`indices` (``array('l')``).
    indices:
        Flattened neighbour lists, internal ids (``array('i')``).
    labels:
        ``labels[i]`` is the original vertex object for internal id ``i``.
    """

    __slots__ = ("indptr", "indices", "labels", "_index_of")

    def __init__(self, graph: Graph):
        order: list[Vertex] = list(graph.vertices())
        index_of: dict[Vertex, int] = {v: i for i, v in enumerate(order)}
        indptr = [0] * (len(order) + 1)
        for i, v in enumerate(order):
            indptr[i + 1] = indptr[i] + graph.degree(v)
        indices = [0] * indptr[-1]
        cursor = indptr[:-1].copy()
        for i, v in enumerate(order):
            for w in graph.neighbors(v):
                indices[cursor[i]] = index_of[w]
                cursor[i] += 1
        self.indptr: array[int] = array("l", indptr)
        self.indices: array[int] = array("i", indices)
        self.labels: list[Vertex] = order
        self._index_of = index_of

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def index_of(self, v: Vertex) -> int:
        """Map an original vertex object to its internal id."""
        try:
            return self._index_of[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def degree(self, i: int) -> int:
        """Degree of internal vertex ``i`` in the snapshot."""
        return self.indptr[i + 1] - self.indptr[i]

    def degrees(self) -> list[int]:
        """Degrees of all vertices, indexed by internal id."""
        indptr = self.indptr
        return [indptr[i + 1] - indptr[i] for i in range(self.num_vertices)]

    def neighbor_slice(self, i: int) -> Sequence[int]:
        """Neighbour ids of vertex ``i`` (an array slice; do not mutate)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def iter_neighbors(self, i: int) -> Iterator[int]:
        start, stop = self.indptr[i], self.indptr[i + 1]
        indices = self.indices
        for pos in range(start, stop):
            yield indices[pos]

    # ------------------------------------------------------------------
    def sort_neighbors_by_rank_desc(self, rank: Sequence[int]) -> None:
        """Sort every neighbour slice by descending ``rank`` value.

        Used with core numbers as ranks: afterwards
        :meth:`rank_prefix_length` locates the boundary of ``rank >= k``
        prefixes in O(log deg).  Ties are broken by internal id so the
        layout is deterministic.
        """
        indices = self.indices
        indptr = self.indptr
        n = self.num_vertices
        # Composite integer key: ``j - rank[j]*(n+1)`` orders primarily by
        # descending rank, then ascending id (``j < n+1`` can never flip a
        # rank difference).  One flat list beats a tuple-building lambda —
        # the m log d sort then does int comparisons and key lookups only.
        n1 = n + 1
        sort_key = [j - rank[j] * n1 for j in range(n)]
        for i in range(n):
            start, stop = indptr[i], indptr[i + 1]
            chunk = sorted(indices[start:stop], key=sort_key.__getitem__)
            indices[start:stop] = array("i", chunk)

    def rank_prefix_length(self, i: int, k: int, rank: Sequence[int]) -> int:
        """Length of the prefix of ``i``'s slice with ``rank >= k``.

        Requires a prior :meth:`sort_neighbors_by_rank_desc` with the same
        ``rank`` array.
        """
        start, stop = self.indptr[i], self.indptr[i + 1]
        indices = self.indices
        # Neighbour ranks are non-increasing across the slice, so the first
        # position with rank < k is found by binary search.
        lo, hi = start, stop
        while lo < hi:
            mid = (lo + hi) // 2
            if rank[indices[mid]] >= k:
                lo = mid + 1
            else:
                hi = mid
        return lo - start

    def __repr__(self) -> str:
        return f"CompactAdjacency(n={self.num_vertices}, m={self.num_edges})"

