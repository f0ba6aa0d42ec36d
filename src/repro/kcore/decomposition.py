"""Linear-time core decomposition (Batagelj–Zaversnik, reference [3]).

``kcoreDecomp`` in the paper's evaluation.  The bucket ("bin sort")
algorithm peels vertices in non-decreasing order of current degree using
O(n + m) work; the degree at removal time is the vertex's **core number**.

The hot loop (:func:`bucket_core_numbers`) runs over flat integer-id
adjacency: a :class:`~repro.graph.compact.CompactAdjacency` snapshot
(:func:`core_numbers_compact`) or the KP-Index maintainer's persistent
peel state; the public entry point accepts a
:class:`~repro.graph.adjacency.Graph` and maps results back to vertex
labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.graph.adjacency import Graph, Vertex
from repro.graph.compact import CompactAdjacency
from repro.obs import names
from repro.obs.instrumentation import get_collector

__all__ = [
    "CoreDecomposition",
    "bucket_core_numbers",
    "core_decomposition",
    "core_numbers_compact",
    "degeneracy",
    "degeneracy_ordering",
]


def core_numbers_compact(snapshot: CompactAdjacency) -> tuple[list[int], list[int]]:
    """Core numbers and peel order for a compact snapshot.

    Returns ``(core, order)`` where ``core[i]`` is the core number of
    internal vertex ``i`` and ``order`` lists internal ids in the order the
    bucket algorithm peels them (a degeneracy ordering).
    """
    return bucket_core_numbers(
        snapshot.indptr, snapshot.degrees(), snapshot.indices
    )


def bucket_core_numbers(
    starts: Sequence[int], degrees: Sequence[int], indices: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The Batagelj–Zaversnik bucket pass over an int-id adjacency.

    Vertex ``v``'s neighbours are ``indices[starts[v] : starts[v] +
    degrees[v]]``, so the blocks need be neither contiguous nor in vertex
    order: a CSR snapshot (``starts = indptr``) and the maintainer's
    slack-block :class:`~repro.core.peel_flat.PeelState` both qualify.
    Returns ``(core, order)`` as :func:`core_numbers_compact` does.
    """
    n = len(degrees)
    if n == 0:
        return [], []
    max_deg = max(degrees)

    # Counting sort of vertices by degree.
    bin_start = [0] * (max_deg + 2)
    for d in degrees:
        bin_start[d + 1] += 1
    for d in range(1, max_deg + 2):
        bin_start[d] += bin_start[d - 1]
    vert = [0] * n
    pos = [0] * n
    cursor = bin_start[: max_deg + 1].copy()
    for v in range(n):
        d = degrees[v]
        pos[v] = cursor[d]
        vert[pos[v]] = v
        cursor[d] += 1

    # Peel in degree order; `core` doubles as the current-degree array.
    core = list(degrees)
    for i in range(n):
        v = vert[i]
        cv = core[v]
        p = starts[v]
        for u in indices[p : p + degrees[v]]:
            cu = core[u]
            if cu > cv:
                # Swap u to the front of its bucket, then shrink the bucket.
                pu = pos[u]
                pw = bin_start[cu]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bin_start[cu] += 1
                core[u] = cu - 1
    obs = get_collector()
    if obs is not None:
        # `core` started as the degree array and lost one per bucket
        # demotion, so the move count is derived after the loop: the
        # O(n + m) peel runs identically with collection on or off.
        total_degree = sum(degrees)
        obs.inc(names.KCORE_DECOMP_CALLS)
        obs.add(names.KCORE_DECOMP_EDGE_SCANS, total_degree)
        obs.add(names.KCORE_DECOMP_BUCKET_MOVES, total_degree - sum(core))
    return core, vert


@dataclass(frozen=True)
class CoreDecomposition:
    """Result of a full core decomposition of one graph.

    Attributes
    ----------
    core_numbers:
        ``cn(v, G)`` for every vertex.
    peel_order:
        Vertices in removal order — a degeneracy ordering of ``G``.
    degeneracy:
        ``d(G) = max{k : C_k(G) != ∅}`` (0 for the empty graph).
    """

    core_numbers: Mapping[Vertex, int]
    peel_order: Sequence[Vertex]
    degeneracy: int = field(init=False)

    def __post_init__(self) -> None:
        max_core = max(self.core_numbers.values(), default=0)
        object.__setattr__(self, "degeneracy", max_core)

    def core_number(self, v: Vertex) -> int:
        """``cn(v, G)``; raises ``KeyError`` for unknown vertices."""
        return self.core_numbers[v]

    def k_core_vertices(self, k: int) -> set[Vertex]:
        """Vertex set of the k-core, ``{v : cn(v) >= k}``."""
        return {v for v, c in self.core_numbers.items() if c >= k}

    def core_size_profile(self) -> list[int]:
        """``profile[k]`` = |V(C_k(G))| for k in ``0..degeneracy``."""
        counts = [0] * (self.degeneracy + 1)
        for c in self.core_numbers.values():
            counts[c] += 1
        # Suffix-sum: the k-core contains every vertex with cn >= k.
        for k in range(self.degeneracy - 1, -1, -1):
            counts[k] += counts[k + 1]
        return counts


def core_decomposition(graph: Graph) -> CoreDecomposition:
    """Full core decomposition of ``graph`` (``kcoreDecomp``)."""
    snapshot = CompactAdjacency(graph)
    core, order = core_numbers_compact(snapshot)
    labels = snapshot.labels
    return CoreDecomposition(
        core_numbers={labels[i]: core[i] for i in range(len(labels))},
        peel_order=[labels[i] for i in order],
    )


def degeneracy(graph: Graph) -> int:
    """``d(G)``: the largest ``k`` with a non-empty k-core."""
    return core_decomposition(graph).degeneracy


def degeneracy_ordering(graph: Graph) -> list[Vertex]:
    """A degeneracy (smallest-degree-last) ordering of the vertices."""
    return list(core_decomposition(graph).peel_order)
