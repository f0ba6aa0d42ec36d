"""Subgraph and edge sampling used by the experiments (Figs. 14-16).

The paper scales Orkut by "randomly sampling nodes (resp. edges) from 20%
to 100%" and running on the induced subgraphs.  Both samplers are
deterministic given a seed.  Edges are drawn from :func:`ordered_edges`,
never from :meth:`Graph.edges`, whose order follows neighbour-set
iteration and so, for string labels, the per-process string hash.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import ParameterError
from repro.graph.adjacency import Edge, Graph, Vertex

__all__ = ["ordered_edges", "sample_vertices", "sample_edges", "sample_ratios"]

#: The sampling grid the paper uses on the x-axis of Figs. 14 and 16.
sample_ratios: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0)


def _check_ratio(ratio: float) -> None:
    if not 0.0 < ratio <= 1.0:
        raise ParameterError(f"sample ratio must be in (0, 1], got {ratio}")


def _label_key(v: Vertex) -> tuple[str, Vertex]:
    # Labels of one type compare among themselves; the type name orders
    # the types of a mixed-label graph (every int before every str).
    return type(v).__name__, v


def _edge_key(edge: Edge) -> tuple:
    return _label_key(edge[0]), _label_key(edge[1])


def ordered_edges(graph: Graph) -> list[Edge]:
    """Every edge once as a ``(smaller, larger)`` label pair, sorted."""
    return sorted(
        (min((u, v), (v, u), key=_edge_key) for u, v in graph.edges()),
        key=_edge_key,
    )


def sample_vertices(graph: Graph, ratio: float, seed: int = 0) -> Graph:
    """Induced subgraph on a uniform ``ratio`` fraction of the vertices.

    ``ratio=1.0`` returns a copy of the full graph so that callers can
    treat all grid points uniformly.
    """
    _check_ratio(ratio)
    if ratio == 1.0:
        return graph.copy()
    rng = random.Random(seed)
    vertices = list(graph.vertices())
    keep_count = max(1, round(ratio * len(vertices)))
    keep = rng.sample(vertices, keep_count)
    return graph.induced_subgraph(keep)


def sample_edges(graph: Graph, ratio: float, seed: int = 0) -> Graph:
    """Subgraph spanned by a uniform ``ratio`` fraction of the edges.

    Vertices that lose all incident edges are dropped, matching the
    "induced subgraph of the sampled edge set" construction in the paper.
    """
    _check_ratio(ratio)
    if ratio == 1.0:
        return graph.copy()
    rng = random.Random(seed)
    edges = ordered_edges(graph)
    keep_count = max(1, round(ratio * len(edges)))
    keep = rng.sample(edges, keep_count)
    return Graph(keep)
