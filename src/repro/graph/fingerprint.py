"""Order-independent graph fingerprints for persisted-index validation.

A persisted KP-Index is only meaningful relative to the graph it was built
from; the durability layer (:mod:`repro.service`) therefore stamps every
snapshot with a :class:`GraphFingerprint` — ``(n, m, edge multiset hash)``
— and refuses to pair a checkpointed index with a graph that no longer
matches it.

The edge hash must not depend on adjacency-iteration order or edge
orientation (both are construction-history artifacts), so each undirected
edge is canonicalized to a sorted label pair and the per-edge SHA-256
digests are combined with XOR, which is commutative and associative.  Two
graphs with the same vertex labels and edge set always produce the same
fingerprint, whatever order their edges were inserted in.

XOR is also its own inverse, so the hash can be kept current under edge
updates: inserting or deleting an edge toggles its :func:`edge_digest`.
:class:`~repro.core.maintenance.KPIndexMaintainer` keeps a running hash
that way, and the durability layer stamps checkpoints with it instead of
rehashing the whole graph.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import IndexPersistenceError
from repro.graph.adjacency import Edge, Graph

__all__ = [
    "GraphFingerprint",
    "graph_fingerprint",
    "edge_multiset_hash",
    "edge_digest",
    "format_edge_hash",
]

_HASH_BYTES = 16  # 128 bits of the SHA-256 digest; plenty for corruption checks


def _edge_token(u: object, v: object) -> bytes:
    """Canonical byte string for one undirected edge.

    Labels are rendered with ``repr`` (distinguishing ``1`` from ``"1"``)
    and sorted so orientation does not matter.
    """
    a, b = sorted((repr(u), repr(v)))
    return f"{a}\x1f{b}".encode("utf-8")


def edge_digest(u: object, v: object) -> int:
    """The per-edge term of the edge hash (either orientation)."""
    digest = hashlib.sha256(_edge_token(u, v)).digest()[:_HASH_BYTES]
    return int.from_bytes(digest, "big")


def format_edge_hash(combined: int) -> str:
    """Hex rendering of an XOR of :func:`edge_digest` terms."""
    return format(combined, f"0{2 * _HASH_BYTES}x")


def edge_multiset_hash(edges: Iterable[Edge]) -> str:
    """Hex digest of an edge multiset, independent of iteration order."""
    combined = 0
    for u, v in edges:
        combined ^= edge_digest(u, v)
    return format_edge_hash(combined)


@dataclass(frozen=True)
class GraphFingerprint:
    """``(n, m, edge-hash)`` identity of a graph at snapshot time."""

    num_vertices: int
    num_edges: int
    edge_hash: str

    def to_dict(self) -> dict:
        return {
            "n": self.num_vertices,
            "m": self.num_edges,
            "edge_hash": self.edge_hash,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "GraphFingerprint":
        try:
            return cls(
                num_vertices=int(payload["n"]),
                num_edges=int(payload["m"]),
                edge_hash=str(payload["edge_hash"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise IndexPersistenceError(
                f"malformed graph fingerprint: {error!r}"
            ) from error

    def matches(self, graph: Graph) -> bool:
        """Whether ``graph`` is (up to label identity) the stamped graph."""
        if (
            graph.num_vertices != self.num_vertices
            or graph.num_edges != self.num_edges
        ):
            return False
        return edge_multiset_hash(graph.edges()) == self.edge_hash


def graph_fingerprint(graph: Graph) -> GraphFingerprint:
    """Fingerprint of ``graph``'s current vertex/edge content."""
    return GraphFingerprint(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        edge_hash=edge_multiset_hash(graph.edges()),
    )
