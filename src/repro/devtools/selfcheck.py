"""Self-check battery: run every runtime contract against one graph.

Wired as ``python -m repro selfcheck [FILE]``.  With a SNAP edge-list
``FILE`` the battery runs on that graph; without one it runs on a small
deterministic Erdős–Rényi graph.  Contracts are force-enabled for the
duration of the run regardless of ``REPRO_VERIFY``.

Checks, in order:

1. Algorithm 2 decomposition: arrays sorted, k-cores nested, p-numbers
   monotone non-increasing in ``k``.
2. kpCore over a (k, p) grid: Definition 3 postcondition, and agreement
   between the KP-Index answer and from-scratch computation.
3. KP-Index structural validation (nesting, Lemma 1 space bound).
4. Bounds sandwich ``p_ <= pn <= min(p̂, p̃)`` for every vertex of every
   array (vertices are sampled on large graphs).
5. Maintenance round-trip: delete and re-insert a few edges through the
   maintainer, then compare against a from-scratch rebuild.
"""

from __future__ import annotations

import sys
from typing import IO, Callable

from repro.errors import ContractViolationError, ReproError
from repro.devtools import contracts

__all__ = ["DEFAULT_GRID", "run", "selfcheck_graph"]

#: (k, p) pairs exercised by the kpCore/query cross-check.
DEFAULT_GRID: tuple[tuple[int, float], ...] = (
    (1, 0.0),
    (1, 0.5),
    (2, 0.25),
    (2, 0.5),
    (2, 1.0),
    (3, 1 / 3),
    (3, 0.6),
    (4, 0.5),
)

#: Per-array cap on vertices given the full bounds-sandwich treatment.
_SANDWICH_SAMPLE = 200

#: Number of edges exercised by the maintenance round-trip.
_ROUNDTRIP_EDGES = 5


def _default_graph():
    from repro.graph.generators import erdos_renyi_gnp

    return erdos_renyi_gnp(60, 0.12, seed=7)


def selfcheck_graph(graph, out: IO[str] = sys.stdout) -> int:
    """Run the full contract battery on ``graph``; returns an exit code."""
    from repro.core.decomposition import kp_core_decomposition
    from repro.core.index import KPIndex
    from repro.core.kpcore import kp_core_vertices
    from repro.core.maintenance import KPIndexMaintainer

    previous = contracts.set_contracts_active(True)
    failures = 0

    def step(label: str, action: Callable[[], None]) -> None:
        nonlocal failures
        try:
            action()
        except ContractViolationError as error:
            failures += 1
            out.write(f"FAIL {label}: {error}\n")
        else:
            out.write(f"ok   {label}\n")

    try:
        out.write(
            f"selfcheck: n={graph.num_vertices} m={graph.num_edges}\n"
        )
        decomposition = kp_core_decomposition(graph)
        step(
            "decomposition monotone/sorted/nested",
            lambda: contracts.check_decomposition(decomposition),
        )

        index = KPIndex.from_decomposition(decomposition, graph.num_edges)

        def grid_check() -> None:
            for k, p in DEFAULT_GRID:
                kp_core_vertices(graph, k, p)  # verify_kp_core contract fires
                contracts.check_query_result(graph, k, p, index.query(k, p))

        step(f"kpCore + index query grid ({len(DEFAULT_GRID)} points)", grid_check)
        step("index structural validation", index.validate)

        def sandwich_check() -> None:
            for k, array in sorted(index.arrays().items()):
                if k < 2 or not len(array):
                    continue
                vertices = array.vertices[:_SANDWICH_SAMPLE]
                contracts.check_bounds_sandwich(
                    graph,
                    array,
                    vertices,
                    check_lower=graph.num_edges
                    <= contracts.FULL_CHECK_EDGE_LIMIT,
                )

        step("bounds sandwich p_ <= pn <= min(p^, p~)", sandwich_check)

        def roundtrip_check() -> None:
            working = graph.copy()
            maintainer = KPIndexMaintainer(working)
            edges = []
            for edge in working.edges():
                edges.append(edge)
                if len(edges) >= _ROUNDTRIP_EDGES:
                    break
            for u, v in edges:
                maintainer.delete_edge(u, v)
            for u, v in edges:
                maintainer.insert_edge(u, v)
            contracts.check_index_against_scratch(working, maintainer.index)

        step(
            f"maintenance round-trip ({_ROUNDTRIP_EDGES} edges)",
            roundtrip_check,
        )
    finally:
        contracts.set_contracts_active(previous)

    if failures:
        out.write(f"selfcheck: {failures} contract(s) FAILED\n")
        return 1
    out.write("selfcheck: all contracts hold\n")
    return 0


def run(path: str | None = None, out: IO[str] = sys.stdout) -> int:
    """CLI entry: self-check the edge list at ``path`` (or a builtin graph)."""
    if path is None:
        graph = _default_graph()
    else:
        from repro.cli import _read_graph

        try:
            graph = _read_graph(path)
        except (ReproError, FileNotFoundError) as error:
            out.write(f"error: {error}\n")
            return 2
    return selfcheck_graph(graph, out=out)
