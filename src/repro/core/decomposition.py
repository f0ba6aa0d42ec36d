"""(k,p)-core decomposition — Algorithm 2 (kpCoreDecom).

For every ``k`` from 1 to the degeneracy ``d(G)``, the decomposition
computes the **p-number** ``pn(v, k)`` of every k-core vertex: the largest
``p`` for which ``v`` is still in the (k,p)-core.  The paper's formulation
peels the k-core in rounds — find the minimum fraction ``p_min``, delete
every vertex whose fraction is dragged to ``<= p_min`` (or whose degree
falls below ``k``), repeat — and the round level at deletion time is the
vertex's p-number.

Implementation notes
--------------------
* The per-``k`` peel is the flat kernel of :mod:`repro.core.peel_flat`:
  it drains bin-sorted integer-rank chains over a global composite-key
  ladder.  The decomposition looks it up through
  :data:`repro.core.peel_engines.ENGINES` and builds one scratch
  (:func:`repro.core.peel_engines.make_scratch`) that it threads through
  every ``k``, so the ladder is allocated once per decomposition rather
  than once per ``k``.
* The per-``k`` peels run serially, one after another, in ascending
  ``k``: at this scale the O(m) constant of one pass decides, and a
  process pool's start-up and snapshot shipping cost more than the peels
  it would overlap.
* Neighbour lists are pre-sorted by descending core number once, so for
  each ``k`` the k-core neighbours of ``v`` are a prefix of its slice
  (:meth:`~repro.graph.compact.CompactAdjacency.rank_prefix_length`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.devtools.contracts import verify_decomposition
from repro.errors import ParameterError
from repro.graph.adjacency import Graph, Vertex
from repro.graph.compact import CompactAdjacency
from repro.kcore.decomposition import core_numbers_compact
from repro.core.peel_engines import ENGINES, make_scratch
from repro.obs import names
from repro.obs.instrumentation import maybe_span

__all__ = [
    "FixedKDecomposition",
    "KPDecomposition",
    "kp_core_decomposition",
    "p_numbers_fixed_k",
]


@dataclass(frozen=True)
class FixedKDecomposition:
    """Peeling result for one ``k``: deletion order and p-numbers.

    ``order[i]`` is the i-th vertex deleted by Algorithm 2 at this ``k``
    and ``p_numbers[i]`` its p-number; p-numbers are non-decreasing along
    the order.
    """

    k: int
    order: Sequence[Vertex]
    p_numbers: Sequence[float]

    def pn_map(self) -> dict[Vertex, float]:
        """``{vertex: pn(vertex, k)}`` for every k-core vertex."""
        return dict(zip(self.order, self.p_numbers))

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class KPDecomposition:
    """Full output of Algorithm 2: one :class:`FixedKDecomposition` per k.

    ``arrays[k]`` exists for every ``k`` in ``1..degeneracy``.
    """

    arrays: Mapping[int, FixedKDecomposition]
    core_numbers: Mapping[Vertex, int]
    degeneracy: int
    # Lazily built {k: pn_map} lookup cache; mutating dict contents is
    # compatible with the frozen dataclass (no attribute rebinding).
    _pn_maps: dict[int, dict[Vertex, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def p_number(self, v: Vertex, k: int) -> float:
        """``pn(v, k, G)``; raises ``KeyError`` if ``v`` is not in the k-core."""
        fixed = self.arrays.get(k)
        if fixed is None:
            raise KeyError(f"no {k}-core in this graph (degeneracy {self.degeneracy})")
        pn_map = self._pn_maps.get(k)
        if pn_map is None:
            pn_map = fixed.pn_map()
            self._pn_maps[k] = pn_map
        try:
            return pn_map[v]
        except KeyError:
            raise KeyError(f"vertex {v!r} is not in the {k}-core") from None


@verify_decomposition
def kp_core_decomposition(graph: Graph) -> KPDecomposition:
    """Run Algorithm 2: p-numbers of every vertex for every valid ``k``.

    Under ``REPRO_VERIFY=1`` the output is re-checked: arrays sorted in
    deletion order, k-cores nested, p-numbers non-increasing in ``k``.
    Under ``REPRO_OBS`` the run records per-round peel/re-key counters
    and a ``kp_decomposition`` span with per-phase children.
    """
    with maybe_span(names.DECOMP_SPAN):
        snapshot = CompactAdjacency(graph)
        with maybe_span(names.DECOMP_SPAN_CORE_NUMBERS):
            core, _ = core_numbers_compact(snapshot)
        with maybe_span(names.DECOMP_SPAN_SORT):
            snapshot.sort_neighbors_by_rank_desc(core)
        labels = snapshot.labels
        degeneracy = max(core, default=0)
        arrays: dict[int, FixedKDecomposition] = {}
        with maybe_span(names.DECOMP_SPAN_PEEL):
            peel = ENGINES["flat"]
            scratch = make_scratch(snapshot, core)
            for k in range(1, degeneracy + 1):
                order, p_numbers = peel(snapshot, core, k, scratch=scratch)
                arrays[k] = FixedKDecomposition(
                    k=k,
                    order=[labels[v] for v in order],
                    p_numbers=p_numbers,
                )
        return KPDecomposition(
            arrays=arrays,
            core_numbers={labels[i]: core[i] for i in range(len(labels))},
            degeneracy=degeneracy,
        )


def p_numbers_fixed_k(graph: Graph, k: int) -> dict[Vertex, float]:
    """p-numbers for one ``k`` only (the inner loop of Algorithm 2)."""
    if k < 1:
        raise ParameterError(f"degree threshold k must be >= 1, got {k}")
    snapshot = CompactAdjacency(graph)
    core, _ = core_numbers_compact(snapshot)
    snapshot.sort_neighbors_by_rank_desc(core)
    order, p_numbers = ENGINES["flat"](snapshot, core, k)
    labels = snapshot.labels
    return {labels[v]: pn for v, pn in zip(order, p_numbers)}
