"""Fraction upper/lower bounds on p-numbers (Sec. VI, Defs. 5-7).

The paper states these bounds on the grid ``i / D`` (D the relevant
degree): ``max i/D`` such that at least ``i`` candidate neighbours have
value ``>= i/D``.  That form has a subtle hole: a vertex peeled in a
*cascade* inherits the round level — some **other** vertex's fraction — so
its p-number need not be a multiple of ``1/D``, and the grid maximum can
fall strictly below it.  (Concretely: a triangle whose gateway vertex has
fraction 2/3 gives every triangle member ``pn = 2/3``, while the grid bound
for a degree-2 member is 1/2.)

We therefore use the corrected, provably sound forms:

* **Upper bounds** (``p̂`` of Def. 5, ``p̃`` of Def. 6):

      bound = max_j  min(val_j, j / D),   val_1 >= val_2 >= ... descending.

  *Proof.*  Let ``q = pn(w)`` and ``C* = C_{k,q}``.  ``w`` keeps
  ``deg(w,C*) >= ceil(q·D) =: t`` neighbours in ``C*``; each such ``v`` has
  ``val(v) >= q`` (its k-core fraction, resp. its own ``p̂``, dominates its
  fraction in ``C*``).  Hence ``val_t >= q`` and ``q <= t/D``, so
  ``min(val_t, t/D) >= q``.  The grid form is the special case
  ``min = j/D`` and is never larger.

* **Lower bounds** (Thm. 5 / Eq. 3, Thm. 6 / Eq. 4, Def. 7 / Eq. 5):

      bound = min(p1, deg(v, C) / D),   C = C_{k,p1}, p1 = pn(v, k, G).

  *Proof.*  ``C`` itself (with the updated edge applied) witnesses the
  bound: every member other than ``v`` keeps fraction ``>= p1`` (degrees
  untouched by the update), and ``v`` keeps ``deg(v, C)`` of ``D``
  neighbours.  The paper's unclamped grid form can exceed ``p1`` and is
  then not certified by any subgraph, so we clamp.  The maintenance
  planner (:mod:`repro.core.maintenance`) computes this bound inline when
  it derives a window's ``p_-``.

Both corrections only make the maintenance windows marginally wider /
skips marginally rarer; the asymptotic savings are unchanged and the test
suite checks exact agreement with from-scratch decomposition.
"""

from __future__ import annotations

from typing import Iterable

from repro.graph.adjacency import Graph, Vertex
from repro.core.pvalue import fraction_value

__all__ = [
    "upper_h_value",
    "scaled_h_index",
    "degree_in",
    "fraction_in",
    "BoundsCache",
    "p_hat",
    "p_tilde",
]


def upper_h_value(values: Iterable[float], denominator: int) -> float:
    """``max_j min(val_j, j/D)`` over descending values (corrected bound).

    Returns 0.0 for an empty candidate set or non-positive denominator.
    """
    if denominator <= 0:
        return 0.0
    ordered = sorted(values, reverse=True)
    best = 0.0
    for j, val in enumerate(ordered, start=1):
        candidate = min(val, fraction_value(j, denominator))
        if candidate > best:
            best = candidate
        if val <= best:
            break  # later vals only shrink min(val, ·)
    return best


def scaled_h_index(values: Iterable[float], denominator: int) -> float:
    """The paper's literal grid bound ``max{i/D : val_i >= i/D}``.

    Kept for reference and for tests that demonstrate why the corrected
    :func:`upper_h_value` is required; not used by maintenance.
    """
    if denominator <= 0:
        return 0.0
    ordered = sorted(values, reverse=True)
    best = 0
    for i in range(1, len(ordered) + 1):
        if ordered[i - 1] >= fraction_value(i, denominator):
            best = i
        else:
            break  # values descend while i/D rises: condition stays false
    return fraction_value(best, denominator) if best else 0.0


def degree_in(graph: Graph, members: set[Vertex], v: Vertex) -> int:
    """``deg(v, C)`` for the subgraph induced by ``members``."""
    return sum(1 for w in graph.neighbors(v) if w in members)


def fraction_in(graph: Graph, members: set[Vertex], v: Vertex) -> float:
    """``deg(v, C) / deg(v, G)`` for the subgraph induced by ``members``."""
    return fraction_value(degree_in(graph, members, v), graph.degree(v))


class BoundsCache:
    """Memoized fraction / ``p̂`` evaluations over one fixed k-core.

    ``p̃(w)`` touches the two-hop neighbourhood of ``w``; inside a dense
    core those neighbourhoods overlap almost completely, so memoizing the
    per-vertex fraction and ``p̂`` values turns the quadratic-ish scan into
    one pass over the distinct vertices involved.  Create one cache per
    (update, k) pair — it must be discarded whenever the graph or the core
    changes.
    """

    __slots__ = ("graph", "kcore", "_fraction", "_p_hat")

    def __init__(self, graph: Graph, kcore: set[Vertex]) -> None:
        self.graph = graph
        self.kcore = kcore
        self._fraction: dict[Vertex, float] = {}
        self._p_hat: dict[Vertex, float] = {}

    def fraction(self, x: Vertex) -> float:
        value = self._fraction.get(x)
        if value is None:
            value = fraction_in(self.graph, self.kcore, x)
            self._fraction[x] = value
        return value

    def p_hat(self, x: Vertex) -> float:
        value = self._p_hat.get(x)
        if value is None:
            kcore = self.kcore
            value = upper_h_value(
                (self.fraction(y) for y in self.graph.neighbors(x) if y in kcore),
                self.graph.degree(x),
            )
            self._p_hat[x] = value
        return value

    def p_tilde(self, w: Vertex) -> float:
        kcore = self.kcore
        return upper_h_value(
            (self.p_hat(x) for x in self.graph.neighbors(w) if x in kcore),
            self.graph.degree(w),
        )


def p_hat(graph: Graph, kcore: set[Vertex], w: Vertex) -> float:
    """Upper bound ``p̂(w, k, G)`` of Definition 5 (corrected form).

    ``kcore`` must be the vertex set of ``C_k(G)`` for the relevant ``k``.
    """
    return BoundsCache(graph, kcore).p_hat(w)


def p_tilde(graph: Graph, kcore: set[Vertex], w: Vertex) -> float:
    """Tighter upper bound ``p̃(w, k, G)`` of Definition 6 (corrected form).

    Evaluates ``p̂`` for every k-core neighbour of ``w`` (two-hop work).
    Use :class:`BoundsCache` directly when evaluating several vertices over
    the same core.
    """
    return BoundsCache(graph, kcore).p_tilde(w)
