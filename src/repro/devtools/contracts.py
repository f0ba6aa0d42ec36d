"""Opt-in runtime invariant contracts for the core algorithms.

Enable with ``REPRO_VERIFY=1`` in the environment (or programmatically via
:func:`set_contracts_active`).  When active, decorated algorithms re-check
their outputs against the paper's definitions:

* :func:`verify_kp_core` — kpCore output satisfies Definition 3
  (via :func:`repro.core.kpcore.satisfies_kp_constraints`),
* :func:`verify_decomposition` — p-numbers are monotone non-increasing in
  ``k`` and each array is sorted in deletion order (Algorithm 2),
* :func:`verify_maintainer_update` — after every edge update the endpoint
  p-numbers respect the bounds sandwich ``p_ <= pn(v,k) <= f(v)`` (the
  first peel level below, the one-hop k-core fraction above) and, on
  small graphs, the whole index re-validates, the maintainer's running
  graph fingerprint equals a full rehash
  (:func:`check_running_fingerprint`) and its kept peel state mirrors
  the graph (:func:`check_peel_state`),
* :func:`verify_maintainer_query` — KP-Index answers equal from-scratch
  :func:`repro.core.kpcore.kp_core_vertices`.

A violated contract raises :class:`~repro.errors.ContractViolationError`
— always a library bug, never user error.  With the environment variable
unset, each decorated call costs exactly one cached boolean check.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, Iterable, Mapping, TypeVar

from repro.errors import ContractViolationError

__all__ = [
    "ENV_VAR",
    "contracts_active",
    "set_contracts_active",
    "refresh_from_env",
    "check_kp_core_output",
    "check_decomposition",
    "check_bounds_sandwich",
    "check_query_result",
    "check_index_against_scratch",
    "check_running_fingerprint",
    "check_peel_state",
    "verify_kp_core",
    "verify_decomposition",
    "verify_maintainer_update",
    "verify_maintainer_query",
    "verify_batch_state",
]

#: Environment variable that switches the contract layer on.
ENV_VAR = "REPRO_VERIFY"

#: Full-index checks (re-validation, global lower bounds) only run on
#: graphs at most this many edges; the per-endpoint sandwich always runs.
FULL_CHECK_EDGE_LIMIT = 2000

_TRUTHY = frozenset({"1", "true", "yes", "on"})

_F = TypeVar("_F", bound=Callable[..., Any])


def _env_active(value: str | None) -> bool:
    return value is not None and value.strip().lower() in _TRUTHY


_active: bool = _env_active(os.environ.get(ENV_VAR))


def contracts_active() -> bool:
    """Whether runtime contracts are currently enabled."""
    return _active


def set_contracts_active(enabled: bool) -> bool:
    """Force contracts on/off; returns the previous state (for restoring)."""
    global _active
    previous = _active
    _active = bool(enabled)
    return previous


def refresh_from_env() -> bool:
    """Re-read :data:`ENV_VAR`; returns the resulting state."""
    global _active
    _active = _env_active(os.environ.get(ENV_VAR))
    return _active


# ----------------------------------------------------------------------
# check functions (usable directly; the decorators call into these)
# ----------------------------------------------------------------------
def check_kp_core_output(graph: Any, members: Iterable[Any], k: int, p: float) -> None:
    """Definition 3 postcondition for a computed (k,p)-core vertex set."""
    from repro.core.kpcore import satisfies_kp_constraints

    member_set = set(members)
    if not satisfies_kp_constraints(graph, member_set, k, p):
        raise ContractViolationError(
            f"({k},{p})-core output violates Definition 3: some member "
            "fails the degree or fraction constraint"
        )


def check_decomposition(decomposition: Any) -> None:
    """Algorithm 2 postconditions on a full decomposition.

    Per-array p-numbers must be non-decreasing along the deletion order,
    k-cores must nest, and for every vertex ``pn(v, k)`` must be monotone
    non-increasing in ``k`` (a (k+1,p)-core is also a (k,p)-core witness).
    """
    arrays = decomposition.arrays
    previous_map: Mapping[Any, float] | None = None
    for k in sorted(arrays):
        fixed = arrays[k]
        p_numbers = list(fixed.p_numbers)
        for i in range(1, len(p_numbers)):
            if p_numbers[i] < p_numbers[i - 1]:
                raise ContractViolationError(
                    f"A_{k}: p-numbers not sorted along the deletion order "
                    f"at position {i}"
                )
        current_map = fixed.pn_map()
        if previous_map is not None:
            for v, pn in current_map.items():
                if v not in previous_map:
                    raise ContractViolationError(
                        f"A_{k}: vertex {v!r} is in the {k}-core but missing "
                        f"from the {k - 1}-core (nesting violated)"
                    )
                if pn > previous_map[v]:
                    raise ContractViolationError(
                        f"pn({v!r}, {k}) = {pn} exceeds "
                        f"pn({v!r}, {k - 1}) = {previous_map[v]}; p-numbers "
                        "must be non-increasing in k"
                    )
        previous_map = current_map


def check_bounds_sandwich(
    graph: Any,
    array: Any,
    vertices: Iterable[Any],
    check_lower: bool = False,
) -> None:
    """``p_ <= pn(v, k) <= f(v)`` for ``vertices`` of one ``A_k``.

    ``array`` is a :class:`repro.core.index.KArray` whose vertex set is
    the current k-core.  The upper bound is the one-hop cap ``f(v) =
    deg(v, C_k) / deg(v, G)``: ``v`` keeps at least a ``pn(v, k)`` share
    of its neighbours in ``C_{k,pn(v,k)} ⊆ C_k``.  The lower bound — only
    computed with ``check_lower=True``, it costs a full member scan — is
    the first peel level of Algorithm 2: no p-number falls below the
    minimum fraction over the k-core.
    """
    from repro.core.pvalue import fraction_value

    members = array.members_view()
    if not members:
        return

    def one_hop(w: Any) -> float:
        inside = sum(1 for x in graph.neighbors(w) if x in members)
        return fraction_value(inside, graph.degree(w))

    for w in vertices:
        if not array.contains(w):
            continue
        pn = array.p_number(w)
        upper = one_hop(w)
        if pn > upper:
            raise ContractViolationError(
                f"A_{array.k}: pn({w!r}) = {pn} exceeds its upper bound "
                f"deg({w!r}, C_{array.k}) / deg({w!r}) = {upper}"
            )
    if check_lower:
        p_lower = min(one_hop(w) for w in members)
        for w, pn in zip(array.vertices, array.p_numbers):
            if pn < p_lower:
                raise ContractViolationError(
                    f"A_{array.k}: pn({w!r}) = {pn} falls below the first "
                    f"peel level {p_lower}"
                )


def check_query_result(graph: Any, k: int, p: float, result: Iterable[Any]) -> None:
    """Index answers must equal from-scratch kpCore (Theorem 1 exactness)."""
    from repro.core.kpcore import kp_core_vertices

    answered = set(result)
    recomputed = kp_core_vertices(graph, k, p)
    if answered != recomputed:
        missing = recomputed - answered
        extra = answered - recomputed
        raise ContractViolationError(
            f"({k},{p})-core query disagrees with from-scratch kpCore: "
            f"{len(missing)} missing, {len(extra)} extra "
            f"(e.g. {sorted(map(repr, (missing | extra)))[:3]})"
        )


def check_index_against_scratch(graph: Any, index: Any) -> None:
    """Full semantic equality of an index with a from-scratch rebuild."""
    from repro.core.index import KPIndex

    fresh = KPIndex.build(graph)
    if not index.semantically_equal(fresh):
        raise ContractViolationError(
            "maintained KP-Index differs from a from-scratch rebuild"
        )


def check_running_fingerprint(maintainer: Any) -> None:
    """The maintainer's running fingerprint equals a rehash of its graph.

    :meth:`~repro.core.maintenance.KPIndexMaintainer.fingerprint` keeps
    the edge hash current by toggling one digest per applied op; a missed
    or doubled toggle shows up here as a mismatch.
    """
    from repro.graph.fingerprint import graph_fingerprint

    running = maintainer.fingerprint()
    rehashed = graph_fingerprint(maintainer.graph)
    if running != rehashed:
        raise ContractViolationError(
            f"running graph fingerprint {running} differs from a rehash "
            f"of the graph {rehashed}"
        )


def check_peel_state(maintainer: Any) -> None:
    """The maintainer's kept :class:`~repro.core.peel_flat.PeelState`
    mirrors its graph (nothing to check when it holds none).

    Ids and labels are one bijection onto the graph's vertices; each id's
    block holds exactly the label's neighbours, without repeats, within
    its capacity; each ladder offset is its degree's block; and the
    window mask and new-member flags rest at 0 between peels.  A missed
    or doubled patch shows up here as a mismatch.
    """
    state = maintainer._peel_state
    if state is None:
        return
    graph = maintainer.graph
    labels, id_of, ind = state.label_of, state.id_of, state.ind
    if len(labels) != graph.num_vertices or len(id_of) != len(labels):
        raise ContractViolationError(
            f"peel state holds {len(labels)} labels / {len(id_of)} ids for "
            f"a graph of {graph.num_vertices} vertices"
        )
    for x, v in enumerate(labels):
        if id_of.get(v) != x or v not in graph:
            raise ContractViolationError(
                f"peel state id {x} is labelled {v!r}, which does not map "
                "back to it or is not a graph vertex"
            )
        start, degree = state.iptr[x], state.deg[x]
        held = {labels[w] for w in ind[start : start + degree]}
        if (
            degree > state.cap[x]
            or len(held) != degree
            or held != graph.neighbors(v)
        ):
            raise ContractViolationError(
                f"peel state block of {v!r} ({degree} slots, capacity "
                f"{state.cap[x]}) does not hold exactly its neighbours"
            )
        if state.lp[x] != state.block.get(degree):
            raise ContractViolationError(
                f"peel state ladder offset of {v!r} is not the block of "
                f"degree {degree}"
            )
    if any(state.deg_s) or any(state.fresh):
        raise ContractViolationError(
            "peel state window mask or new-member flags did not rest at 0"
        )


# ----------------------------------------------------------------------
# decorators
# ----------------------------------------------------------------------
def verify_kp_core(fn: _F) -> _F:
    """Contract for ``kp_core_vertices(graph, k, p)``-shaped functions."""

    @functools.wraps(fn)
    def wrapper(graph, k, p, *args, **kwargs):
        result = fn(graph, k, p, *args, **kwargs)
        if _active:
            check_kp_core_output(graph, result, k, p)
        return result

    return wrapper  # type: ignore[return-value]


def verify_decomposition(fn: _F) -> _F:
    """Contract for ``kp_core_decomposition(graph)``-shaped functions."""

    @functools.wraps(fn)
    def wrapper(graph, *args, **kwargs):
        result = fn(graph, *args, **kwargs)
        if _active:
            check_decomposition(result)
        return result

    return wrapper  # type: ignore[return-value]


def verify_maintainer_update(fn: _F) -> _F:
    """Contract for ``KPIndexMaintainer.insert_edge`` / ``delete_edge``.

    After the update: endpoint p-numbers respect the bounds sandwich in
    every affected array; on small graphs (``FULL_CHECK_EDGE_LIMIT``)
    additionally the global lower bound, full index validation, the
    running graph fingerprint and the kept peel state.
    """

    @functools.wraps(fn)
    def wrapper(self, u, v, *args, **kwargs):
        result = fn(self, u, v, *args, **kwargs)
        if _active:
            _check_maintainer_state(self, (u, v))
        return result

    return wrapper  # type: ignore[return-value]


def verify_maintainer_query(fn: _F) -> _F:
    """Contract for ``KPIndexMaintainer.query(k, p)``."""

    @functools.wraps(fn)
    def wrapper(self, k, p, *args, **kwargs):
        result = fn(self, k, p, *args, **kwargs)
        if _active:
            check_query_result(self.graph, k, p, result)
        return result

    return wrapper  # type: ignore[return-value]


def verify_batch_state(maintainer: Any, endpoints: Iterable[Any]) -> None:
    """Post-``apply_batch`` contract check (no-op unless contracts are on).

    Not a decorator: a batch's endpoints are only known after the update
    iterable is consumed, so :meth:`KPIndexMaintainer.apply_batch` calls
    this explicitly once the batch has been applied.  Runs the same
    bounds-sandwich / full-validation / fingerprint / peel-state checks as
    :func:`verify_maintainer_update`, over every batch endpoint at once.
    """
    if _active:
        _check_maintainer_state(maintainer, tuple(endpoints))


def _check_maintainer_state(maintainer: Any, endpoints: tuple[Any, Any]) -> None:
    graph = maintainer.graph
    small = graph.num_edges <= FULL_CHECK_EDGE_LIMIT
    k_max = max(
        (maintainer.core_number(w) for w in endpoints if w in graph),
        default=0,
    )
    arrays = maintainer.index.arrays()
    for k in range(2, k_max + 1):
        array = arrays.get(k)
        if array is None or not len(array):
            continue
        check_bounds_sandwich(graph, array, endpoints, check_lower=small)
    if small:
        maintainer.index.validate()
        check_running_fingerprint(maintainer)
        check_peel_state(maintainer)
