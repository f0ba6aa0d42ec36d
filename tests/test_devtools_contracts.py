"""Runtime invariant contracts: activation gate, clean runs, seeded bugs.

Three claims are pinned down here: (1) the contract layer is off by
default and costs only a cached boolean check, (2) with contracts active
the real algorithms pass every check, and (3) a deliberately corrupted
index or output *is caught* — the contracts are not vacuous.
"""

from __future__ import annotations

import pytest

from repro.devtools import contracts
from repro.devtools.contracts import (
    check_bounds_sandwich,
    check_decomposition,
    check_kp_core_output,
    check_query_result,
    contracts_active,
    refresh_from_env,
    set_contracts_active,
)
from repro.errors import ContractViolationError
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi_gnp
from repro.core.decomposition import kp_core_decomposition
from repro.core.index import KPIndex
from repro.core.kpcore import kp_core_vertices
from repro.core.maintenance import KPIndexMaintainer


@pytest.fixture
def active():
    """Force contracts on for one test, restoring the prior state."""
    previous = set_contracts_active(True)
    yield
    set_contracts_active(previous)


@pytest.fixture
def sample_graph() -> Graph:
    return erdos_renyi_gnp(40, 0.15, seed=11)


# ----------------------------------------------------------------------
# activation gate
# ----------------------------------------------------------------------
def test_set_contracts_active_returns_previous_state():
    first = set_contracts_active(True)
    try:
        assert contracts_active() is True
        assert set_contracts_active(False) is True
        assert contracts_active() is False
    finally:
        set_contracts_active(first)


def test_refresh_from_env_parses_truthy_values(monkeypatch):
    previous = contracts_active()
    try:
        for value, expected in [
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("", False), ("off", False),
        ]:
            monkeypatch.setenv(contracts.ENV_VAR, value)
            assert refresh_from_env() is expected
        monkeypatch.delenv(contracts.ENV_VAR)
        assert refresh_from_env() is False
    finally:
        set_contracts_active(previous)


def test_inactive_contracts_never_invoke_checks(monkeypatch, sample_graph):
    """With the switch off, decorated calls must not reach any check."""
    previous = set_contracts_active(False)
    try:
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("check ran with contracts inactive")

        monkeypatch.setattr(contracts, "check_query_result", boom)
        monkeypatch.setattr(contracts, "check_kp_core_output", boom)
        maintainer = KPIndexMaintainer(sample_graph.copy())
        assert isinstance(maintainer.query(2, 0.5), list)
        kp_core_vertices(sample_graph, 2, 0.5)
    finally:
        set_contracts_active(previous)


# ----------------------------------------------------------------------
# clean runs under active contracts
# ----------------------------------------------------------------------
def test_real_algorithms_satisfy_their_contracts(active, sample_graph):
    kp_core_vertices(sample_graph, 2, 0.5)
    kp_core_decomposition(sample_graph)
    maintainer = KPIndexMaintainer(sample_graph.copy())
    edges = sorted(sample_graph.edges())[:4]
    for u, v in edges:
        maintainer.delete_edge(u, v)
        maintainer.query(2, 0.6)
    for u, v in edges:
        maintainer.insert_edge(u, v)
    maintainer.query(3, 0.75)
    assert maintainer.index.semantically_equal(KPIndex.build(sample_graph))


# ----------------------------------------------------------------------
# direct check functions reject bad data
# ----------------------------------------------------------------------
def test_check_kp_core_output_rejects_non_core(triangle):
    # {0, 1} is not a (2, 0)-core: each member keeps only one neighbour.
    with pytest.raises(ContractViolationError):
        check_kp_core_output(triangle, {0, 1}, 2, 0.0)
    check_kp_core_output(triangle, {0, 1, 2}, 2, 1.0)


def test_check_query_result_rejects_wrong_answer(triangle):
    with pytest.raises(ContractViolationError, match="missing"):
        check_query_result(triangle, 2, 1.0, [0, 1])
    check_query_result(triangle, 2, 1.0, [0, 1, 2])


def test_check_decomposition_rejects_unsorted_and_nonmonotone(sample_graph):
    good = kp_core_decomposition(sample_graph)
    check_decomposition(good)

    class BadFixed:
        def __init__(self, p_numbers, pn):
            self.p_numbers = p_numbers
            self._pn = pn

        def pn_map(self):
            return self._pn

    class BadDecomposition:
        def __init__(self, arrays):
            self.arrays = arrays

    unsorted = BadDecomposition({1: BadFixed([0.5, 0.25], {0: 0.5, 1: 0.25})})
    with pytest.raises(ContractViolationError, match="not sorted"):
        check_decomposition(unsorted)

    nonmonotone = BadDecomposition(
        {
            1: BadFixed([0.25], {0: 0.25}),
            2: BadFixed([0.5], {0: 0.5}),
        }
    )
    with pytest.raises(ContractViolationError, match="non-increasing"):
        check_decomposition(nonmonotone)


def test_check_bounds_sandwich_rejects_inflated_p_numbers(sample_graph):
    index = KPIndex.build(sample_graph)
    array = index.array(2)
    check_bounds_sandwich(sample_graph, array, array.vertices, check_lower=True)
    # Inflate every p-number past any sound upper bound.
    array.p_numbers = [1.0] * len(array.p_numbers)
    array._rebuild_levels()
    with pytest.raises(ContractViolationError, match="upper bound"):
        check_bounds_sandwich(sample_graph, array, array.vertices)


# ----------------------------------------------------------------------
# seeded corruption is caught end-to-end through the decorators
# ----------------------------------------------------------------------
def _drop_first_vertex(maintainer: KPIndexMaintainer, k: int) -> None:
    array = maintainer.index.array(k)
    assert len(array) > 1
    array.vertices = array.vertices[1:]
    array.p_numbers = array.p_numbers[1:]
    array._rebuild_levels()


def test_corrupted_index_is_caught_by_query_contract(active, sample_graph):
    maintainer = KPIndexMaintainer(sample_graph.copy())
    _drop_first_vertex(maintainer, 2)
    with pytest.raises(ContractViolationError, match="disagrees"):
        maintainer.query(2, 0.0)


def test_corrupted_index_passes_silently_when_inactive(sample_graph):
    previous = set_contracts_active(False)
    try:
        maintainer = KPIndexMaintainer(sample_graph.copy())
        _drop_first_vertex(maintainer, 2)
        # No contract, no raise: the bug would sail through unnoticed.
        maintainer.query(2, 0.0)
    finally:
        set_contracts_active(previous)


# ----------------------------------------------------------------------
# the maintainer's kept peel state mirrors its graph
# ----------------------------------------------------------------------
def _held_state(graph: Graph) -> KPIndexMaintainer:
    """A maintainer whose window re-peels left a peel state held."""
    maintainer = KPIndexMaintainer(graph.copy())
    u, v = next(iter(sorted(maintainer.graph.edges())))
    maintainer.delete_edge(u, v)
    maintainer.insert_edge(u, v)
    assert maintainer._peel_state is not None
    return maintainer


def _drop_a_neighbour(state, x):
    state.deg[x] -= 1


def _overfill_a_block(state, x):
    state.cap[x] = state.deg[x] - 1


def _misplace_a_ladder_offset(state, x):
    state.lp[x] += 1


def _leave_the_mask_set(state, x):
    state.deg_s[x] = 1


def _forget_a_label(state, x):
    del state.id_of[state.label_of[x]]


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_a_neighbour,
        _overfill_a_block,
        _misplace_a_ladder_offset,
        _leave_the_mask_set,
        _forget_a_label,
    ],
)
def test_check_peel_state_rejects_a_corrupted_state(sample_graph, corrupt):
    maintainer = _held_state(sample_graph)
    contracts.check_peel_state(maintainer)
    state = maintainer._peel_state
    corrupt(state, max(range(len(state.deg)), key=state.deg.__getitem__))
    with pytest.raises(ContractViolationError, match="peel state"):
        contracts.check_peel_state(maintainer)


def test_corrupted_peel_state_is_caught_after_a_batch(active, sample_graph):
    maintainer = _held_state(sample_graph)
    graph = maintainer.graph
    state = maintainer._peel_state
    # Corrupt a vertex the batch does not touch, so the re-peels run on
    # sound data and only the contract can notice.
    x = max(range(len(state.deg)), key=state.deg.__getitem__)
    bystander = state.label_of[x]
    edges = [
        (u, v) for u, v in sorted(graph.edges()) if bystander not in (u, v)
    ]
    state.cap[x] = state.deg[x] - 1
    with pytest.raises(ContractViolationError, match="peel state"):
        maintainer.apply_batch([("delete", u, v) for u, v in edges[:2]])
