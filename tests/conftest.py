"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.maintenance import KPIndexMaintainer
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi_gnm


@pytest.fixture
def triangle() -> Graph:
    """K3 on {0, 1, 2}."""
    return Graph([(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def triangle_with_tail() -> Graph:
    """K3 plus a pendant vertex 3 attached to 0."""
    return Graph([(0, 1), (1, 2), (2, 0), (0, 3)])


@pytest.fixture
def two_triangles_bridge() -> Graph:
    """Two triangles joined by one bridge edge (3 is the articulation)."""
    return Graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])


@pytest.fixture
def cascade_graph() -> Graph:
    """A tree-ish fringe plus a triangle {3, 5, 6} whose gateway is 3.

    The 2-core is exactly the triangle; vertex 3 keeps only 2 of its 3
    neighbours there (fraction 2/3), and when it peels, 5 and 6 cascade
    with it.  Their k=2 p-number is therefore *inherited* from 3's
    fraction — 2/3 is not a multiple of 1/deg for them, the case that
    breaks the paper's grid-form bounds.  Used as a regression fixture.
    """
    return Graph(
        [(0, 2), (0, 4), (1, 3), (1, 4), (3, 5), (3, 6), (5, 6)]
    )


@pytest.fixture
def figure1_like_graph() -> Graph:
    """A graph in the spirit of the paper's Fig. 1.

    A 3-core of nine vertices (10..18) split into a dense block and a
    sparser ring, plus low-degree satellites (0..3) hanging off it.
    """
    edges = [
        # dense block: K5 on 10..14
        (10, 11), (10, 12), (10, 13), (10, 14),
        (11, 12), (11, 13), (11, 14), (12, 13), (12, 14), (13, 14),
        # sparser 3-regular-ish attachment 15..18
        (15, 16), (16, 17), (17, 18), (18, 15),
        (15, 10), (16, 11), (17, 12), (18, 13),
        # satellites
        (0, 10), (1, 10), (2, 15), (3, 16), (0, 1),
    ]
    return Graph(edges)


@pytest.fixture
def random_graph_factory():
    """Factory of seeded random graphs for parametrized sweeps."""

    def factory(seed: int, n_range=(5, 18), density=0.35) -> Graph:
        rng = random.Random(seed)
        n = rng.randint(*n_range)
        max_edges = n * (n - 1) // 2
        m = rng.randint(n, max(n, int(density * max_edges)))
        return erdos_renyi_gnm(n, min(m, max_edges), seed=seed)

    return factory


class FullRepeelMaintainer(KPIndexMaintainer):
    """A maintainer that runs every net op through the multi-op rule.

    Each op, a single edge included, re-peels ``A_2 .. A_reach`` in full
    from one decomposition of the post-op graph instead of running the
    Algorithm 4/5 windows, so the single-edge tests also hold the
    full re-peel path to their oracles.
    """

    def _apply_batch_impl(self, ops):
        return 0, self._repeel_reached_arrays(ops)


@pytest.fixture(
    params=[KPIndexMaintainer, FullRepeelMaintainer],
    # The case ids keep the names these cases had when the two rules
    # were the maintainer's RANGE and FULL_K modes.
    ids=["MaintenanceMode.RANGE", "MaintenanceMode.FULL_K"],
)
def maintainer_cls(request):
    """The windowed maintainer, then one that re-peels reached arrays in full."""
    return request.param
