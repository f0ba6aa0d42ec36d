"""The paper's contribution: (k,p)-core computation, decomposition,
indexing, and dynamic maintenance.

Public surface:

* :func:`~repro.core.kpcore.kp_core` / :func:`~repro.core.kpcore.
  kp_core_vertices` — Algorithm 1 (kpCore), O(m),
* :func:`~repro.core.decomposition.kp_core_decomposition` — Algorithm 2
  (kpCoreDecom), O(d·m) p-numbers for every ``k``,
* :class:`~repro.core.index.KPIndex` — the O(m)-space KP-Index with
  output-optimal :meth:`~repro.core.index.KPIndex.query` (Algorithm 3),
* :class:`~repro.core.maintenance.KPIndexMaintainer` — Algorithms 4/5
  (kpIndexInsert / kpIndexDelete) for dynamic graphs,
* :mod:`~repro.core.hierarchy` — nested-core exploration for a fixed ``k``,
* :mod:`~repro.core.naive` — definition-literal oracles for testing.
"""

from repro.core.baseline_index import MaterializedIndex
from repro.core.communities import (
    Community,
    GridCell,
    kp_communities,
    kp_community_of,
    parameter_grid,
    strongest_community_parameters,
)
from repro.core.decomposition import (
    FixedKDecomposition,
    KPDecomposition,
    kp_core_decomposition,
    p_numbers_fixed_k,
)
from repro.core.hierarchy import PLevel, core_profile, nested_cores, p_levels
from repro.core.index import IndexSpaceStats, KArray, KPIndex, build_index
from repro.core.kpcore import (
    combined_thresholds,
    fraction,
    kp_core,
    kp_core_vertices,
    kp_core_vertices_compact,
    satisfies_kp_constraints,
)
from repro.core.maintenance import (
    KPIndexMaintainer,
    MaintenanceStats,
)
from repro.core.pvalue import as_fraction, check_p, fraction_threshold

__all__ = [
    "kp_core",
    "kp_core_vertices",
    "kp_core_vertices_compact",
    "combined_thresholds",
    "fraction",
    "satisfies_kp_constraints",
    "kp_core_decomposition",
    "p_numbers_fixed_k",
    "FixedKDecomposition",
    "KPDecomposition",
    "KPIndex",
    "KArray",
    "IndexSpaceStats",
    "build_index",
    "KPIndexMaintainer",
    "MaintenanceStats",
    "MaterializedIndex",
    "Community",
    "GridCell",
    "kp_communities",
    "kp_community_of",
    "parameter_grid",
    "strongest_community_parameters",
    "PLevel",
    "p_levels",
    "nested_cores",
    "core_profile",
    "check_p",
    "fraction_threshold",
    "as_fraction",
]
