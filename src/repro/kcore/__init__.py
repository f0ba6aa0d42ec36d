"""k-core substrate: computation, decomposition, onion layers, maintenance.

Everything in this package concerns the classical k-core model on which the
(k,p)-core is built:

* :func:`~repro.kcore.compute.k_core` — ``kCoreComp`` peeling for one ``k``,
* :func:`~repro.kcore.decomposition.core_decomposition` — ``kcoreDecomp``,
  the O(m) bucket algorithm of Batagelj–Zaversnik,
* :func:`~repro.kcore.onion.onion_decomposition` — onion layers
  (Fig. 10(b) comparison),
* :class:`~repro.kcore.maintenance.CoreMaintainer` — traversal/subcore
  incremental core-number maintenance used by the KP-Index update
  algorithms.
"""

from repro.kcore.compute import k_core, k_core_vertices, k_core_vertices_compact
from repro.kcore.decomposition import (
    CoreDecomposition,
    core_decomposition,
    core_numbers_compact,
    degeneracy,
    degeneracy_ordering,
)
from repro.kcore.maintenance import CoreMaintainer
from repro.kcore.onion import OnionDecomposition, onion_decomposition

__all__ = [
    "k_core",
    "k_core_vertices",
    "k_core_vertices_compact",
    "CoreDecomposition",
    "core_decomposition",
    "core_numbers_compact",
    "degeneracy",
    "degeneracy_ordering",
    "CoreMaintainer",
    "OnionDecomposition",
    "onion_decomposition",
]
