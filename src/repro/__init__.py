"""repro — a faithful Python implementation of the (k,p)-core paper.

Reproduction of C. Zhang et al., *Exploring Finer Granularity within the
Cores: Efficient (k,p)-Core Computation*, ICDE 2020.

Quick start
-----------
>>> from repro import Graph, kp_core_vertices, KPIndex
>>> g = Graph([(0, 1), (1, 2), (2, 0), (0, 3)])
>>> sorted(kp_core_vertices(g, k=2, p=0.5))
[0, 1, 2]
>>> index = KPIndex.build(g)
>>> sorted(index.query(k=2, p=0.5))
[0, 1, 2]

Packages
--------
``repro.graph``     graph substrate (structures, I/O, metrics, generators)
``repro.kcore``     classical k-core machinery
``repro.core``      the paper's (k,p)-core algorithms and KP-Index
``repro.datasets``  synthetic stand-ins for the paper's 8 datasets
``repro.analysis``  effectiveness analyses (Figs. 6-10)
``repro.bench``     shared benchmark harness
"""

from repro.errors import (
    DatasetError,
    EdgeExistsError,
    EdgeListParseError,
    EdgeNotFoundError,
    GraphError,
    IndexStateError,
    ParameterError,
    ReproError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.graph import Graph, read_edge_list, write_edge_list
from repro.kcore import (
    CoreMaintainer,
    core_decomposition,
    degeneracy,
    k_core,
    k_core_vertices,
    onion_decomposition,
)
from repro.core import (
    KPIndex,
    KPIndexMaintainer,
    build_index,
    kp_core,
    kp_core_decomposition,
    kp_core_vertices,
    p_numbers_fixed_k,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graph substrate
    "Graph",
    "read_edge_list",
    "write_edge_list",
    # k-core substrate
    "k_core",
    "k_core_vertices",
    "core_decomposition",
    "degeneracy",
    "onion_decomposition",
    "CoreMaintainer",
    # (k,p)-core
    "kp_core",
    "kp_core_vertices",
    "kp_core_decomposition",
    "p_numbers_fixed_k",
    "KPIndex",
    "build_index",
    "KPIndexMaintainer",
    # errors
    "ReproError",
    "GraphError",
    "VertexNotFoundError",
    "EdgeNotFoundError",
    "EdgeExistsError",
    "SelfLoopError",
    "ParameterError",
    "EdgeListParseError",
    "DatasetError",
    "IndexStateError",
]
