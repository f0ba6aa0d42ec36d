"""Where Algorithm 2's callers look up the peel kernel and its scratch.

The decomposition and the batched full-array re-peel — two serial loops
over ``k`` — resolve the kernel through :data:`ENGINES` at call time and
build its cross-``k`` scratch through :func:`make_scratch`, so
the per-layer profiler in ``perfbench/`` can wrap both names from
outside and time the drain (``core.peel_s``) apart from the scratch
build (``core.scratch_s``).  The kernel itself lives in
:mod:`repro.core.peel_flat`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.peel_flat import FlatScratch, peel_fixed_k_flat
from repro.graph.compact import CompactAdjacency

__all__ = ["ENGINES", "make_scratch"]

#: The fixed-``k`` peel, keyed by name; ``ENGINES["flat"]`` is the one
#: kernel (:func:`repro.core.peel_flat.peel_fixed_k_flat`).
ENGINES: dict[str, Callable[..., tuple[list[int], list[float]]]] = {
    "flat": peel_fixed_k_flat,
}


def make_scratch(snapshot: CompactAdjacency, core: Sequence[int]) -> FlatScratch:
    """The kernel's scratch, valid for every ``k`` of one ``(snapshot, core)``."""
    return FlatScratch(snapshot, core)
