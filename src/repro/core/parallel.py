"""Process-parallel driver for the per-``k`` peels of Algorithm 2.

After core numbers are computed and neighbour lists sorted, the fixed-``k``
peels of the decomposition are mutually independent: each reads the frozen
:class:`~repro.graph.compact.CompactAdjacency` and the core-number array
and writes only its own ``(order, p_numbers)`` pair.  This module fans the
``k`` values of ``1..degeneracy`` out over a :mod:`multiprocessing` pool:

* the snapshot and core numbers are shipped **once per worker** through
  the pool initializer (the snapshot's typed-array CSR pickles compactly,
  see :meth:`CompactAdjacency.__reduce__`), not once per task;
* scheduling is work-stealing over **cost-balanced chunks**: the ``k``
  values — ordered largest ``|V_k|`` first, which for the non-increasing
  core-size profile is ascending ``k`` — are packed into chunks of
  roughly equal total cost (:func:`_chunk_ks`), and idle workers pull the
  next chunk from the pool's shared queue.  The expensive low-``k``
  arrays go out first as singleton chunks, while the long tail of tiny
  arrays travels in batches, so neither stragglers (static
  pre-assignment) nor per-task dispatch overhead (``chunksize=1`` over
  hundreds of sub-millisecond peels) dominate the makespan;
* each worker builds the kernel's scratch
  (:func:`repro.core.peel_engines.make_scratch`) lazily on its first
  chunk and reuses it for every subsequent one — chunks reach a worker
  in ascending-``k`` order, so the scratch's incremental prefix-length
  sweep applies just as it does serially;
* results are merged keyed by ``k``, so the output is deterministic and
  identical to the serial run regardless of worker count or completion
  order.

Observability crosses the process boundary explicitly: when the parent
has a collector (``REPRO_OBS``) the pool initializer carries its
:meth:`~repro.obs.instrumentation.Instrumentation.context` (the open
span's trace id, span id and path), each chunk runs under a fresh
worker :class:`~repro.obs.instrumentation.Instrumentation` parented to
that context, ships one
:meth:`~repro.obs.instrumentation.Instrumentation.payload` back with the
result, and the parent folds it in with one
:meth:`~repro.obs.instrumentation.Instrumentation.merge` — so counters,
histograms and span paths of a parallel run equal the serial run's
exactly (plus the scheduling counters only parallel runs have), and the
worker events join one coherent trace.
"""

from __future__ import annotations

import os
from multiprocessing.pool import Pool
from typing import Any, Sequence

from repro.errors import ParameterError
from repro.graph.compact import CompactAdjacency
from repro.obs import names
from repro.obs.instrumentation import (
    Frame,
    Instrumentation,
    get_collector,
    set_collector,
)

__all__ = ["default_workers", "k_core_sizes", "peel_all_k"]

#: Chunk-count multiplier: aim for ~this many chunks per worker so the
#: shared queue still has slack to rebalance when one chunk runs long.
_CHUNKS_PER_WORKER = 4

#: Worker-process state, installed once by :func:`_init_worker`.  Module
#: globals (not closure state) so the initializer round-trips under every
#: multiprocessing start method, including ``spawn``.
_snapshot: CompactAdjacency | None = None
_core: list[int] | None = None
#: The parent's span context when it is collecting, else ``None``.
_obs_context: Frame | None = None
#: Kernel scratch, built lazily on the worker's first chunk and shared by
#: all of its chunks (the whole point of a per-worker cache).
_scratch: Any | None = None
_scratch_ready = False


def default_workers() -> int:
    """A sensible pool size: the machine's CPU count (at least 1)."""
    return os.cpu_count() or 1


def k_core_sizes(core: Sequence[int], degeneracy: int) -> list[int]:
    """``sizes[k] = |V_k|`` for ``k`` in ``0..degeneracy`` (suffix counts)."""
    counts = [0] * (degeneracy + 2)
    for c in core:
        counts[c] += 1
    sizes = [0] * (degeneracy + 1)
    running = 0
    for k in range(degeneracy, -1, -1):
        running += counts[k]
        sizes[k] = running
    return sizes


def _chunk_ks(
    ks: Sequence[int], sizes: Sequence[int], pool_size: int
) -> list[list[int]]:
    """Pack ``ks`` (largest ``|V_k|`` first) into cost-balanced chunks.

    Peel cost is O(m_k), for which ``|V_k|`` is the available proxy.  The
    target chunk cost is ``total / (pool_size * _CHUNKS_PER_WORKER)``; a
    ``k`` whose own cost exceeds it becomes a singleton chunk (the big
    arrays must not queue behind each other), while consecutive small
    ``k`` values accumulate until the target is reached.  Order within
    and across chunks follows ``ks``, so workers pulling chunks from the
    shared queue each see an ascending-``k`` subsequence.
    """
    total = sum(sizes[k] for k in ks)
    target = max(1, -(-total // (max(1, pool_size) * _CHUNKS_PER_WORKER)))
    chunks: list[list[int]] = []
    current: list[int] = []
    current_cost = 0
    for k in ks:
        cost = max(1, sizes[k])
        if current and current_cost + cost > target:
            chunks.append(current)
            current = []
            current_cost = 0
        current.append(k)
        current_cost += cost
    if current:
        chunks.append(current)
    return chunks


def _init_worker(
    snapshot: CompactAdjacency,
    core: list[int],
    obs_context: Frame | None,
) -> None:
    """Pool initializer: pin the shared read-only inputs in this process."""
    global _snapshot, _core, _obs_context, _scratch, _scratch_ready
    _snapshot = snapshot
    _core = core
    _obs_context = obs_context
    _scratch = None
    _scratch_ready = False


def _worker_scratch() -> Any:
    """This worker's kernel scratch, built on first use."""
    global _scratch, _scratch_ready
    if not _scratch_ready:
        from repro.core.peel_engines import make_scratch

        assert _snapshot is not None and _core is not None
        _scratch = make_scratch(_snapshot, _core)
        _scratch_ready = True
    return _scratch


def _peel_chunk(
    chunk: Sequence[int],
) -> tuple[list[tuple[int, list[int], list[float]]], int, dict[str, Any] | None]:
    """One chunk of fixed-``k`` peels in a worker.

    Returns ``(peeled, pid, obs_payload)`` where ``peeled`` is one
    ``(k, order, p_numbers)`` triple per ``k`` in the chunk; the payload
    is ``None`` unless the parent passed a collection context through
    the initializer.
    """
    from repro.core.peel_engines import ENGINES

    assert _snapshot is not None and _core is not None
    peel = ENGINES["flat"]
    scratch = _worker_scratch()
    task_obs = (
        None if _obs_context is None else Instrumentation(context=_obs_context)
    )
    previous = set_collector(task_obs)
    try:
        peeled = [
            (k, *peel(_snapshot, _core, k, scratch=scratch)) for k in chunk
        ]
    finally:
        set_collector(previous)
    return peeled, os.getpid(), None if task_obs is None else task_obs.payload()


def peel_all_k(
    snapshot: CompactAdjacency,
    core: Sequence[int],
    degeneracy: int,
    *,
    workers: int,
    ks: Sequence[int] | None = None,
) -> dict[int, tuple[list[int], list[float]]]:
    """Peel every requested ``k`` across a process pool.

    By default peels all of ``1..degeneracy`` (Algorithm 2's parallel
    phase); pass ``ks`` to repair an arbitrary subset — the batched
    maintenance path (:meth:`KPIndexMaintainer.apply_batch`) fans its
    membership-churned arrays through here.  Returns
    ``{k: (order, p_numbers)}`` — byte-identical to running the kernel
    serially for each ``k``.  ``workers`` is clamped to the number
    of tasks; callers guarantee ``workers >= 1`` and that the snapshot's
    neighbour lists are already rank-sorted.
    """
    obs = get_collector()
    sizes = k_core_sizes(core, degeneracy)
    selected = range(1, degeneracy + 1) if ks is None else ks
    for k in selected:
        if not 1 <= k <= degeneracy:
            raise ParameterError(
                f"requested k={k} outside 1..{degeneracy}"
            )
    ordered = sorted(selected, key=lambda k: (-sizes[k], k))
    if not ordered:
        return {}
    pool_size = min(workers, len(ordered))
    chunks = _chunk_ks(ordered, sizes, pool_size)
    results: dict[int, tuple[list[int], list[float]]] = {}
    tasks_per_pid: dict[int, int] = {}
    with Pool(
        processes=pool_size,
        initializer=_init_worker,
        initargs=(
            snapshot,
            list(core),
            obs.context() if obs is not None else None,
        ),
    ) as pool:
        for peeled, pid, obs_payload in pool.imap_unordered(
            _peel_chunk, chunks, chunksize=1
        ):
            for k, order, p_numbers in peeled:
                results[k] = (order, p_numbers)
            tasks_per_pid[pid] = tasks_per_pid.get(pid, 0) + len(peeled)
            if obs is not None and obs_payload is not None:
                # Fold the worker's per-chunk collection in verbatim: the
                # kernel records the same metrics and events they do
                # serially, so parallel profiles match serial ones.
                obs.merge(obs_payload)
    if obs is not None:
        obs.add(names.DECOMP_PARALLEL_TASKS, len(ordered))
        obs.add(names.DECOMP_PARALLEL_CHUNKS, len(chunks))
        for count in tasks_per_pid.values():
            obs.observe(names.DECOMP_PARALLEL_WORKERS, count)
    return results
