"""KP-Index and time-optimal query processing (Sec. V, Algorithm 3).

The index ``I = ∪_{1<=k<=d(G)} A_k`` holds, per ``k``:

* ``V_k`` — the k-core vertices in the deletion order of Algorithm 2, and
* ``P_k`` — the distinct p-numbers in ascending order, each pointing at the
  first vertex of ``V_k`` with that p-number.

A (k,p)-core query locates the first p-number ``>= p`` and returns the
suffix of ``V_k`` from its pointer — O(answer size) work (Theorem 1), plus
a binary search over ``P_k`` to find the pointer.

Space is O(m) (Lemma 1): vertex ``u`` appears in exactly ``cn(u)`` arrays,
and ``Σ cn(u) <= Σ deg(u) = 2m``; :meth:`KPIndex.space_stats` reports the
concrete numbers so tests can verify the bound.

Persistence uses the **versioned snapshot format v2**: an envelope with
``format_version``, an optional :class:`~repro.graph.fingerprint.
GraphFingerprint` of the source graph, and a SHA-256 ``payload_checksum``
over the canonical JSON of the index payload.  :meth:`KPIndex.save` writes
atomically (temp file + ``os.replace``), :meth:`KPIndex.load` verifies the
checksum, migrates legacy v1 dumps (the bare payload, no envelope), runs
:meth:`KPIndex.validate`, and wraps every corrupt/truncated/foreign-file
failure in :class:`~repro.errors.IndexPersistenceError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Iterable, KeysView, Mapping, Sequence

from repro.errors import (
    IndexPersistenceError,
    IndexStateError,
    ParameterError,
)
from repro.graph.adjacency import Graph, Vertex
from repro.graph.fingerprint import GraphFingerprint
from repro.obs import names
from repro.obs.instrumentation import get_collector
from repro.core.decomposition import (
    FixedKDecomposition,
    KPDecomposition,
    kp_core_decomposition,
)
from repro.core.pvalue import check_p

__all__ = [
    "KArray",
    "KPIndex",
    "IndexSpaceStats",
    "build_index",
    "SNAPSHOT_FORMAT_VERSION",
]

#: Current on-disk snapshot format.  v1 was the bare payload dict (no
#: envelope, no checksum); v1 files still load through the migration path.
SNAPSHOT_FORMAT_VERSION = 2


def _canonical_payload_json(payload: dict) -> str:
    """Deterministic JSON rendering the payload checksum is computed over.

    ``sort_keys`` plus compact separators make the rendering independent
    of dict insertion order, and Python's shortest-round-trip float repr
    makes it stable across a JSON round trip of the same values.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_checksum(payload: dict) -> str:
    return hashlib.sha256(
        _canonical_payload_json(payload).encode("utf-8")
    ).hexdigest()


@dataclass
class KArray:
    """One ``A_k`` of the KP-Index.

    ``vertices`` (``V_k``) are in deletion order; ``p_numbers`` is aligned
    with it and non-decreasing.  ``level_values``/``level_starts`` encode
    ``P_k``: ``level_values[j]`` is the j-th distinct p-number and
    ``level_starts[j]`` the index in ``vertices`` of its first vertex.
    """

    k: int
    vertices: list[Vertex]
    p_numbers: list[float]
    level_values: list[float] = field(init=False)
    level_starts: list[int] = field(init=False)
    _pn_of: dict[Vertex, float] = field(init=False, repr=False)
    # Lazily materialized per-level answer tuples (index aligned with
    # level_values; None = not built yet).  Reset by _rebuild_levels, so
    # every mutation path (splice, A_1 bookkeeping, full rebuild)
    # invalidates them together with the level structure.
    _slices: list[tuple[Vertex, ...] | None] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.p_numbers):
            raise IndexStateError(
                f"A_{self.k}: {len(self.vertices)} vertices vs "
                f"{len(self.p_numbers)} p-numbers"
            )
        self._rebuild_levels()

    def _rebuild_levels(self) -> None:
        self.level_values = []
        self.level_starts = []
        self._append_levels(0, len(self.p_numbers))
        self._slices = [None] * len(self.level_values)
        self._pn_of = dict(zip(self.vertices, self.p_numbers))
        if len(self._pn_of) != len(self.vertices):
            raise IndexStateError(f"A_{self.k}: duplicate vertex in V_k")

    def _append_levels(self, start: int, stop: int) -> None:
        """Append the ``P_k`` levels that begin in ``p_numbers[start:stop]``.

        The entry before ``start`` closes the existing levels; a run that
        continues it starts no new level.  Checks sortedness across the
        whole stretch.  One iteration per level, not per entry: each run
        of equal p-numbers is consumed by ``groupby``.
        """
        p_numbers = self.p_numbers
        values, starts = self.level_values, self.level_starts
        previous = p_numbers[start - 1] if start else None
        i = start
        for pn, run in groupby(p_numbers[start:stop]):
            if previous is not None and pn < previous:
                raise IndexStateError(
                    f"A_{self.k}: p-numbers not sorted at position {i}"
                )
            # Exact-double level grouping; see repro.core.pvalue.
            if pn != previous:  # noqa: KP002
                values.append(pn)
                starts.append(i)
                previous = pn
            i += len(list(run))

    # ------------------------------------------------------------------
    @classmethod
    def from_fixed_k(cls, fixed: FixedKDecomposition) -> "KArray":
        return cls(
            k=fixed.k,
            vertices=list(fixed.order),
            p_numbers=list(fixed.p_numbers),
        )

    # ------------------------------------------------------------------
    def level_index(self, p: float) -> int:
        """Index into ``P_k`` of the first level ``>= p`` (Algorithm 3's
        binary search), as a canonical integer key.

        Every float spelling of ``p`` inside one inter-level gap maps to
        the same integer — ``0.3`` and a grid-produced
        ``0.30000000000000004`` share a level unless a p-number lies
        strictly between them.  ``len(level_values)`` means "above the
        largest p-number": the empty answer.  The serving cache keys on
        this integer instead of the raw float (see
        :mod:`repro.service.server`).
        """
        check_p(p)
        return bisect_left(self.level_values, p)

    def slice_at(self, level: int) -> tuple[Vertex, ...]:
        """The precomputed answer slice of one ``P_k`` level.

        A suffix-of-members tuple, materialized lazily once per level
        per rebuild (every array mutation resets the store via
        ``_rebuild_levels``) and counted as ``index.slice_rebuilds``.
        Queries and serving-cache entries return this stored tuple
        directly — O(1) after the first touch, never a per-query list
        rebuild.  Safe under concurrent readers: racing builds assign
        equal immutable tuples.  ``level == len(level_values)`` is the
        empty answer.
        """
        if not 0 <= level <= len(self.level_values):
            raise ParameterError(
                f"A_{self.k}: level index {level} out of range "
                f"[0, {len(self.level_values)}]"
            )
        if level == len(self.level_values):
            return ()
        cached = self._slices[level]
        if cached is None:
            cached = tuple(self.vertices[self.level_starts[level] :])
            self._slices[level] = cached
            obs = get_collector()
            if obs is not None:
                obs.inc(names.INDEX_SLICE_REBUILDS)
        return cached

    def query_slice(self, p: float) -> tuple[Vertex, ...]:
        """Algorithm 3 as a stored-tuple return (shared; do not mutate)."""
        result = self.slice_at(self.level_index(p))
        obs = get_collector()
        if obs is not None:
            # Theorem 1 made countable: touched vertices == answer size,
            # plus the |P_k| the binary search ran over.
            obs.inc(names.INDEX_QUERIES)
            if not result:
                obs.inc(names.INDEX_EMPTY_QUERIES)
            obs.add(names.INDEX_VERTICES_TOUCHED, len(result))
            obs.observe(names.INDEX_ANSWER_SIZE, len(result))
            obs.observe(names.INDEX_LEVELS_SEARCHED, len(self.level_values))
        return result

    def query(self, p: float) -> list[Vertex]:
        """Vertices of the (k,p)-core at this array's ``k`` (Algorithm 3).

        Returns a fresh list the caller may own; the allocation-free
        path is :meth:`query_slice`.
        """
        return list(self.query_slice(p))

    def p_number(self, v: Vertex) -> float:
        """``pn(v, k)``; raises ``KeyError`` if ``v`` is not in this k-core."""
        return self._pn_of[v]

    def p_number_or(self, v: Vertex, default: float = 0.0) -> float:
        """``pn(v, k)`` with a default for vertices outside the k-core.

        The maintenance section treats vertices that are not (yet) in the
        k-core as having p-number 0.
        """
        return self._pn_of.get(v, default)

    def contains(self, v: Vertex) -> bool:
        return v in self._pn_of

    def vertex_set(self) -> set[Vertex]:
        return set(self.vertices)

    def members_view(self) -> KeysView[Vertex]:
        """O(1) read-only membership container over ``V_k`` (a dict keys
        view) — for callers that only need ``in`` tests."""
        return self._pn_of.keys()

    def pn_map(self) -> dict[Vertex, float]:
        return dict(self._pn_of)

    def max_p_number(self) -> float:
        return self.level_values[-1] if self.level_values else 0.0

    def replace_segment(
        self,
        keep_below: float,
        segment_vertices: Sequence[Vertex],
        segment_p_numbers: Sequence[float],
        tail_from: Iterable[Vertex] = (),
    ) -> None:
        """Splice a recomputed segment into this array (maintenance).

        Keeps the existing prefix of vertices with ``pn < keep_below`` (in
        order), then appends the recomputed segment, then the given tail
        vertices with their existing p-numbers.  The caller guarantees the
        pieces are disjoint and level-sorted overall; the sortedness and
        duplicate checks of ``__post_init__`` still run.

        The arrays are spliced in place and only the replaced stretch is
        re-indexed.  When the tail is already the array's end — the
        Theorem 4/9 early stop leaves the survivors there, in order — it
        stays where it is and its levels only shift, so the cost follows
        the re-peeled window, not ``|V_k|``.
        """
        vertices, p_numbers, pn_of = self.vertices, self.p_numbers, self._pn_of
        seam = bisect_left(p_numbers, keep_below)
        tail = list(tail_from)
        end = len(vertices) - len(tail)
        if tail and end >= seam and vertices[end:] == tail:
            middle = list(segment_vertices)
            middle_pns = list(segment_p_numbers)
        else:
            end = len(vertices)
            middle = [*segment_vertices, *tail]
            middle_pns = [*segment_p_numbers, *(pn_of[v] for v in tail)]
        if 2 * (end - seam) < len(vertices):
            # Re-peeled vertices are overwritten; only leavers go.
            for v in set(vertices[seam:end]).difference(middle):
                del pn_of[v]
            pn_of.update(zip(middle, middle_pns))
            vertices[seam:end] = middle
            p_numbers[seam:end] = middle_pns
        else:
            vertices[seam:end] = middle
            p_numbers[seam:end] = middle_pns
            # Most of the array was replaced: one C-level rebuild of the
            # map costs less than finding the leavers.
            self._pn_of = pn_of = dict(zip(vertices, p_numbers))
        # P_k: levels starting before the seam stay, levels starting inside
        # the kept tail (after its head) shift, and the stretch from the
        # seam through the tail head is scanned again.
        values, starts = self.level_values, self.level_starts
        after = bisect_right(starts, end)
        new_end = seam + len(middle)
        tail_values = values[after:]
        tail_starts = [s + new_end - end for s in starts[after:]]
        kept = bisect_left(starts, seam)
        del values[kept:], starts[kept:]
        self._append_levels(seam, new_end + 1)
        values.extend(tail_values)
        starts.extend(tail_starts)
        # Every cached slice includes the spliced stretch.
        self._slices = [None] * len(values)
        if len(pn_of) != len(vertices):
            raise IndexStateError(f"A_{self.k}: duplicate vertex in V_k")

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class IndexSpaceStats:
    """Concrete sizes backing the Lemma 1 space argument."""

    vertex_entries: int  # Σ_k |V_k|
    p_number_entries: int  # Σ_k |P_k|
    num_arrays: int  # d(G)
    two_m: int  # the Lemma 1 bound on vertex entries

    @property
    def within_bound(self) -> bool:
        return self.vertex_entries <= self.two_m and (
            self.p_number_entries <= self.vertex_entries
        )


class KPIndex:
    """The KP-Index of a graph: query in output-optimal time.

    Build once with :meth:`build` (runs Algorithm 2), then answer any
    (k,p)-core query with :meth:`query`.  For dynamic graphs wrap it in a
    :class:`repro.core.maintenance.KPIndexMaintainer`, which keeps it
    synchronized under edge insertions and deletions.
    """

    def __init__(self, arrays: Mapping[int, KArray], num_edges: int) -> None:
        self._arrays: dict[int, KArray] = dict(arrays)
        self._num_edges = num_edges
        #: Fingerprint of the source graph carried by a v2 snapshot, if
        #: the index was loaded from (or saved with) one.
        self.fingerprint: GraphFingerprint | None = None
        # Per-k monotonic modification counters (k -> version, absent = 0).
        # The maintenance layer bumps a k exactly when it mutates A_k, so
        # an unchanged version certifies that every (k, p) answer is still
        # valid — the invalidation oracle behind the result cache in
        # :mod:`repro.service.server`.  Versions are in-memory state: they
        # are not persisted and restart at 0 on load.
        self._versions: dict[int, int] = {}
        # (k, p) -> (version, level) memo for :meth:`answer_key`.  A
        # stored pair is returned only while A_k's version still equals
        # the stored one, and every A_k mutation bumps the version, so
        # entries self-invalidate; the cap below bounds adversarial
        # float churn.  Plain-dict ops are GIL-atomic; racing readers at
        # worst recompute.
        self._key_memo: dict[tuple[int, float], tuple[int, int]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Graph) -> "KPIndex":
        """Construct the index by full (k,p)-core decomposition."""
        return cls.from_decomposition(kp_core_decomposition(graph), graph.num_edges)

    @classmethod
    def from_decomposition(
        cls, decomposition: KPDecomposition, num_edges: int
    ) -> "KPIndex":
        arrays = {
            k: KArray.from_fixed_k(fixed)
            for k, fixed in decomposition.arrays.items()
        }
        return cls(arrays, num_edges)

    # ------------------------------------------------------------------
    @property
    def degeneracy(self) -> int:
        """``d(G)``: the largest ``k`` with a non-empty array."""
        return max((k for k, a in self._arrays.items() if len(a)), default=0)

    def array(self, k: int) -> KArray:
        """``A_k``; raises ``KeyError`` if ``k`` exceeds the degeneracy."""
        return self._arrays[k]

    def arrays(self) -> dict[int, KArray]:
        """Live view of all arrays keyed by ``k`` (maintenance internals)."""
        return self._arrays

    def adjust_num_edges(self, delta: int) -> None:
        """Keep the Lemma 1 edge count current under maintenance."""
        self._num_edges += delta

    # ------------------------------------------------------------------
    # per-array versions (cache-invalidation oracle)
    # ------------------------------------------------------------------
    def version(self, k: int) -> int:
        """Modification counter of ``A_k`` (0 while never mutated).

        Defined for every ``k >= 1``, including values with no array yet:
        a later update can create ``A_k``, and that creation bumps the
        version, so ``(k, p, version)``-keyed cache entries for "no such
        core" answers invalidate correctly too.
        """
        if k < 1:
            raise ParameterError(f"degree threshold k must be >= 1, got {k}")
        return self._versions.get(k, 0)

    def bump_version(self, k: int) -> int:
        """Record a mutation of ``A_k``; returns the new version."""
        version = self._versions.get(k, 0) + 1
        self._versions[k] = version
        return version

    def versions(self) -> dict[int, int]:
        """Snapshot of every non-zero per-k version (k -> version)."""
        return dict(self._versions)

    def level_index(self, k: int, p: float) -> int:
        """Canonical grid level of ``p`` within ``A_k`` (0 if no array).

        The integer the serving cache keys on: two float spellings of
        the same level resolve to one key.  Only meaningful together
        with :meth:`version` — a mutation that reshapes ``P_k`` also
        bumps the version, so ``(k, level)`` keys never alias across
        versions.
        """
        if k < 1:
            raise ParameterError(f"degree threshold k must be >= 1, got {k}")
        array = self._arrays.get(k)
        if array is None:
            check_p(p)
            return 0
        return array.level_index(p)

    def answer_key(self, k: int, p: float) -> tuple[int, int]:
        """``(version(k), level_index(k, p))`` fetched in one call.

        The serving cache's probe key: one method dispatch instead of
        two on the hot path.  ``k`` and ``p`` are assumed validated by
        the caller (the server validates before the cache is touched);
        ``p`` is still forwarded through :meth:`KArray.level_index`'s
        ``check_p``.

        Repeat probes for the same ``(k, p)`` are memoized: the level
        of a given ``p`` within ``A_k`` can only change when ``A_k``
        itself changes, which bumps the version, so a memo pair whose
        stored version still matches is returned without re-running the
        binary search.
        """
        version = self._versions.get(k, 0)
        memo = self._key_memo.get((k, p))
        if memo is not None and memo[0] == version:
            return memo
        array = self._arrays.get(k)
        if array is None:
            check_p(p)
            pair = (version, 0)
        else:
            pair = (version, array.level_index(p))
        if len(self._key_memo) >= 4096:
            self._key_memo.clear()
        self._key_memo[(k, p)] = pair
        return pair

    def query_slice(self, k: int, p: float) -> tuple[Vertex, ...]:
        """Algorithm 3 as a stored-tuple return (shared; do not mutate).

        The serving hot path: the answer is the precomputed per-level
        slice of ``A_k``, not a per-query list rebuild.  Empty when
        ``k`` exceeds the degeneracy or ``p`` exceeds the largest
        p-number in ``A_k``.
        """
        if k < 1:
            raise ParameterError(f"degree threshold k must be >= 1, got {k}")
        check_p(p)
        array = self._arrays.get(k)
        if array is None:
            obs = get_collector()
            if obs is not None:
                obs.inc(names.INDEX_QUERIES)
                obs.inc(names.INDEX_EMPTY_QUERIES)
                obs.observe(names.INDEX_ANSWER_SIZE, 0)
            return ()
        return array.query_slice(p)

    def query(self, k: int, p: float) -> list[Vertex]:
        """Vertex set of ``C_{k,p}(G)`` — Algorithm 3 (kpCoreQuery).

        Returns the empty list when ``k`` exceeds the degeneracy or ``p``
        exceeds the largest p-number in ``A_k``.  The list is fresh and
        caller-owned; :meth:`query_slice` is the allocation-free path.
        """
        return list(self.query_slice(k, p))

    def p_number(self, v: Vertex, k: int) -> float:
        """``pn(v, k, G)``; ``KeyError`` if ``v`` is outside the k-core."""
        array = self._arrays.get(k)
        if array is None:
            raise KeyError(f"no {k}-core in the indexed graph")
        return array.p_number(v)

    # ------------------------------------------------------------------
    def pn_maps(self) -> dict[int, dict[Vertex, float]]:
        """``{k: {vertex: pn}}`` — the index's semantic content.

        Two KP-Indexes of the same graph are interchangeable iff their
        ``pn_maps`` agree (deletion order within one p-level is arbitrary).
        """
        return {k: a.pn_map() for k, a in self._arrays.items() if len(a)}

    def semantically_equal(self, other: "KPIndex") -> bool:
        """Order-insensitive equality of index content.

        Exact-double p-number equality is the *point* of this method:
        identical rationals yield bit-identical doubles (see
        :mod:`repro.core.pvalue`), so dict equality is exact.
        """
        return self.pn_maps() == other.pn_maps()  # noqa: KP002

    def space_stats(self) -> IndexSpaceStats:
        """Sizes for the Lemma 1 space bound."""
        return IndexSpaceStats(
            vertex_entries=sum(len(a) for a in self._arrays.values()),
            p_number_entries=sum(
                len(a.level_values) for a in self._arrays.values()
            ),
            num_arrays=len(self._arrays),
            two_m=2 * self._num_edges,
        )

    def core_numbers(self, vertices: Iterable[Vertex]) -> dict[Vertex, int]:
        """``cn(w) = max{k : w ∈ A_k}`` for every vertex in ``vertices``.

        The arrays are the k-cores, so the index already holds every core
        number; a vertex in no array (an isolated one) gets 0.
        """
        core = dict.fromkeys(vertices, 0)
        for k in sorted(self._arrays):
            core.update(dict.fromkeys(self._arrays[k].vertices, k))
        return core

    def validate(self) -> None:
        """Check structural invariants; raises :class:`IndexStateError`.

        Verifies per-array sorting (done by ``KArray``), the nesting
        ``V_{k+1} ⊆ V_k``, and the Lemma 1 space bound.
        """
        ks = sorted(k for k, a in self._arrays.items() if len(a))
        for smaller, larger in zip(ks, ks[1:]):
            if larger != smaller + 1:
                raise IndexStateError(
                    f"array for k={smaller + 1} missing while k={larger} exists"
                )
        for k in ks[:-1]:
            upper = self._arrays[k + 1].vertex_set()
            lower = self._arrays[k].vertex_set()
            if not upper <= lower:
                raise IndexStateError(
                    f"V_{k + 1} is not contained in V_{k}"
                )
        stats = self.space_stats()
        if not stats.within_bound:
            raise IndexStateError(
                f"space bound violated: {stats.vertex_entries} vertex entries "
                f"> 2m = {stats.two_m}"
            )

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The index content alone — the body inside the v2 envelope.

        This is also exactly the legacy v1 on-disk format, which is what
        makes the migration path in :meth:`from_dict` trivial.
        """
        return {
            "num_edges": self._num_edges,
            "arrays": {
                str(k): {"vertices": a.vertices, "p_numbers": a.p_numbers}
                for k, a in self._arrays.items()
            },
        }

    def to_dict(self, fingerprint: GraphFingerprint | None = None) -> dict:
        """Snapshot format v2 (vertex labels must be JSON-friendly).

        The envelope carries ``format_version``, the optional graph
        ``fingerprint`` (falls back to the one the index already carries),
        and a SHA-256 ``payload_checksum`` over the canonical payload
        JSON, verified again by :meth:`from_dict`.
        """
        if fingerprint is None:
            fingerprint = self.fingerprint
        payload = self.to_payload()
        document: dict[str, Any] = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "payload_checksum": _payload_checksum(payload),
            "payload": payload,
        }
        if fingerprint is not None:
            document["fingerprint"] = fingerprint.to_dict()
        return document

    @classmethod
    def _from_payload(cls, payload: dict) -> "KPIndex":
        arrays = {
            int(k): KArray(
                k=int(k),
                vertices=list(entry["vertices"]),
                p_numbers=[float(x) for x in entry["p_numbers"]],
            )
            for k, entry in payload["arrays"].items()
        }
        return cls(arrays, int(payload["num_edges"]))

    @classmethod
    def from_dict(cls, document: dict) -> "KPIndex":
        """Rebuild an index from :meth:`to_dict` output (v2) or a v1 dump.

        Raises :class:`~repro.errors.IndexPersistenceError` for anything
        that is not a well-formed snapshot: unknown ``format_version``,
        checksum mismatch, missing/mistyped fields, or arrays violating
        the :class:`KArray` invariants.
        """
        try:
            if not isinstance(document, dict):
                raise IndexPersistenceError(
                    f"expected a snapshot object, got {type(document).__name__}"
                )
            version = document.get("format_version")
            if version is None:
                # v1 migration: the legacy dump *is* the payload.
                payload = document
                fingerprint = None
            else:
                if version != SNAPSHOT_FORMAT_VERSION:
                    raise IndexPersistenceError(
                        f"unsupported snapshot format_version {version!r} "
                        f"(this build reads v1 and v{SNAPSHOT_FORMAT_VERSION})"
                    )
                payload = document["payload"]
                if not isinstance(payload, dict):
                    raise IndexPersistenceError("snapshot payload is not an object")
                expected = document["payload_checksum"]
                actual = _payload_checksum(payload)
                if actual != expected:
                    raise IndexPersistenceError(
                        f"payload checksum mismatch: stored {expected!r}, "
                        f"computed {actual!r} — the snapshot is corrupt"
                    )
                fingerprint = None
                if "fingerprint" in document:
                    fingerprint = GraphFingerprint.from_dict(
                        document["fingerprint"]
                    )
            index = cls._from_payload(payload)
            index.fingerprint = fingerprint
            return index
        except IndexPersistenceError:
            raise
        except (KeyError, TypeError, ValueError, IndexStateError) as error:
            raise IndexPersistenceError(
                f"malformed index snapshot: {error!r}"
            ) from error

    def save(
        self, path: str, fingerprint: GraphFingerprint | None = None
    ) -> None:
        """Persist the index as a v2 snapshot, atomically.

        The document is written to a temporary file in the destination
        directory, fsynced, and moved into place with ``os.replace`` — a
        crash mid-write can never destroy the previous good snapshot.
        """
        document = self.to_dict(fingerprint=fingerprint)
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # One C-encoded string: byte-identical to json.dump, which
                # runs the pure-Python encoder chunk by chunk.
                handle.write(json.dumps(document))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "KPIndex":
        """Load an index previously written by :meth:`save`.

        Accepts both the current v2 snapshot and legacy v1 dumps.  The
        loaded index is checksum-verified (v2) and structurally validated
        (:meth:`validate`); every corruption mode raises
        :class:`~repro.errors.IndexPersistenceError` rather than leaking a
        raw ``json``/``KeyError``/``TypeError`` failure.  A missing file
        still raises ``FileNotFoundError`` (it is an addressing mistake,
        not a corrupt artifact).
        """
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            document = json.loads(text)
        except ValueError as error:
            raise IndexPersistenceError(
                f"not valid JSON ({error}) — truncated or foreign file?",
                path=path,
            ) from error
        try:
            index = cls.from_dict(document)
            index.validate()
        except IndexPersistenceError as error:
            if error.path is None:
                error.path = path
            raise
        except IndexStateError as error:
            raise IndexPersistenceError(
                f"snapshot violates index invariants: {error}", path=path
            ) from error
        return index

    def __repr__(self) -> str:
        stats = self.space_stats()
        return (
            f"KPIndex(d={self.degeneracy}, vertex_entries={stats.vertex_entries}, "
            f"p_entries={stats.p_number_entries})"
        )


def build_index(graph: Graph) -> KPIndex:
    """Convenience alias for :meth:`KPIndex.build`."""
    return KPIndex.build(graph)
