"""Durable KP-Index maintenance: checkpoints, journal replay, recovery.

:class:`DurableMaintainer` wraps a :class:`~repro.core.maintenance.
KPIndexMaintainer` with an on-disk state directory::

    DIR/
      MANIFEST.json                  <- atomic pointer to the live checkpoint
      checkpoint-<seq>.graph.txt     <- edge list at the checkpoint cut
      checkpoint-<seq>.index.json    <- v2 index snapshot (fingerprinted)
      journal.jsonl                  <- write-ahead journal (tail > seq)

The invariants that make crashes survivable:

1. **Write-ahead**: every edge update is appended to the journal (and
   flushed) *before* Algorithms 4/5 touch the in-memory index, via a
   :attr:`~repro.core.maintenance.KPIndexMaintainer.update_hooks` hook;
   the journal is fsynced once per applied batch and before every
   checkpoint.
2. **Atomic checkpoints**: the graph edge list and the index snapshot are
   written to versioned filenames, each through temp-file +
   ``os.replace``; only then is ``MANIFEST.json`` atomically replaced to
   point at them.  A crash at *any* intermediate point leaves the
   previous manifest/checkpoint pair fully intact.
3. **Recovery = checkpoint + tail replay**: opening a directory loads the
   manifest's checkpoint (fingerprint-verified against the reloaded
   graph; the core numbers are read from the loaded index and the
   verified fingerprint seeds the maintainer's running edge hash), then
   replays exactly the journal records with ``seq`` greater than the
   checkpoint cut.  Each record is validated, in order, against the edge
   set the records before it left; a record that fails with a
   :class:`~repro.errors.GraphError` (an update journaled but never
   applied, or a no-op duplicate) is skipped whole — deterministic,
   because direct application enforces the same rule.  The net
   difference of the surviving records against the checkpoint graph is
   then applied as **one** coalesced batch, so a tail costs one re-peel,
   not one per record; every endpoint of a surviving record's net ops
   becomes a vertex, exactly as record-by-record replay leaves it.

Vertex labels must survive both JSON and edge-list text round-trips: use
ints or whitespace-free strings (mixing the two in one graph is not
supported by the text format and is rejected at checkpoint time).
"""

from __future__ import annotations

import enum
import io
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import (
    GraphError,
    IndexPersistenceError,
    ParameterError,
)
from repro.graph.adjacency import Graph, Vertex
from repro.graph.io import read_edge_list, write_edge_list
from repro.core.index import KPIndex
from repro.core.maintenance import KPIndexMaintainer, coalesce_updates
from repro.obs import names as metric
from repro.obs.instrumentation import get_collector
from repro.service.journal import (
    OP_BATCH,
    OP_DELETE,
    OP_INSERT,
    JournalRecord,
    UpdateJournal,
    read_journal,
)
from repro.service.stream import UpdateOp

__all__ = [
    "MANIFEST_NAME",
    "JOURNAL_NAME",
    "CHECKPOINT_EVERY_DEFAULT",
    "ErrorPolicy",
    "ServiceStats",
    "ApplyReport",
    "RecoveryReport",
    "DurableMaintainer",
]

MANIFEST_NAME = "MANIFEST.json"
JOURNAL_NAME = "journal.jsonl"
_MANIFEST_FORMAT_VERSION = 1
CHECKPOINT_EVERY_DEFAULT = 100


class ErrorPolicy(enum.Enum):
    """What :meth:`DurableMaintainer.apply` does with a failing update."""

    #: Re-raise immediately (after committing the journal); the directory
    #: stays consistent and the failed record is skipped on replay.
    FAIL = "fail"
    #: Count the failure in :class:`ServiceStats` and keep going.
    SKIP = "skip"

    @classmethod
    def coerce(cls, value: "ErrorPolicy | str") -> "ErrorPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ParameterError(
                f"unknown error policy {value!r} (expected 'fail' or 'skip')"
            ) from None


@dataclass
class ServiceStats:
    """Lifetime counters of one :class:`DurableMaintainer` instance."""

    journaled: int = 0
    applied: int = 0
    skipped: int = 0
    checkpoints: int = 0
    replayed: int = 0
    recoveries: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class ApplyReport:
    """Summary of one :meth:`DurableMaintainer.apply` batch."""

    applied: int
    skipped: int
    checkpoints: int


@dataclass(frozen=True)
class RecoveryReport:
    """What opening an existing state directory had to do."""

    checkpoint_seq: int
    replayed: int
    skipped: int


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class _TailEdges:
    """The checkpoint graph's edge set with journal records laid over it.

    ``changed`` maps each edge a surviving record touched, keyed by its
    first-seen orientation, to its presence after the records so far;
    the graph itself is not mutated.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.changed: dict[tuple[Vertex, Vertex], bool] = {}

    def _key(self, u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
        return (v, u) if (v, u) in self.changed else (u, v)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        present = self.changed.get(self._key(u, v))
        return self.graph.has_edge(u, v) if present is None else present

    def apply(self, ops: Iterable[tuple[str, Vertex, Vertex]]) -> None:
        for op, u, v in ops:
            self.changed[self._key(u, v)] = op == OP_INSERT

    def net_ops(self) -> list[tuple[str, Vertex, Vertex]]:
        """The net difference against the graph, in first-touch order."""
        has_edge = self.graph.has_edge
        return [
            (OP_INSERT if present else OP_DELETE, u, v)
            for (u, v), present in self.changed.items()
            if present != has_edge(u, v)
        ]


class DurableMaintainer:
    """A :class:`KPIndexMaintainer` whose state survives the process.

    Opening a directory with existing state *is* recovery: the last good
    checkpoint is loaded and the journal tail replayed (see
    :attr:`recovery`).  A directory without state starts from the empty
    graph — the pure update-stream deployment.

    Parameters
    ----------
    directory:
        The state directory (created on demand unless ``must_exist``).
    checkpoint_every:
        Write a checkpoint after this many applied updates.
    on_error:
        :class:`ErrorPolicy` (or its string value) for failing updates in
        :meth:`apply`.
    must_exist:
        Refuse to initialize a fresh directory — ``index recover`` uses
        this so a typo'd path errors instead of creating empty state.
    fault_hook:
        Test-only fault injection: called with a stage label at each
        point of the checkpoint protocol; raising from it simulates a
        crash at that point.
    """

    def __init__(
        self,
        directory: str,
        checkpoint_every: int = CHECKPOINT_EVERY_DEFAULT,
        on_error: ErrorPolicy | str = ErrorPolicy.FAIL,
        must_exist: bool = False,
        fault_hook: Callable[[str], None] | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ParameterError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.directory = os.fspath(directory)
        self.checkpoint_every = checkpoint_every
        self.policy = ErrorPolicy.coerce(on_error)
        self.stats = ServiceStats()
        self.recovery: RecoveryReport | None = None
        self._fault_hook = fault_hook
        self._since_checkpoint = 0
        self._closed = False

        manifest_path = self._path(MANIFEST_NAME)
        journal_path = self._path(JOURNAL_NAME)
        has_state = os.path.exists(manifest_path) or os.path.exists(journal_path)
        if must_exist and not has_state:
            raise IndexPersistenceError(
                "no durable index state (no manifest, no journal)",
                path=self.directory,
            )
        os.makedirs(self.directory, exist_ok=True)

        manifest = self._read_manifest()
        checkpoint_seq = -1
        graph = Graph()
        index: KPIndex | None = None
        if manifest is not None:
            checkpoint_seq, graph, index = self._load_checkpoint(manifest)
        self.maintainer = KPIndexMaintainer(graph, index=index)
        if index is not None and index.fingerprint is not None:
            # _load_checkpoint has just verified it against the graph.
            self.maintainer.adopt_fingerprint(index.fingerprint)
        tail = read_journal(journal_path, after_seq=checkpoint_seq)
        replay_skipped = self._replay(tail)
        if has_state:
            self.stats.recoveries += 1
            self.recovery = RecoveryReport(
                checkpoint_seq=checkpoint_seq,
                replayed=len(tail),
                skipped=replay_skipped,
            )
            obs = get_collector()
            if obs is not None:
                obs.inc(metric.SERVICE_RECOVERIES)
                obs.add(metric.SERVICE_REPLAYED, len(tail))
        next_seq = checkpoint_seq + 1
        if tail:
            next_seq = max(next_seq, tail[-1].seq + 1)
        self._journal = UpdateJournal(journal_path, start_seq=next_seq)
        # Write-ahead hook: journal every update *before* it is applied,
        # including direct insert_edge/delete_edge calls on `maintainer`.
        self.maintainer.update_hooks.append(self._journal_hook)
        # Batched write-ahead hook: a coalesced batch journals as one
        # atomic single-line record (apply_batch fires batch_hooks, never
        # the per-edge update_hooks, so batches are not double-logged).
        self.maintainer.batch_hooks.append(self._batch_journal_hook)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self.maintainer.graph

    @property
    def index(self) -> KPIndex:
        return self.maintainer.index

    @property
    def last_checkpoint_seq(self) -> int:
        manifest = self._read_manifest()
        return -1 if manifest is None else int(manifest["seq"])

    def query(self, k: int, p: float) -> list[Vertex]:
        return self.maintainer.query(k, p)

    def query_slice(self, k: int, p: float) -> tuple[Vertex, ...]:
        """The stored answer tuple for ``(k, p)`` (shared; do not mutate)."""
        return self.maintainer.query_slice(k, p)

    # ------------------------------------------------------------------
    # the update path
    # ------------------------------------------------------------------
    def _journal_hook(self, op: str, u: Vertex, v: Vertex) -> None:
        self._journal.append(op, u, v)
        self.stats.journaled += 1
        obs = get_collector()
        if obs is not None:
            obs.inc(metric.SERVICE_JOURNAL_RECORDS)

    def _batch_journal_hook(
        self, ops: Sequence[tuple[str, Vertex, Vertex]]
    ) -> None:
        self._journal.append_batch(ops)
        self.stats.journaled += 1
        obs = get_collector()
        if obs is not None:
            obs.inc(metric.SERVICE_JOURNAL_RECORDS)

    def _apply_one(self, op: str, u: Vertex, v: Vertex) -> None:
        if op == OP_INSERT:
            self.maintainer.insert_edge(u, v)
        elif op == OP_DELETE:
            self.maintainer.delete_edge(u, v)
        else:
            raise ParameterError(f"unknown update op {op!r}")

    def apply(self, updates: Iterable[UpdateOp]) -> ApplyReport:
        """Apply a batch of updates with journaling and checkpointing.

        Each update is journaled (write-ahead) and applied; every
        ``checkpoint_every`` applied updates a checkpoint is written.  The
        journal is fsynced when the batch ends, whether it ends by
        completion or — under :attr:`ErrorPolicy.FAIL` — by re-raising the
        first failing update.  Failing updates are journaled too; replay
        skips them deterministically.
        """
        self._ensure_open()
        applied = skipped = checkpoints = 0
        try:
            for op, u, v in updates:
                try:
                    self._apply_one(op, u, v)
                except GraphError:
                    self.stats.skipped += 1
                    skipped += 1
                    if self.policy is ErrorPolicy.FAIL:
                        raise
                    continue
                self.stats.applied += 1
                applied += 1
                self._since_checkpoint += 1
                if self._since_checkpoint >= self.checkpoint_every:
                    self.checkpoint()
                    checkpoints += 1
        finally:
            self._journal.commit()
        return ApplyReport(
            applied=applied, skipped=skipped, checkpoints=checkpoints
        )

    def apply_batch(self, updates: Iterable[UpdateOp]) -> ApplyReport:
        """Apply a coalesced batch: one journal record, one fsync, one
        checkpoint decision.

        The batch is handed to
        :meth:`~repro.core.maintenance.KPIndexMaintainer.apply_batch`,
        which validates the *whole* sequence before mutating anything and
        journals it (through the batch hook) as a single atomic
        single-line record.  Failure semantics are therefore
        all-or-nothing: a :class:`~repro.errors.GraphError` means nothing
        was journaled and nothing was applied — under
        :attr:`ErrorPolicy.SKIP` the entire batch counts as skipped,
        under :attr:`ErrorPolicy.FAIL` it re-raises.  At most one
        checkpoint is taken per batch, after the whole batch has applied.
        """
        self._ensure_open()
        ops = list(updates)
        applied = skipped = checkpoints = 0
        try:
            try:
                report = self.maintainer.apply_batch(ops)
            except GraphError:
                self.stats.skipped += len(ops)
                skipped = len(ops)
                if self.policy is ErrorPolicy.FAIL:
                    raise
            else:
                applied = report.applied
                self.stats.applied += report.applied
                self._since_checkpoint += report.applied
                if self._since_checkpoint >= self.checkpoint_every:
                    self.checkpoint()
                    checkpoints = 1
        finally:
            self._journal.commit()
        return ApplyReport(
            applied=applied, skipped=skipped, checkpoints=checkpoints
        )

    def insert_edge(self, u: Vertex, v: Vertex) -> None:
        """Journal and apply one insertion (no automatic checkpoint)."""
        self._ensure_open()
        try:
            self._apply_one(OP_INSERT, u, v)
            self.stats.applied += 1
            self._since_checkpoint += 1
        finally:
            self._journal.commit()

    def delete_edge(self, u: Vertex, v: Vertex) -> None:
        """Journal and apply one deletion (no automatic checkpoint)."""
        self._ensure_open()
        try:
            self._apply_one(OP_DELETE, u, v)
            self.stats.applied += 1
            self._since_checkpoint += 1
        finally:
            self._journal.commit()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _fault(self, stage: str) -> None:
        if self._fault_hook is not None:
            self._fault_hook(stage)

    def checkpoint(self) -> int:
        """Write a full checkpoint; returns the sequence cut it covers.

        Protocol order (each file write is individually atomic):
        journal fsync -> graph edge list -> index snapshot -> manifest
        replace -> journal compaction -> stale-file cleanup.  The
        manifest replace is the commit point; everything after it is
        hygiene that recovery does not depend on.
        """
        self._ensure_open()
        graph = self.maintainer.graph
        seq = self._journal.last_seq
        self._journal.commit()
        self._fault("journal-committed")

        labels_int = [isinstance(v, int) for v in graph.vertices()]
        if labels_int and any(labels_int) and not all(labels_int):
            raise IndexPersistenceError(
                "graphs mixing int and non-int vertex labels cannot be "
                "checkpointed (the edge-list text format loses the types)",
                path=self.directory,
            )
        int_vertices = all(labels_int)
        isolated = [v for v in graph.vertices() if graph.degree(v) == 0]

        graph_name = f"checkpoint-{seq}.graph.txt"
        index_name = f"checkpoint-{seq}.index.json"
        buffer = io.StringIO()
        write_edge_list(graph, buffer)
        _atomic_write_text(self._path(graph_name), buffer.getvalue())
        self._fault("graph-written")
        self.maintainer.index.save(
            self._path(index_name), fingerprint=self.maintainer.fingerprint()
        )
        self._fault("index-written")

        manifest = {
            "format_version": _MANIFEST_FORMAT_VERSION,
            "seq": seq,
            "graph": graph_name,
            "index": index_name,
            "int_vertices": int_vertices,
            "isolated": isolated,
        }
        self._fault("before-manifest")
        _atomic_write_text(
            self._path(MANIFEST_NAME),
            json.dumps(manifest, separators=(",", ":")),
        )
        self._fault("manifest-written")

        self._compact_journal(seq)
        self._cleanup_stale({graph_name, index_name})
        self.stats.checkpoints += 1
        self._since_checkpoint = 0
        obs = get_collector()
        if obs is not None:
            obs.inc(metric.SERVICE_CHECKPOINTS)
        return seq

    def _compact_journal(self, cut_seq: int) -> None:
        """Drop journal records the manifest's checkpoint now covers."""
        next_seq = self._journal.next_seq
        self._journal.close()
        tail = read_journal(self._path(JOURNAL_NAME), after_seq=cut_seq)
        self._fault("compaction")
        lines = "".join(record.to_line() + "\n" for record in tail)
        _atomic_write_text(self._path(JOURNAL_NAME), lines)
        self._journal = UpdateJournal(
            self._path(JOURNAL_NAME), start_seq=next_seq
        )

    def _cleanup_stale(self, keep: set[str]) -> None:
        for name in os.listdir(self.directory):
            if name.startswith("checkpoint-") and name not in keep:
                try:
                    os.unlink(self._path(name))
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # recovery internals
    # ------------------------------------------------------------------
    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _read_manifest(self) -> dict | None:
        path = self._path(MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            return None
        try:
            manifest = json.loads(text)
            if not isinstance(manifest, dict):
                raise ValueError("manifest is not an object")
            version = manifest["format_version"]
            if version != _MANIFEST_FORMAT_VERSION:
                raise ValueError(f"unsupported manifest version {version!r}")
            int(manifest["seq"])
            str(manifest["graph"])
            str(manifest["index"])
        except (KeyError, TypeError, ValueError) as error:
            raise IndexPersistenceError(
                f"corrupt manifest: {error}", path=path
            ) from error
        return manifest

    def _load_checkpoint(
        self, manifest: dict
    ) -> tuple[int, Graph, KPIndex]:
        seq = int(manifest["seq"])
        graph_path = self._path(str(manifest["graph"]))
        index_path = self._path(str(manifest["index"]))
        try:
            graph = read_edge_list(
                graph_path, int_vertices=bool(manifest.get("int_vertices", True))
            )
        except FileNotFoundError as error:
            raise IndexPersistenceError(
                f"manifest references missing graph file {manifest['graph']!r}",
                path=self.directory,
            ) from error
        for v in manifest.get("isolated", []):
            graph.add_vertex(v)
        try:
            index = KPIndex.load(index_path)
        except FileNotFoundError as error:
            raise IndexPersistenceError(
                f"manifest references missing index file {manifest['index']!r}",
                path=self.directory,
            ) from error
        if index.fingerprint is None:
            raise IndexPersistenceError(
                "checkpoint index snapshot carries no graph fingerprint",
                path=index_path,
            )
        if not index.fingerprint.matches(graph):
            raise IndexPersistenceError(
                "checkpoint graph does not match the index fingerprint "
                f"(expected n={index.fingerprint.num_vertices} "
                f"m={index.fingerprint.num_edges}, loaded n={graph.num_vertices} "
                f"m={graph.num_edges})",
                path=self.directory,
            )
        return seq, graph, index

    def _replay(self, tail: list[JournalRecord]) -> int:
        """Apply the journal tail as one net batch; GraphError records are
        skipped.

        Each record is coalesced and validated, in order, against the
        edge set the surviving records before it left (:class:`_TailEdges`)
        — the same check direct application runs.  Skipping is sound
        *and* required: the journal is written ahead of application, so a
        record may describe an update that failed (or never ran) before
        the crash — exactly the updates that raise
        :class:`~repro.errors.GraphError` here.  A journaled batch passed
        whole-batch validation, so it is skipped or kept whole too.

        Every endpoint of a surviving record's net ops becomes a vertex
        (an edge inserted by one record and deleted by a later one leaves
        its endpoints isolated, as record-by-record replay does), and the
        net difference against the checkpoint graph goes through one
        :meth:`~repro.core.maintenance.KPIndexMaintainer.apply_batch`:
        nothing for no net op, the windows for one, one decomposition and
        full re-peels for more.
        """
        graph = self.maintainer.graph
        edges = _TailEdges(graph)
        fresh: dict[Vertex, None] = {}
        skipped = 0
        ops: Sequence[tuple[str, Vertex, Vertex]]
        for record in tail:
            if record.op == OP_BATCH:
                ops = record.ops or ()
            else:
                ops = ((record.op, record.u, record.v),)
            try:
                net, _ = coalesce_updates(edges, ops)
            except GraphError:
                skipped += 1
                continue
            edges.apply(net)
            for _, u, v in net:
                for w in (u, v):
                    if w not in graph:
                        fresh[w] = None
        for w in fresh:
            self.maintainer.insert_vertex(w)
        net_ops = edges.net_ops()
        if net_ops:
            self.maintainer.apply_batch(net_ops)
        self.stats.replayed += len(tail)
        self.stats.skipped += skipped
        return skipped

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise IndexPersistenceError(
                "durable maintainer is closed", path=self.directory
            )

    def close(self) -> None:
        """Close the journal and release the maintainer's peel state."""
        if not self._closed:
            self._journal.close()
            self.maintainer.release_peel_state()
            self._closed = True

    def __enter__(self) -> "DurableMaintainer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
