"""Spans recorded from outside the program, around calls into its layers.

:func:`install` wraps public functions and methods of ``repro.graph``,
``repro.kcore``, ``repro.core`` and ``repro.service`` so that each call
records a span ``(id, parent, name, start, end, info)``.  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON lines.  Nothing under
``src/`` changes: a wrapper replaces the attribute on the class, or on every
``repro`` module that bound the function by name, and :func:`uninstall`
puts the originals back.

A span's *self time* is its duration minus the time its child spans cover;
calls are single-threaded and strictly nested, so the children's summed
durations are exactly that cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        #: Finished spans: (id, parent, name, start, end, info).
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        #: Off during set-up, warm-up and answer checks, which are not
        #: part of any timed operation.
        self.enabled = True

    def begin(self, name: str) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return (sid, parent, name, _clock())

    def end(self, opened: tuple, info: Any = None) -> None:
        end = _clock()
        self._stack.pop()
        sid, parent, name, start = opened
        self.spans.append((sid, parent, name, start, end, info))

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``info(args, kwargs, result)``
        may attach a small value to it."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            opened = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(opened, info(args, kwargs, result) if info else None)

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, info in self.spans:
                record = {"id": sid, "parent": parent, "name": name,
                          "start": start, "end": end}
                if isinstance(info, (int, float, str)):
                    record["info"] = info
                handle.write(json.dumps(record) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._opened: tuple | None = None

    def __enter__(self) -> "_Span":
        if self._tracer.enabled:
            self._opened = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc: object) -> None:
        if self._opened is not None:
            self._tracer.end(self._opened)


class _LockScope:
    """Times a lock scope as acquire / hold / release spans; the hold span
    is the parent of whatever runs under the lock."""

    def __init__(self, tracer: Tracer, scope: Any, mode: str, site: str) -> None:
        self._tracer = tracer
        self._scope = scope
        self._prefix = f"service.lock.{mode}"
        self._site = site
        self._hold: tuple | None = None

    def __enter__(self) -> None:
        tracer = self._tracer
        if not tracer.enabled:
            return self._scope.__enter__()
        opened = tracer.begin(self._prefix + ".acquire")
        try:
            entered = self._scope.__enter__()
        finally:
            tracer.end(opened, self._site)
        self._hold = tracer.begin(self._prefix + ".hold")
        return entered

    def __exit__(self, *exc: Any) -> Any:
        tracer = self._tracer
        if self._hold is None:
            return self._scope.__exit__(*exc)
        tracer.end(self._hold, self._site)
        opened = tracer.begin(self._prefix + ".release")
        try:
            return self._scope.__exit__(*exc)
        finally:
            tracer.end(opened, self._site)


def _returned(args, kwargs, result):
    """Keep the call's return value (a BatchReport, a commit count)."""
    return result


def _targets():
    """(owner, attribute, span name, info) for every wrapped call."""
    from repro.core import index, maintenance, peel_engines
    from repro.graph import compact, fingerprint, io
    from repro.kcore import decomposition as kdecomp
    from repro.kcore import maintenance as kmaint
    from repro.service import journal, server

    return [
        (io, "read_edge_list", "graph.read_edge_list", None),
        (io, "write_edge_list", "graph.write_edge_list", None),
        (compact.CompactAdjacency, "__init__", "graph.CompactAdjacency", None),
        (fingerprint, "graph_fingerprint", "graph.fingerprint", None),
        (fingerprint.GraphFingerprint, "matches", "graph.fingerprint", None),
        (kdecomp, "core_numbers_compact", "kcore.core_numbers_compact", None),
        (kmaint.CoreMaintainer, "insert_edge", "kcore.core_repair", None),
        (kmaint.CoreMaintainer, "delete_edge", "kcore.core_repair", None),
        (compact.CompactAdjacency, "sort_neighbors_by_rank_desc", "core.sort", None),
        (peel_engines, "make_scratch", "core.make_scratch", None),
        (index.KPIndex, "from_decomposition", "core.index_from_decomposition", None),
        (index.KPIndex, "save", "core.index_save", None),
        (index.KPIndex, "load", "core.index_load", None),
        (index.KPIndex, "answer_key", "core.answer_key", None),
        (index.KPIndex, "query_slice", "core.query_slice", None),
        (index.KArray, "replace_segment", "core.splice", None),
        (maintenance.KPIndexMaintainer, "insert_edge", "core.maintain", None),
        (maintenance.KPIndexMaintainer, "delete_edge", "core.maintain", None),
        (maintenance.KPIndexMaintainer, "apply_batch", "core.apply_batch", _returned),
        (journal.UpdateJournal, "append", "service.journal_append", None),
        (journal.UpdateJournal, "append_batch", "service.journal_append", None),
        (journal.UpdateJournal, "commit", "service.journal_commit", _returned),
        (journal, "read_journal", "service.read_journal", None),
        (server.QueryCache, "get", "service.cache_get", None),
        (server.QueryCache, "put", "service.cache_put", None),
        (server.QueryCache, "purge_k", "service.cache_purge", None),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns the function that restores them."""
    from repro.core import peel_engines
    from repro.service.server import RWLock

    restore: list[tuple[Any, str, Any, bool]] = []

    def patch(owner: Any, attr: str, value: Any, is_dict: bool = False) -> None:
        old = owner[attr] if is_dict else owner.__dict__[attr]
        restore.append((owner, attr, old, is_dict))
        if is_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    for owner, attr, name, info in _targets():
        raw = owner.__dict__[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                patch(owner, attr, classmethod(tracer.wrap(name, raw.__func__, info)))
            else:
                patch(owner, attr, tracer.wrap(name, raw, info))
            continue
        # A module function: rebind it in every repro module that imported
        # it by name, so internal callers see the wrapper too.
        wrapped = tracer.wrap(name, raw, info)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    patch(module, key, wrapped)

    def peel_info(args, kwargs, result):
        return len(result[0])

    for engine, fn in list(peel_engines.ENGINES.items()):
        patch(peel_engines.ENGINES, engine, tracer.wrap("core.peel", fn, peel_info), True)

    for mode in ("read", "write"):
        original = RWLock.__dict__[f"{mode}_locked"]

        def locked(self, site="", _original=original, _mode=mode):
            return _LockScope(tracer, _original(self, site=site), _mode, site)

        patch(RWLock, f"{mode}_locked", locked)

    def uninstall() -> None:
        for owner, attr, old, is_dict in reversed(restore):
            if is_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    return uninstall


class SpanIndex:
    """Spans grouped by the benchmark operation (root span) they ran in."""

    def __init__(self, spans: list[tuple]) -> None:
        parent_of = {s[0]: s[1] for s in spans}
        name_of = {s[0]: s[2] for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _name, start, end, _info in spans:
            child_time[parent] += end - start
        root_of: dict[int, int] = {}

        def root(sid: int) -> int:
            path = []
            while sid not in root_of:
                parent = parent_of.get(sid, 0)
                if parent == 0:
                    root_of[sid] = sid
                    break
                path.append(sid)
                sid = parent
            top = root_of[sid]
            for p in path:
                root_of[p] = top
            return top

        #: (op name, span name) -> {root id: [(duration, self time, info)]}
        self.by_op: dict[tuple[str, str], dict[int, list]] = defaultdict(
            lambda: defaultdict(list)
        )
        for sid, parent, name, start, end, info in spans:
            top = root(sid)
            op = name_of[top]
            duration = end - start
            self.by_op[(op, name)][top].append(
                (duration, duration - child_time.get(sid, 0.0), info)
            )

    def per_op(self, ops: tuple, names: tuple, self_time: bool = False) -> list[float]:
        """Per benchmark operation, the summed (self) time of the named
        spans; operations without such a span are left out."""
        totals: dict[int, float] = defaultdict(float)
        for op in ops:
            for name in names:
                for top, entries in self.by_op.get((op, name), {}).items():
                    totals[top] += sum(e[1] if self_time else e[0] for e in entries)
        return list(totals.values())

    def per_op_max(self, op: str, name: str) -> list[float]:
        return [max(e[0] for e in entries)
                for entries in self.by_op.get((op, name), {}).values()]

    def by_name(self) -> dict:
        """``{span name: [calls, total seconds, self seconds]}``."""
        rows: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for (_op, name), per_root in self.by_op.items():
            row = rows[name]
            for entries in per_root.values():
                row[0] += len(entries)
                row[1] += sum(e[0] for e in entries)
                row[2] += sum(e[1] for e in entries)
        return rows

    def infos(self, op: str, name: str) -> list:
        return [e[2] for entries in self.by_op.get((op, name), {}).values()
                for e in entries]
