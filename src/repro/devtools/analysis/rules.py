"""Whole-program rules KP008-KP010 and KP012 over the call graph,
effects and lock contexts.

Each rule is under-approximate by construction: it only reasons about
call edges the resolver could prove and lock scopes it could see, so an
unresolvable call contributes silence, not noise.  The flip side is the
usual static-analysis contract — a clean run means "no violation the
analysis can see", not a proof.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.devtools.analysis.callgraph import (
    CallSite,
    FunctionInfo,
    Program,
)
from repro.devtools.analysis.contexts import (
    LOCK_WRITE,
    ContextMap,
    compute_contexts,
)
from repro.devtools.analysis.effects import (
    Effect,
    EffectMap,
    compute_effects,
)
from repro.devtools.violations import Violation

__all__ = [
    "AnalysisRule",
    "LockDisciplineRule",
    "VersionBumpPairingRule",
    "DurableWriteProtocolRule",
    "BlockingUnderLockRule",
    "ALL_ANALYSIS_RULES",
    "default_analysis_rules",
    "analyze_program",
]

_RWLOCK_RE = re.compile(r"rwlock|readwritelock", re.IGNORECASE)
_MAINTENANCE_SUFFIX = "core/maintenance.py"
_PERSISTED_SUFFIXES = ("core/index.py", "obs/snapshot.py")


def _normalize(path: str) -> str:
    return path.replace("\\", "/")


def _module_path(program: Program, function: FunctionInfo) -> str:
    module = program.modules.get(function.module)
    return module.path if module is not None else "<unknown>"


def _lock_owning_classes(program: Program) -> set[str]:
    """Classes that hold an RWLock attribute — the serving boundary where
    the lock-discipline rules apply."""
    owners: set[str] = set()
    for cls in program.classes.values():
        for attr_class in cls.attr_types.values():
            target = program.classes.get(attr_class)
            if target is not None and _RWLOCK_RE.search(target.name):
                owners.add(cls.qualname)
    return owners


def _in_lock_owner(program: Program, function: FunctionInfo, owners: set[str]) -> bool:
    return (
        function.class_name is not None
        and f"{function.module}.{function.class_name}" in owners
    )


class AnalysisRule:
    """Base class for whole-program rules (KP008+)."""

    code = "KP999"

    def check(
        self, program: Program, effects: EffectMap, contexts: ContextMap
    ) -> Iterator[Violation]:
        raise NotImplementedError

    def _violation(
        self, path: str, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


class LockDisciplineRule(AnalysisRule):
    """KP008 — server lock discipline.

    In any class that owns an RWLock, every call path that mutates index
    state must be dominated by ``write_locked()``; and any function that
    reads a version counter *and* fills the query cache must do both
    inside one ``read_locked()`` (or stronger) scope, so the version it
    tags the entry with belongs to the same lock acquisition as the
    fill.
    """

    code = "KP008"

    def check(
        self, program: Program, effects: EffectMap, contexts: ContextMap
    ) -> Iterator[Violation]:
        owners = _lock_owning_classes(program)
        for function in program.functions.values():
            path = _module_path(program, function)
            if _in_lock_owner(program, function, owners):
                yield from self._check_mutations(
                    program, effects, contexts, function, path
                )
            yield from self._check_read_scope(effects, contexts, function, path)

    def _check_mutations(
        self,
        program: Program,
        effects: EffectMap,
        contexts: ContextMap,
        function: FunctionInfo,
        path: str,
    ) -> Iterator[Violation]:
        qualname = function.qualname
        direct_nodes: set[int] = set()
        for site in effects.function_effects(qualname).sites_with(Effect.MUTATES_INDEX):
            direct_nodes.add(id(site.node))
            if LOCK_WRITE not in contexts.effective_locks(qualname, site.node):
                yield self._violation(
                    path,
                    site.node,
                    "index state mutated outside write_locked() "
                    f"in lock-owning class method {function.name}()",
                )
        for site in function.calls:
            if id(site.node) in direct_nodes:
                continue
            if effects.call_effect(site) & Effect.MUTATES_INDEX:
                if LOCK_WRITE not in contexts.effective_locks(qualname, site.node):
                    yield self._violation(
                        path,
                        site.node,
                        f"call {site.raw}() mutates index state but is not "
                        "dominated by write_locked()",
                    )

    def _check_read_scope(
        self,
        effects: EffectMap,
        contexts: ContextMap,
        function: FunctionInfo,
        path: str,
    ) -> Iterator[Violation]:
        qualname = function.qualname
        direct = effects.function_effects(qualname)
        reads = direct.sites_with(Effect.READS_VERSION)
        fills = direct.sites_with(Effect.FILLS_CACHE)
        if not reads or not fills:
            return
        scope_ids: set[int | None] = set()
        for site in [*reads, *fills]:
            if not contexts.effective_locks(qualname, site.node):
                what = "version read" if site.effect & Effect.READS_VERSION else "cache fill"
                yield self._violation(
                    path,
                    site.node,
                    f"{what} ({site.detail}) outside any read_locked() scope "
                    "in a function that also "
                    + ("fills the cache" if what == "version read" else "reads versions"),
                )
                return
            scope_ids.add(contexts.at(site.node).scope_id)
        if len(scope_ids) > 1:
            yield self._violation(
                path,
                reads[0].node,
                "version read and cache fill sit in different lock scopes; "
                "the version tag must come from the same read_locked() "
                "acquisition as the fill",
            )


class VersionBumpPairingRule(AnalysisRule):
    """KP009 — every A_k mutation in ``repro.core.maintenance`` pairs
    with a ``bump_version`` call in the same function."""

    code = "KP009"

    def check(
        self, program: Program, effects: EffectMap, contexts: ContextMap
    ) -> Iterator[Violation]:
        for function in program.functions.values():
            path = _module_path(program, function)
            if not _normalize(path).endswith(_MAINTENANCE_SUFFIX):
                continue
            direct = effects.function_effects(function.qualname)
            mutations = direct.sites_with(Effect.MUTATES_INDEX)
            if not mutations:
                continue
            if direct.direct & Effect.BUMPS_VERSION:
                continue
            first = min(mutations, key=lambda s: (s.lineno, s.col))
            yield self._violation(
                path,
                first.node,
                f"{function.name}() mutates a level array without calling "
                "bump_version() — the cache-invalidation oracle "
                "(Thm. 2/6/7 skip logic) would go stale",
            )


class DurableWriteProtocolRule(AnalysisRule):
    """KP010 — write-ahead ordering and atomic persisted writes.

    (a) in service/maintenance modules, the first journal append in a
    function must precede the first in-memory index mutation it logs;
    (b) persisted-path modules must not use raw ``open(path, "w")`` —
    durable writes go through temp file → fsync → ``os.replace``.
    """

    code = "KP010"

    def check(
        self, program: Program, effects: EffectMap, contexts: ContextMap
    ) -> Iterator[Violation]:
        for function in program.functions.values():
            path = _normalize(_module_path(program, function))
            in_service = "/service/" in path or path.endswith(_MAINTENANCE_SUFFIX)
            persisted = in_service or path.endswith(_PERSISTED_SUFFIXES)
            if in_service:
                yield from self._check_ordering(program, effects, function)
            if persisted:
                yield from self._check_raw_open(program, function)

    def _check_ordering(
        self, program: Program, effects: EffectMap, function: FunctionInfo
    ) -> Iterator[Violation]:
        path = _module_path(program, function)
        direct = effects.function_effects(function.qualname)
        appends = direct.sites_with(Effect.JOURNAL_APPEND)
        if not appends:
            return
        first_append = min(a.lineno for a in appends)
        direct_mutations = direct.sites_with(Effect.MUTATES_INDEX)
        mutation_sites: list[tuple[int, ast.AST, str]] = [
            (s.lineno, s.node, s.detail) for s in direct_mutations
        ]
        seen = {id(s.node) for s in direct_mutations}
        for site in function.calls:
            if id(site.node) in seen:
                continue
            if effects.call_effect(site) & Effect.MUTATES_INDEX:
                mutation_sites.append((site.lineno, site.node, site.raw))
        for lineno, node, detail in mutation_sites:
            if lineno < first_append:
                yield self._violation(
                    path,
                    node,
                    f"in-memory mutation ({detail}) precedes the first "
                    "journal append at line "
                    f"{first_append} — a crash here loses the update "
                    "(write-ahead ordering)",
                )

    def _check_raw_open(
        self, program: Program, function: FunctionInfo
    ) -> Iterator[Violation]:
        path = _module_path(program, function)
        for site in function.calls:
            node = site.node
            if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
                continue
            mode = self._open_mode(node)
            if mode is not None and mode.startswith("w"):
                yield self._violation(
                    path,
                    node,
                    f'raw open(..., "{mode}") on a persisted path — use the '
                    "temp-file + fsync + os.replace idiom so readers never "
                    "see a torn file",
                )

    @staticmethod
    def _open_mode(node: ast.Call) -> str | None:
        if len(node.args) >= 2:
            arg = node.args[1]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
        for keyword in node.keywords:
            if keyword.arg == "mode":
                if isinstance(keyword.value, ast.Constant) and isinstance(
                    keyword.value.value, str
                ):
                    return keyword.value.value
        return None


class BlockingUnderLockRule(AnalysisRule):
    """KP012 — no blocking I/O while holding a lock scope that query
    threads share: every fsync spent under the lock is latency added to
    someone's read."""

    code = "KP012"

    def check(
        self, program: Program, effects: EffectMap, contexts: ContextMap
    ) -> Iterator[Violation]:
        owners = _lock_owning_classes(program)
        for function in program.functions.values():
            path = _module_path(program, function)
            qualname = function.qualname
            in_owner = _in_lock_owner(program, function, owners)
            for site in function.calls:
                effect = effects.call_effect(site)
                if not effect & Effect.BLOCKING_IO:
                    continue
                locks = contexts.effective_locks(qualname, site.node)
                # Report at the boundary where the lock is visible: a
                # lexically-locked site anywhere, or any method of the
                # lock-owning class (which may inherit the scope from
                # its callers).  Lock-oblivious callees deeper down the
                # same path would repeat the same finding with no new
                # information.
                if not contexts.at(site.node).locks and not in_owner:
                    continue
                if locks:
                    held = ", ".join(sorted(locks))
                    yield self._violation(
                        path,
                        site.node,
                        f"blocking I/O ({site.raw}) while holding a lock "
                        f"scope ({held}) that queries may be waiting on",
                    )


ALL_ANALYSIS_RULES: tuple[type[AnalysisRule], ...] = (
    LockDisciplineRule,
    VersionBumpPairingRule,
    DurableWriteProtocolRule,
    BlockingUnderLockRule,
)


def default_analysis_rules() -> list[AnalysisRule]:
    return [rule() for rule in ALL_ANALYSIS_RULES]


def analyze_program(
    program: Program, rules: Iterable[AnalysisRule] | None = None
) -> list[Violation]:
    """Run the whole-program rules over an already-built program."""
    effects = compute_effects(program)
    contexts = compute_contexts(program)
    found: list[Violation] = []
    for rule in rules if rules is not None else default_analysis_rules():
        found.extend(rule.check(program, effects, contexts))
    found.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return found
