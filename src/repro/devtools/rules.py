"""The repo-specific AST lint rules (KP001-KP007).

Every rule is a small class with a stable ``code`` and a ``check`` method
yielding :class:`~repro.devtools.violations.Violation` objects.  The rules
encode conventions the library's correctness rests on but Python cannot:

* exact-double fraction semantics live in one module
  (:mod:`repro.core.pvalue`) — KP001/KP002,
* public entry points validate their ``p``/``k`` parameters — KP003,
* :class:`~repro.graph.compact.CompactAdjacency` snapshots are immutable
  outside their own module — KP004,
* ``__all__`` matches reality — KP005,
* the O(m) peeling loops stay allocation-free per iteration — KP006,
* metric recording in the peeling loops stays off the per-iteration
  path — KP007.

Rules are heuristic by design (a linter cannot do whole-program dataflow);
false positives are silenced with ``# noqa: KPxxx`` plus a short
justification, which doubles as documentation of the exception.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Sequence

from repro.devtools.violations import HOT_LOOP_SUFFIXES, Violation

__all__ = [
    "LintRule",
    "RawFractionRule",
    "FloatEqualityRule",
    "ParameterValidationRule",
    "SnapshotMutationRule",
    "DunderAllDriftRule",
    "HotLoopAllocationRule",
    "UnguardedMetricRule",
    "ALL_RULES",
    "default_rules",
]

#: The module allowed to do raw fraction arithmetic / float equality.
_PVALUE_SUFFIXES = ("core/pvalue.py",)

_DEGREE_NAME = re.compile(r"(?:^|_)deg(?:ree)?s?(?:$|_)|^denominator$|^d[uv]$")
_P_NAME = re.compile(r"^(?:p|pn|p\d+|p_[a-z0-9_]+|pn_[a-z0-9_]+|frac|fraction|key|level_values)$")


def _normalize(path: str) -> str:
    return path.replace("\\", "/")


def _is_pvalue_module(path: str) -> bool:
    norm = _normalize(path)
    return norm.endswith(_PVALUE_SUFFIXES) or norm.rsplit("/", 1)[-1] == "pvalue.py"


def _base_name(node: ast.expr) -> str | None:
    """The identifier a value expression hangs off: ``deg_s[v]`` -> ``deg_s``,
    ``graph.degree(v)`` -> ``degree``, ``self.p_numbers`` -> ``p_numbers``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        return _base_name(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _base_name(node.func)
    return None


def _is_degree_like(node: ast.expr) -> bool:
    name = _base_name(node)
    return name is not None and bool(_DEGREE_NAME.search(name))


def _is_p_like(node: ast.expr) -> bool:
    name = _base_name(node)
    return name is not None and bool(_P_NAME.match(name))


def _module_all(tree: ast.Module) -> list[str] | None:
    """The module's literal ``__all__`` list, or ``None`` if absent/dynamic."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    try:
                        value = ast.literal_eval(node.value)
                    except ValueError:
                        return None
                    if isinstance(value, (list, tuple)) and all(
                        isinstance(item, str) for item in value
                    ):
                        return list(value)
                    return None
    return None


class LintRule:
    """Base class: subclasses set ``code`` and implement :meth:`check`."""

    code = "KP000"

    def check(
        self, tree: ast.Module, path: str, source_lines: Sequence[str]
    ) -> Iterator[Violation]:
        raise NotImplementedError

    def _violation(self, path: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


class RawFractionRule(LintRule):
    """KP001 — raw fraction construction on degree-like values.

    Flags ``a / b`` where either operand looks degree-like (``deg``,
    ``degree``, ``deg_s[v]``, ``graph.degree(v)``, ``denominator``, ``du``,
    ``dv``) and ``ceil(p * d)``-shaped calls, anywhere outside
    ``core/pvalue.py``.  Such values must be produced by
    :func:`repro.core.pvalue.fraction_value` /
    :func:`~repro.core.pvalue.fraction_threshold` so every fraction in the
    process is the same correctly-rounded double.
    """

    code = "KP001"

    def check(self, tree, path, source_lines):
        if _is_pvalue_module(path):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if _is_degree_like(node.left) or _is_degree_like(node.right):
                    yield self._violation(
                        path,
                        node,
                        "raw division on a degree-like value; use "
                        "fraction_value(numerator, denominator) from "
                        "repro.core.pvalue",
                    )
            elif isinstance(node, ast.Call):
                func_name = _base_name(node.func)
                if func_name != "ceil" or not node.args:
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mult):
                    operands = (arg.left, arg.right)
                    if any(
                        _is_degree_like(op) or _is_p_like(op) for op in operands
                    ):
                        yield self._violation(
                            path,
                            node,
                            "ceil(p * degree) does not match the library's "
                            "float fraction semantics; use "
                            "fraction_threshold(p, degree) from "
                            "repro.core.pvalue",
                        )


class FloatEqualityRule(LintRule):
    """KP002 — ``==``/``!=`` on p-value-like floats outside ``core/pvalue.py``.

    Exact-double equality on fractions is only sound because of the
    invariants documented in :mod:`repro.core.pvalue`; code that relies on
    it elsewhere must carry an explicit ``# noqa: KP002`` justification.
    """

    code = "KP002"

    def check(self, tree, path, source_lines):
        if _is_pvalue_module(path):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_p_like(left) or _is_p_like(right):
                    yield self._violation(
                        path,
                        node,
                        "exact float equality on a p-value/fraction; the "
                        "exact-double argument lives in repro.core.pvalue — "
                        "justify with a noqa or restructure",
                    )


class ParameterValidationRule(LintRule):
    """KP003 — exported functions must validate or forward ``p``/``k``.

    A module-level function listed in ``__all__`` that takes a parameter
    named exactly ``p`` or ``k`` must either call a known validator
    (``check_p``, ``_check_k``, ``fraction_threshold``,
    ``combined_thresholds``), raise ``ParameterError`` itself, or forward
    the parameter into some call (delegating validation downstream).
    """

    code = "KP003"

    _VALIDATORS = frozenset(
        {"check_p", "_check_k", "fraction_threshold", "combined_thresholds"}
    )

    def check(self, tree, path, source_lines):
        exported = _module_all(tree)
        if not exported:
            return
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in exported:
                continue
            params = [a.arg for a in node.args.args + node.args.kwonlyargs]
            watched = [name for name in params if name in ("p", "k")]
            if not watched:
                continue
            if not self._validates_or_forwards(node, watched):
                yield self._violation(
                    path,
                    node,
                    f"public function {node.name}() takes "
                    f"{'/'.join(watched)} but never validates or forwards "
                    "it; call check_p()/raise ParameterError or delegate",
                )

    def _validates_or_forwards(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef, watched: list[str]
    ) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = _base_name(node.func)
                if callee in self._VALIDATORS:
                    return True
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    if isinstance(arg, ast.Name) and arg.id in watched:
                        return True
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                name = _base_name(exc.func) if isinstance(exc, ast.Call) else _base_name(exc)
                if name == "ParameterError":
                    return True
        return False


class SnapshotMutationRule(LintRule):
    """KP004 — ``CompactAdjacency`` snapshots are frozen outside compact.py.

    Flags assignments to (or mutating method calls on) the ``indptr``,
    ``indices`` and ``labels`` attributes anywhere outside
    ``graph/compact.py``.  Snapshots are shared between algorithms; the
    sorted-prefix invariants only survive if all mutation goes through the
    snapshot's own methods.
    """

    code = "KP004"

    _ATTRS = frozenset({"indptr", "indices", "labels"})
    _MUTATORS = frozenset(
        {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}
    )

    def check(self, tree, path, source_lines):
        norm = _normalize(path)
        if norm.endswith("graph/compact.py") or norm.rsplit("/", 1)[-1] == "compact.py":
            return
        for node in ast.walk(tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._MUTATORS
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr in self._ATTRS
                ):
                    yield self._violation(
                        path,
                        node,
                        f"mutating call on snapshot attribute "
                        f".{func.value.attr}; CompactAdjacency is only "
                        "mutated inside graph/compact.py",
                    )
                continue
            for target in targets:
                attr = self._attribute_target(target)
                if attr is not None:
                    yield self._violation(
                        path,
                        node,
                        f"assignment to snapshot attribute .{attr}; "
                        "CompactAdjacency is only mutated inside "
                        "graph/compact.py",
                    )

    def _attribute_target(self, target: ast.expr) -> str | None:
        node = target
        while isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in self._ATTRS:
            return node.attr
        return None


class DunderAllDriftRule(LintRule):
    """KP005 — ``__all__`` must match the module's public surface.

    For modules declaring a literal ``__all__``: every exported name must
    be defined at module level, and every module-level public ``def`` /
    ``class`` must be exported.  (Assignments and imports may stay
    unexported — they are often conveniences, not API.)
    """

    code = "KP005"

    def check(self, tree, path, source_lines):
        exported = _module_all(tree)
        if exported is None:
            return
        defined, public_defs = self._toplevel_names(tree)
        if "*" in defined:
            return  # star import: resolution is beyond a lint pass
        for name in exported:
            if name not in defined:
                yield self._violation(
                    path,
                    tree.body[0] if tree.body else tree,
                    f"__all__ exports {name!r} but the module never "
                    "defines it",
                )
        for name, node in public_defs.items():
            if name not in exported:
                yield self._violation(
                    path,
                    node,
                    f"public {type(node).__name__.replace('Def', '').lower()}"
                    f" {name!r} is not listed in __all__",
                )

    def _toplevel_names(
        self, tree: ast.Module
    ) -> tuple[set[str], dict[str, ast.AST]]:
        defined: set[str] = set()
        public_defs: dict[str, ast.AST] = {}

        def visit_block(body: Sequence[ast.stmt]) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                    if not node.name.startswith("_"):
                        public_defs[node.name] = node
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        defined.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        for leaf in ast.walk(target):
                            if isinstance(leaf, ast.Name):
                                defined.add(leaf.id)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    if isinstance(node.target, ast.Name):
                        defined.add(node.target.id)
                elif isinstance(node, ast.If):
                    visit_block(node.body)
                    visit_block(node.orelse)
                elif isinstance(node, ast.Try):
                    visit_block(node.body)
                    for handler in node.handlers:
                        visit_block(handler.body)
                    visit_block(node.orelse)
                    visit_block(node.finalbody)

        visit_block(tree.body)
        return defined, public_defs


class HotLoopAllocationRule(LintRule):
    """KP006 — no per-iteration container construction in the peel loops.

    Inside the ``while`` loops of the O(m) peeling modules, building
    a ``set``/``dict``/``list`` (display, comprehension, or constructor
    call, plus ``sorted``) per iteration silently turns the linear scan
    into a quadratic one.  Hoist the allocation out of the loop.
    """

    code = "KP006"

    _BUILDERS = frozenset({"set", "dict", "list", "frozenset", "sorted"})

    def check(self, tree, path, source_lines):
        norm = _normalize(path)
        if not norm.endswith(HOT_LOOP_SUFFIXES):
            return
        seen: set[tuple[int, int]] = set()
        for loop in ast.walk(tree):
            if not isinstance(loop, ast.While):
                continue
            for stmt in loop.body:
                for node in ast.walk(stmt):
                    flagged = None
                    if isinstance(node, (ast.List, ast.Set, ast.Dict)):
                        flagged = type(node).__name__.lower() + " display"
                    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
                        flagged = type(node).__name__
                    elif isinstance(node, ast.Call):
                        callee = node.func
                        if (
                            isinstance(callee, ast.Name)
                            and callee.id in self._BUILDERS
                        ):
                            flagged = f"{callee.id}() call"
                    if flagged is None:
                        continue
                    location = (node.lineno, node.col_offset)
                    if location in seen:
                        continue
                    seen.add(location)
                    yield self._violation(
                        path,
                        node,
                        f"{flagged} inside a peeling while-loop; hoist the "
                        "allocation out of the O(m) hot loop",
                    )


class UnguardedMetricRule(LintRule):
    """KP007 — metric recording in the peel loops must stay off the
    per-iteration path.

    Inside ``while``/``for`` loops of the O(m) peeling modules:

    * calls to ``get_collector()`` / ``maybe_span()`` are flagged
      outright — the collector lookup belongs before the loop, the span
      around it;
    * collector calls (``obs.inc(...)``, ``collector.observe(...)``,
      ``obs.span(...)``, ``obs.record(...)``, ...) on a collector-like
      receiver are flagged unless an enclosing ``if obs is not None:``
      (or bare ``if obs:``) guard inside the loop makes the disabled
      cost a single boolean test.

    The supported pattern is loop-local plain-int accumulators flushed
    to the collector once, after the loop (see the flat drain,
    ``core/peel_flat.py::_drain``); trace events follow the same
    discipline (one guarded ``record`` per call, after the loop — see
    the ``trace.peel.fixed_k`` hook there).
    """

    code = "KP007"

    _METRIC_METHODS = frozenset({"inc", "add", "observe", "span", "record"})
    _HOISTABLE = frozenset({"get_collector", "maybe_span"})
    _COLLECTOR_NAME = re.compile(
        r"^(?:obs|collector|metrics|instr(?:umentation)?)$"
    )

    def check(self, tree, path, source_lines):
        norm = _normalize(path)
        if not norm.endswith(HOT_LOOP_SUFFIXES):
            return
        seen: set[tuple[int, int]] = set()
        for loop in ast.walk(tree):
            if not isinstance(loop, (ast.While, ast.For)):
                continue
            for stmt in [*loop.body, *loop.orelse]:
                yield from self._scan(stmt, False, path, seen)

    def _scan(
        self,
        stmt: ast.stmt,
        guarded: bool,
        path: str,
        seen: set[tuple[int, int]],
    ) -> Iterator[Violation]:
        if isinstance(stmt, ast.If):
            yield from self._flag_calls(stmt.test, guarded, path, seen)
            body_guarded = guarded or self._is_collector_guard(stmt.test)
            for child in stmt.body:
                yield from self._scan(child, body_guarded, path, seen)
            for child in stmt.orelse:
                yield from self._scan(child, guarded, path, seen)
        elif isinstance(stmt, (ast.While, ast.For)):
            header = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            yield from self._flag_calls(header, guarded, path, seen)
            for child in [*stmt.body, *stmt.orelse]:
                yield from self._scan(child, guarded, path, seen)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                yield from self._flag_calls(item.context_expr, guarded, path, seen)
            for child in stmt.body:
                yield from self._scan(child, guarded, path, seen)
        elif isinstance(stmt, ast.Try):
            for child in [*stmt.body, *stmt.orelse, *stmt.finalbody]:
                yield from self._scan(child, guarded, path, seen)
            for handler in stmt.handlers:
                for child in handler.body:
                    yield from self._scan(child, guarded, path, seen)
        else:
            yield from self._flag_calls(stmt, guarded, path, seen)

    def _flag_calls(
        self,
        node: ast.AST,
        guarded: bool,
        path: str,
        seen: set[tuple[int, int]],
    ) -> Iterator[Violation]:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            location = (call.lineno, call.col_offset)
            if location in seen:
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id in self._HOISTABLE:
                seen.add(location)
                yield self._violation(
                    path,
                    call,
                    f"{func.id}() inside a peeling loop; hoist the "
                    "collector lookup/span out of the O(m) hot loop",
                )
            elif (
                not guarded
                and isinstance(func, ast.Attribute)
                and func.attr in self._METRIC_METHODS
                and isinstance(func.value, ast.Name)
                and self._COLLECTOR_NAME.match(func.value.id)
            ):
                seen.add(location)
                yield self._violation(
                    path,
                    call,
                    f"unguarded {func.value.id}.{func.attr}() inside a "
                    "peeling loop; accumulate in a local int and flush "
                    "after the loop, or guard with `if "
                    f"{func.value.id} is not None:`",
                )

    def _is_collector_guard(self, test: ast.expr) -> bool:
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(self._is_collector_guard(v) for v in test.values)
        if isinstance(test, ast.Name):
            return bool(self._COLLECTOR_NAME.match(test.id))
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.left, ast.Name)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            return bool(self._COLLECTOR_NAME.match(test.left.id))
        return False


ALL_RULES: tuple[type[LintRule], ...] = (
    RawFractionRule,
    FloatEqualityRule,
    ParameterValidationRule,
    SnapshotMutationRule,
    DunderAllDriftRule,
    HotLoopAllocationRule,
    UnguardedMetricRule,
)


def default_rules() -> list[LintRule]:
    """Fresh instances of every shipped rule, in code order."""
    return [rule() for rule in ALL_RULES]
