"""Module-resolving call graph over a set of Python source files.

This is the foundation of the whole-program analysis layer
(:mod:`repro.devtools.analysis`): it parses every file once, derives
dotted module names from the package structure on disk, builds per-module
symbol tables (imports, top-level defs, classes), infers the classes of
``self.<attr>`` attributes from constructor calls and annotated
parameters, and resolves each call expression to the set of function
qualnames it may target.

Resolution is deliberately heuristic — Python cannot be resolved
statically in general — but it is *under-approximate*: a call that cannot
be resolved contributes no edges (and therefore no effects), so the
downstream rules (KP008-KP010, KP012) err toward silence, never toward noise.
The supported forms, in priority order:

* ``f(...)`` where ``f`` is a nested/local def, a module-level def, an
  imported name, or a class (resolved to its ``__init__``);
* ``self.m(...)`` — a method of the enclosing class;
* ``self.attr.m(...)`` / ``x.m(...)`` where the attribute or local has a
  known class (from ``self.attr = Cls(...)``, an annotated parameter, an
  ``AnnAssign``, or an annotated classmethod constructor);
* ``mod.f(...)`` where ``mod`` is an imported module in the program;
* ``Cls.m(...)`` for class/static methods;
* as a last resort, a *unique-method* fallback: an attribute call whose
  method name is defined by exactly one analyzed class (and is not a
  common builtin-container/file method name) resolves to that method.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "Program",
    "build_program",
    "module_name_for_path",
    "base_name",
]

#: Method names too generic to resolve by name alone: builtin container
#: and file-object methods that user classes also happen to define.
_AMBIENT_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "sort",
        "reverse", "add", "discard", "update", "get", "keys", "values",
        "items", "setdefault", "popitem", "copy", "count", "index",
        "write", "read", "readline", "readlines", "flush", "close",
        "join", "split", "strip", "format", "encode", "decode", "open",
        "save", "load", "query", "snapshot", "check", "run", "main",
    }
)


def base_name(node: ast.expr) -> str | None:
    """The identifier an expression hangs off: ``a.b[0].c`` -> ``c``,
    ``self._journal.append`` -> ``append`` for the func, and the helper
    is applied to ``func.value`` to get the receiver name ``_journal``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        return base_name(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return base_name(node.func)
    return None


def _statement_blocks(node: ast.stmt) -> Iterable[Sequence[ast.stmt]]:
    """Every nested statement list of a compound statement."""
    for _name, value in ast.iter_fields(node):
        if isinstance(value, list):
            if value and isinstance(value[0], ast.stmt):
                yield value
            else:
                for item in value:
                    if isinstance(item, (ast.excepthandler, ast.match_case)):
                        yield item.body


def module_name_for_path(path: str | os.PathLike[str]) -> str:
    """Dotted module name of ``path``, derived from ``__init__.py`` files.

    Climbs parent directories while they are packages, so
    ``src/repro/core/maintenance.py`` -> ``repro.core.maintenance`` and a
    loose file outside any package is just its stem.
    """
    absolute = os.path.abspath(os.fspath(path))
    directory, filename = os.path.split(absolute)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: list[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:
            break
        parts.insert(0, package)
    return ".".join(parts) if parts else stem


@dataclass(frozen=True)
class CallSite:
    """One call expression and the function qualnames it may target."""

    node: ast.Call
    lineno: int
    col: int
    raw: str
    targets: tuple[str, ...]


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    qualname: str
    module: str
    name: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_nested: bool = False
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One analyzed class: its methods and inferred attribute classes."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file with its module-level symbol table."""

    name: str
    path: str
    tree: ast.Module
    source_lines: list[str]
    is_package: bool
    #: local name -> dotted target (module, class, or function path).
    symbols: dict[str, str] = field(default_factory=dict)


class Program:
    """The parsed whole program: modules, classes, functions, call edges."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: method name -> class qualnames defining it (for the fallback).
        self._methods_by_name: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def callers(self) -> dict[str, list[tuple[FunctionInfo, CallSite]]]:
        """Reverse call edges: callee qualname -> [(caller, site), ...]."""
        reverse: dict[str, list[tuple[FunctionInfo, CallSite]]] = {}
        for function in self.functions.values():
            for site in function.calls:
                for target in site.targets:
                    reverse.setdefault(target, []).append((function, site))
        return reverse

    def resolve_symbol(self, module: ModuleInfo, name: str) -> str | None:
        return module.symbols.get(name)

    # ------------------------------------------------------------------
    # pass 1: symbol tables
    # ------------------------------------------------------------------
    def _add_module(self, path: str, source: str) -> ModuleInfo | None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return None  # the lint driver reports KP000 for this file
        name = module_name_for_path(path)
        info = ModuleInfo(
            name=name,
            path=path,
            tree=tree,
            source_lines=source.splitlines(),
            is_package=os.path.basename(path) == "__init__.py",
        )
        self.modules[name] = info
        self._collect_symbols(info)
        return info

    def _collect_symbols(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.symbols[bound] = target
            elif isinstance(node, ast.ImportFrom):
                origin = self._import_base(module, node)
                if origin is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    module.symbols[bound] = f"{origin}.{alias.name}" if origin else alias.name
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                module.symbols[node.name] = f"{module.name}.{node.name}"

    def _import_base(self, module: ModuleInfo, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module or None
        parts = module.name.split(".")
        if not module.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop:
            if drop >= len(parts):
                return None
            parts = parts[: len(parts) - drop]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None

    # ------------------------------------------------------------------
    # pass 2: functions and classes
    # ------------------------------------------------------------------
    def _register_definitions(self, module: ModuleInfo) -> None:
        def visit(body: Sequence[ast.stmt], prefix: str, class_name: str | None,
                  nested: bool) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{node.name}"
                    self.functions[qualname] = FunctionInfo(
                        qualname=qualname,
                        module=module.name,
                        name=node.name,
                        class_name=class_name,
                        node=node,
                        is_nested=nested,
                    )
                    if class_name is not None and not nested:
                        cls = self.classes[f"{module.name}.{class_name}"]
                        cls.methods[node.name] = qualname
                        self._methods_by_name.setdefault(node.name, []).append(
                            cls.qualname
                        )
                    visit(node.body, qualname, class_name, True)
                elif isinstance(node, ast.ClassDef):
                    qualname = f"{prefix}.{node.name}"
                    if not nested and class_name is None:
                        self.classes[qualname] = ClassInfo(
                            qualname=qualname,
                            module=module.name,
                            name=node.name,
                            node=node,
                        )
                        visit(node.body, qualname, node.name, False)
                    else:
                        visit(node.body, qualname, class_name, nested)
                else:
                    # Descend into compound statements (if/for/while/
                    # with/try/match) so defs nested inside them are
                    # still registered.
                    for block in _statement_blocks(node):
                        visit(block, prefix, class_name, nested)
        visit(module.tree.body, module.name, None, False)

    # ------------------------------------------------------------------
    # pass 3: attribute types
    # ------------------------------------------------------------------
    def _annotation_class(self, module: ModuleInfo, node: ast.expr | None) -> str | None:
        """The class qualname an annotation names, if it is one we parsed."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Name):
            dotted = self.resolve_symbol(module, node.id)
            if dotted in self.classes:
                return dotted
            local = f"{module.name}.{node.id}"
            return local if local in self.classes else None
        if isinstance(node, ast.Attribute):
            dotted = self._dotted(module, node)
            return dotted if dotted in self.classes else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # ``T | None`` (either side may be the None constant).
            left = self._annotation_class(module, node.left)
            return left or self._annotation_class(module, node.right)
        if isinstance(node, ast.Subscript):
            # Optional[T] — anything else (list[T], dict[...]) is a
            # container, not the class itself.
            if isinstance(node.value, ast.Name) and node.value.id == "Optional":
                return self._annotation_class(module, node.slice)
        return None

    def _dotted(self, module: ModuleInfo, node: ast.expr) -> str | None:
        """Flatten ``a.b.c`` resolving the base through the symbol table."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.resolve_symbol(module, node.id) or node.id
        return ".".join([root, *parts])

    def _infer_attr_types(self, module: ModuleInfo) -> None:
        for cls in [c for c in self.classes.values() if c.module == module.name]:
            for stmt in cls.node.body:
                if isinstance(stmt, ast.AnnAssign) and self._is_self_attr(stmt.target):
                    inferred = self._annotation_class(module, stmt.annotation)
                    if inferred:
                        cls.attr_types.setdefault(stmt.target.attr, inferred)  # type: ignore[union-attr]
            for method_name, qualname in cls.methods.items():
                function = self.functions[qualname]
                annotations = {
                    arg.arg: arg.annotation
                    for arg in [*function.node.args.args, *function.node.args.kwonlyargs]
                }
                for node in ast.walk(function.node):
                    target: ast.expr | None = None
                    value: ast.expr | None = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                        if self._is_self_attr(target):
                            inferred = self._annotation_class(module, node.annotation)
                            if inferred:
                                cls.attr_types.setdefault(target.attr, inferred)  # type: ignore[union-attr]
                                continue
                    if target is None or not self._is_self_attr(target):
                        continue
                    inferred = self._value_class(module, cls, annotations, value)
                    if inferred:
                        cls.attr_types.setdefault(target.attr, inferred)  # type: ignore[union-attr]

    @staticmethod
    def _is_self_attr(target: ast.expr | None) -> bool:
        return (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        )

    def _value_class(
        self,
        module: ModuleInfo,
        cls: ClassInfo | None,
        annotations: dict[str, ast.expr | None],
        value: ast.expr | None,
    ) -> str | None:
        """The class an expression evaluates to, when that is inferable."""
        if value is None:
            return None
        if isinstance(value, ast.IfExp):
            return self._value_class(
                module, cls, annotations, value.body
            ) or self._value_class(module, cls, annotations, value.orelse)
        if isinstance(value, ast.Name):
            if value.id in annotations:
                return self._annotation_class(module, annotations[value.id])
            return None
        if isinstance(value, ast.Attribute) and self._is_self_attr(value):
            if cls is not None:
                return cls.attr_types.get(value.attr)
            return None
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                dotted = self.resolve_symbol(module, func.id)
                if dotted in self.classes:
                    return dotted
            elif isinstance(func, ast.Attribute):
                dotted = self._dotted(module, func)
                if dotted is not None:
                    owner = dotted.rsplit(".", 1)[0]
                    if owner in self.classes:
                        method = self.classes[owner].methods.get(func.attr)
                        if method is not None:
                            returns = self.functions[method].node.returns
                            inferred = self._annotation_class(module, returns)
                            if inferred:
                                return inferred
                        # Classmethod constructor convention: Cls.build(...)
                        # with no resolvable return annotation is assumed to
                        # return Cls.
                        return owner
        return None

    # ------------------------------------------------------------------
    # pass 4: call resolution
    # ------------------------------------------------------------------
    def _resolve_calls(self, module: ModuleInfo) -> None:
        for function in [
            f for f in self.functions.values() if f.module == module.name
        ]:
            cls = (
                self.classes.get(f"{module.name}.{function.class_name}")
                if function.class_name
                else None
            )
            local_defs = {
                child.name: f"{function.qualname}.{child.name}"
                for child in ast.walk(function.node)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child is not function.node
            }
            annotations = {
                arg.arg: arg.annotation
                for arg in [*function.node.args.args, *function.node.args.kwonlyargs]
            }
            local_types = self._local_types(module, cls, annotations, function)
            for node in self._own_nodes(function.node):
                if isinstance(node, ast.Call):
                    targets = self._resolve_call(
                        module, cls, local_defs, annotations, local_types, node
                    )
                    function.calls.append(
                        CallSite(
                            node=node,
                            lineno=node.lineno,
                            col=node.col_offset,
                            raw=self._raw(node.func),
                            targets=targets,
                        )
                    )

    @staticmethod
    def _own_nodes(function: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterable[ast.AST]:
        """Walk a function body without descending into nested defs."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(function))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _raw(node: ast.expr) -> str:
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse failure is cosmetic
            return "<expr>"

    def _local_types(
        self,
        module: ModuleInfo,
        cls: ClassInfo | None,
        annotations: dict[str, ast.expr | None],
        function: FunctionInfo,
    ) -> dict[str, str]:
        """name -> class qualname for annotated params and simple assigns."""
        types: dict[str, str] = {}
        for name, annotation in annotations.items():
            inferred = self._annotation_class(module, annotation)
            if inferred:
                types[name] = inferred
        for node in self._own_nodes(function.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self._value_class(module, cls, annotations, node.value)
                    if inferred:
                        types.setdefault(target.id, inferred)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        inferred = self._value_class(
                            module, cls, annotations, item.context_expr
                        )
                        if inferred:
                            types.setdefault(item.optional_vars.id, inferred)
        return types

    def _resolve_call(
        self,
        module: ModuleInfo,
        cls: ClassInfo | None,
        local_defs: dict[str, str],
        annotations: dict[str, ast.expr | None],
        local_types: dict[str, str],
        call: ast.Call,
    ) -> tuple[str, ...]:
        func = call.func
        if isinstance(func, ast.Name):
            dotted = local_defs.get(func.id) or self.resolve_symbol(module, func.id)
            return self._as_targets(dotted)
        if not isinstance(func, ast.Attribute):
            return ()
        method = func.attr
        receiver = func.value
        # self.m() — a method of the enclosing class.
        if isinstance(receiver, ast.Name) and receiver.id == "self" and cls is not None:
            target = cls.methods.get(method)
            if target is not None:
                return (target,)
        # Receiver with an inferable class: self.attr.m(), local.m().
        receiver_class = self._receiver_class(
            module, cls, annotations, local_types, receiver
        )
        if receiver_class is not None:
            target = self.classes[receiver_class].methods.get(method)
            return (target,) if target is not None else ()
        # mod.f() for an analyzed module, or Cls.m() class/static call.
        if isinstance(receiver, (ast.Name, ast.Attribute)):
            dotted = (
                self.resolve_symbol(module, receiver.id)
                if isinstance(receiver, ast.Name)
                else self._dotted(module, receiver)
            )
            if dotted is not None:
                if dotted in self.modules:
                    return self._as_targets(f"{dotted}.{method}")
                if dotted in self.classes:
                    target = self.classes[dotted].methods.get(method)
                    return (target,) if target is not None else ()
        # Unique-method fallback.
        if method not in _AMBIENT_METHODS:
            owners = self._methods_by_name.get(method, [])
            if len(owners) == 1:
                return (self.classes[owners[0]].methods[method],)
        return ()

    def _receiver_class(
        self,
        module: ModuleInfo,
        cls: ClassInfo | None,
        annotations: dict[str, ast.expr | None],
        local_types: dict[str, str],
        receiver: ast.expr,
    ) -> str | None:
        if isinstance(receiver, ast.Name):
            inferred = local_types.get(receiver.id)
            if inferred in self.classes:
                return inferred
            return None
        if isinstance(receiver, ast.Attribute) and self._is_self_attr(receiver):
            if cls is not None:
                inferred = cls.attr_types.get(receiver.attr)
                if inferred in self.classes:
                    return inferred
        return None

    def _as_targets(self, dotted: str | None) -> tuple[str, ...]:
        if dotted is None:
            return ()
        if dotted in self.functions:
            return (dotted,)
        if dotted in self.classes:
            init = self.classes[dotted].methods.get("__init__")
            return (init,) if init is not None else ()
        return ()


def build_program(paths: Iterable[str | os.PathLike[str]]) -> Program:
    """Parse ``paths`` (files) into a resolved :class:`Program`.

    Files that fail to parse are skipped here — the per-file lint pass
    reports them as ``KP000`` — so the analysis sees a best-effort view
    of the rest of the program.
    """
    program = Program()
    modules: list[ModuleInfo] = []
    for path in paths:
        text_path = os.fspath(path)
        with open(text_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        module = program._add_module(text_path, source)
        if module is not None:
            modules.append(module)
    for module in modules:
        program._register_definitions(module)
    for module in modules:
        program._infer_attr_types(module)
    for module in modules:
        program._resolve_calls(module)
    return program
