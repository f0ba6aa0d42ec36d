"""Lint driver: walk files, run the KP rules, honour ``# noqa`` comments.

Programmatic API::

    from repro.devtools.lint import lint_source, lint_paths

    violations = lint_source(code, path="snippet.py")
    violations = lint_paths(["src"])

CLI (wired as ``python -m repro lint [PATH ...]``)::

    python -m repro lint src                     # exit 0 iff clean
    python -m repro lint --explain               # list the rule codes
    python -m repro lint --analysis src          # + whole-program KP008-KP010, KP012
    python -m repro lint --format sarif src      # machine-readable report
    python -m repro lint --select KP008,KP012 src

Suppression: append ``# noqa: KP001`` (or a comma-separated list, or a
bare ``# noqa`` for every rule) to the offending line, ideally with a
short justification after it.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import IO, Iterable, Sequence

from repro.devtools.rules import LintRule, default_rules
from repro.devtools.violations import PARSE_ERROR_CODE, RULE_CODES, Violation

__all__ = [
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "violation_suppressed",
    "filter_codes",
    "explain",
    "run",
]

_NOQA = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)


def _suppressed_codes(line: str) -> frozenset[str] | None:
    """Codes silenced on ``line``: a set, ``frozenset()`` for *all*, or
    ``None`` when the line carries no ``noqa`` at all."""
    match = _NOQA.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return frozenset()  # bare "# noqa": suppress everything
    return frozenset(code.strip().upper() for code in codes.split(","))


def _is_suppressed(violation: Violation, source_lines: Sequence[str]) -> bool:
    if not 1 <= violation.line <= len(source_lines):
        return False
    codes = _suppressed_codes(source_lines[violation.line - 1])
    if codes is None:
        return False
    return not codes or violation.code in codes


def violation_suppressed(
    violation: Violation, source_lines: Sequence[str]
) -> bool:
    """Public suppression check, shared with the whole-program analysis
    layer so ``# noqa`` means the same thing for KP001 and KP012."""
    return _is_suppressed(violation, source_lines)


def filter_codes(
    violations: Iterable[Violation],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Violation]:
    """Apply ``--select`` / ``--ignore`` code filters.

    ``select`` keeps only the listed codes; ``ignore`` then drops its
    codes.  Parse errors (KP000) obey the same filters as everything
    else, so ``--select KP008`` really means "only KP008".
    """
    kept = list(violations)
    if select is not None:
        wanted = {code.strip().upper() for code in select}
        kept = [v for v in kept if v.code in wanted]
    if ignore is not None:
        dropped = {code.strip().upper() for code in ignore}
        kept = [v for v in kept if v.code not in dropped]
    return kept


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Iterable[LintRule] | None = None,
) -> list[Violation]:
    """Lint one source string; returns violations sorted by location."""
    source_lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Violation(
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                code=PARSE_ERROR_CODE,
                message=f"syntax error: {error.msg}",
            )
        ]
    active_rules = default_rules() if rules is None else list(rules)
    violations: list[Violation] = []
    for rule in active_rules:
        for violation in rule.check(tree, path, source_lines):
            if not _is_suppressed(violation, source_lines):
                violations.append(violation)
    violations.sort(key=lambda v: (v.line, v.col, v.code))
    return violations


def lint_file(
    path: str | os.PathLike[str], rules: Iterable[LintRule] | None = None
) -> list[Violation]:
    """Lint one file on disk."""
    text_path = os.fspath(path)
    with open(text_path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=text_path, rules=rules)


def iter_python_files(paths: Iterable[str | os.PathLike[str]]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Missing paths raise ``FileNotFoundError`` — a linter that silently
    skips a mistyped path reports a misleading "clean".
    """
    found: list[str] = []
    for entry in paths:
        entry = os.fspath(entry)
        if os.path.isfile(entry):
            found.append(entry)
        elif os.path.isdir(entry):
            for dirpath, dirnames, filenames in os.walk(entry):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        found.append(os.path.join(dirpath, filename))
        else:
            raise FileNotFoundError(f"no such file or directory: {entry!r}")
    return found


def lint_paths(
    paths: Iterable[str | os.PathLike[str]],
    rules: Iterable[LintRule] | None = None,
) -> list[Violation]:
    """Lint every ``.py`` file under ``paths`` (files and/or directories)."""
    violations: list[Violation] = []
    for file_path in iter_python_files(paths):
        violations.extend(lint_file(file_path, rules=rules))
    return violations


def explain(out: IO[str] = sys.stdout) -> None:
    """Print the rule catalogue (code + one-line summary)."""
    for code, summary in sorted(RULE_CODES.items()):
        out.write(f"{code}  {summary}\n")


def run(
    paths: Sequence[str | os.PathLike[str]],
    out: IO[str] = sys.stdout,
    *,
    analysis: bool = False,
    fmt: str = "text",
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> int:
    """Lint ``paths`` and print findings; returns a process exit code.

    The tree is walked exactly once: the same file list feeds the
    per-file rules, the (optional) whole-program analysis, and the
    checked-file count in the summary line.

    ``analysis=True`` additionally runs the KP008-KP010/KP012 whole-program
    rules; ``fmt`` selects ``text`` (default), ``json``, or ``sarif``
    output; ``select``/``ignore`` filter by rule code.
    """
    try:
        files = iter_python_files(paths)
    except FileNotFoundError as error:
        out.write(f"error: {error}\n")
        return 2
    violations: list[Violation] = []
    for file_path in files:
        violations.extend(lint_file(file_path))
    if analysis:
        from repro.devtools.analysis import analyze_files

        violations.extend(analyze_files(files))
    violations = filter_codes(violations, select=select, ignore=ignore)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))

    from repro.devtools.reporting import render_json, render_sarif, render_text

    if fmt == "json":
        out.write(render_json(violations, len(files)) + "\n")
    elif fmt == "sarif":
        out.write(render_sarif(violations) + "\n")
    elif fmt == "text":
        render_text(violations, len(files), out)
    else:
        out.write(f"error: unknown format {fmt!r}\n")
        return 2
    return 1 if violations else 0
