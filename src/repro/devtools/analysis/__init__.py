"""Whole-program static analysis for the concurrency/durability rules.

Built on the per-file lint framework (:mod:`repro.devtools.lint`), this
package adds the cross-module view those rules need: a module-resolving
call graph (:mod:`.callgraph`), effect inference classifying each
function as reading/mutating index, cache, journal or filesystem state
(:mod:`.effects`), and a lock-context propagator (:mod:`.contexts`).
The rules themselves (KP008-KP010, KP012) live in :mod:`.rules`.

Entry point: :func:`analyze_files` — build the program once, run every
rule, apply the same ``# noqa`` suppression contract as the per-file
lint pass.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.devtools.analysis.callgraph import Program, build_program
from repro.devtools.analysis.contexts import ContextMap, compute_contexts
from repro.devtools.analysis.effects import Effect, EffectMap, compute_effects
from repro.devtools.analysis.rules import (
    ALL_ANALYSIS_RULES,
    AnalysisRule,
    analyze_program,
    default_analysis_rules,
)
from repro.devtools.violations import Violation

__all__ = [
    "Program",
    "build_program",
    "ContextMap",
    "compute_contexts",
    "Effect",
    "EffectMap",
    "compute_effects",
    "AnalysisRule",
    "ALL_ANALYSIS_RULES",
    "analyze_program",
    "default_analysis_rules",
    "analyze_files",
]


def analyze_files(
    paths: Iterable[str | os.PathLike[str]],
    rules: Iterable[AnalysisRule] | None = None,
) -> list[Violation]:
    """Run KP008-KP010 and KP012 over ``paths`` (already-expanded ``.py`` files).

    ``# noqa`` comments suppress analysis findings exactly as they do
    per-file lint findings.
    """
    from repro.devtools.lint import violation_suppressed

    program = build_program(paths)
    lines_by_path = {
        module.path: module.source_lines for module in program.modules.values()
    }
    found = analyze_program(program, rules)
    return [
        violation
        for violation in found
        if not violation_suppressed(violation, lines_by_path.get(violation.path, []))
    ]
