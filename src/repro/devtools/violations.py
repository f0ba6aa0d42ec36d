"""Violation model shared by the lint rules and the lint driver.

Each rule owns a stable ``KPxxx`` code.  Codes are part of the public
contract: they appear in lint output, in ``# noqa: KPxxx`` suppression
comments, and in :data:`RULE_CODES`, which the documentation and the CLI
``--explain`` listing are generated from.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Violation", "RULE_CODES", "PARSE_ERROR_CODE", "HOT_LOOP_SUFFIXES"]

#: Pseudo-code reported when a file cannot be parsed at all.
PARSE_ERROR_CODE = "KP000"

#: The peeling modules whose loops KP006/KP007 police.
HOT_LOOP_SUFFIXES = (
    "kcore/compute.py",
    "core/kpcore.py",
    "core/decomposition.py",
    "core/peel_flat.py",
)

#: Stable code -> one-line summary of every rule the linter ships.
RULE_CODES: dict[str, str] = {
    PARSE_ERROR_CODE: "file could not be parsed as Python",
    "KP001": (
        "raw fraction arithmetic on degree-like values outside core/pvalue.py; "
        "route through fraction_value()/fraction_threshold()"
    ),
    "KP002": (
        "float ==/!= comparison on p-values or fractions outside "
        "core/pvalue.py; exact-double identities belong in one module"
    ),
    "KP003": (
        "public API function takes a `p` or `k` parameter but neither "
        "validates it (check_p / ParameterError) nor forwards it"
    ),
    "KP004": (
        "mutation of a CompactAdjacency snapshot attribute "
        "(indptr/indices/labels) outside graph/compact.py"
    ),
    "KP005": (
        "__all__ drift: exported name undefined, or public module-level "
        "def/class missing from __all__"
    ),
    "KP006": (
        "set/dict/list construction inside a peeling hot loop "
        f"({', '.join(HOT_LOOP_SUFFIXES)})"
    ),
    "KP007": (
        "per-iteration metric or trace recording inside a peeling hot "
        "loop: get_collector()/maybe_span() must be hoisted, and "
        "collector calls (inc/add/observe/span/record) guarded or "
        "accumulated locally and flushed after the loop"
    ),
    # Whole-program rules (require ``lint --analysis``).
    "KP008": (
        "lock discipline: call paths mutating server-held index state "
        "must be dominated by write_locked(), and version reads + cache "
        "fills must share a single read_locked() scope"
    ),
    "KP009": (
        "version-bump pairing: an A_k mutation in core/maintenance.py "
        "without a bump_version() call in the same function leaves the "
        "cache-invalidation oracle stale"
    ),
    "KP010": (
        "durable-write protocol: journal append must precede the "
        "in-memory mutation it logs, and persisted files must use the "
        "temp-file + fsync + os.replace idiom, never raw open(path, 'w')"
    ),
    "KP011": (
        "process-boundary safety: lambdas, closures, locks, or open "
        "handles must not cross into a worker pool"
    ),
    "KP012": (
        "no blocking I/O (open/fsync/sleep/journal writes) while holding "
        "a lock scope that query threads share"
    ),
}


@dataclass(frozen=True)
class Violation:
    """One lint finding, pointing at a source location.

    ``line``/``col`` follow the Python AST convention (1-based line,
    0-based column).
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` — the CLI output format."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
