"""Structured regression diffing over committed ``BENCH_*.json`` files.

``python -m repro bench diff OLD NEW [--tolerance R]`` compares two
bench payloads entry by entry.  Entries are matched on their *identity
keys* (``dataset``, ``workers``, ``spec``, ``seed``, ``threads``,
``cache``, ``cache_size``, ``min_answer_size``, ``steady_rounds`` —
whichever subset an entry carries), and within each
matched pair every known *directional metric* is compared:

* lower is better — ``min_s``, ``median_s``, ``elapsed_s``,
  ``query_wall_s``, every ``latency_ms.*`` percentile, ``stale_serves``;
* higher is better — ``qps`` (legacy), ``query_qps``, ``ops_per_s``,
  ``cache_stats.hit_rate``.

A metric **regresses** when it moves in the bad direction by more than
the relative tolerance.  A matched entry missing from the new payload
is a regression outright (coverage must not silently shrink).  Metrics
present on only one side are reported but never regress — that is how
schema additions like ``latency_method`` stay diffable against
pre-provenance baselines.

The module is pure data-in/data-out (:func:`diff_payloads` returns a
:class:`BenchDiff`); file loading and rendering live in thin wrappers so
tests can exercise the comparison logic without touching disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ParameterError

__all__ = [
    "DEFAULT_TOLERANCE",
    "MetricDelta",
    "EntryDiff",
    "BenchDiff",
    "diff_payloads",
    "diff_files",
    "render_diff",
]

#: Default relative tolerance: changes within +-25% are noise on the
#: small synthetic workloads the committed baselines use.
DEFAULT_TOLERANCE = 0.25

#: Entry fields that identify *what* was measured (not how fast).
_IDENTITY_KEYS = (
    "dataset",
    "workers",
    "spec",
    "workload_fingerprint",
    "seed",
    "threads",
    "batch",
    "cache",
    "cache_size",
    "min_answer_size",
    # Measurement methodology: a query_qps from a different steady-phase
    # round count is a different experiment, not a regression signal.
    "steady_rounds",
)

#: Dotted metric path -> direction ("lower" / "higher" is better).
_DIRECTIONS: dict[str, str] = {
    "min_s": "lower",
    "median_s": "lower",
    "elapsed_s": "lower",
    "latency_ms.p50": "lower",
    "latency_ms.p95": "lower",
    "latency_ms.p99": "lower",
    "latency_ms.max": "lower",
    "stale_serves": "lower",
    "query_wall_s": "lower",
    "qps": "higher",
    "query_qps": "higher",
    "ops_per_s": "higher",
    "cache_stats.hit_rate": "higher",
}


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across the two payloads."""

    name: str
    old: float
    new: float
    direction: str
    regressed: bool
    improved: bool

    @property
    def relative_change(self) -> float:
        if self.old == 0.0:
            return 0.0 if self.new == 0.0 else float("inf")
        return (self.new - self.old) / abs(self.old)


@dataclass(frozen=True)
class EntryDiff:
    """One matched (or unmatched) bench entry."""

    identity: str
    status: str  # "matched" | "missing_in_new" | "missing_in_old"
    deltas: tuple[MetricDelta, ...] = ()

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.regressed)


@dataclass(frozen=True)
class BenchDiff:
    """The full comparison: entries, tolerance, provenance labels."""

    entries: tuple[EntryDiff, ...]
    tolerance: float
    old_label: str
    new_label: str
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def regressed(self) -> bool:
        return any(
            entry.status == "missing_in_new" or entry.regressions
            for entry in self.entries
        )


def _identity(entry: Mapping[str, Any]) -> str:
    parts = [
        f"{key}={entry[key]}" for key in _IDENTITY_KEYS if key in entry
    ]
    return " ".join(parts) if parts else "<anonymous>"


def _flatten_metrics(
    entry: Mapping[str, Any], prefix: str = ""
) -> dict[str, float]:
    flat: dict[str, float] = {}
    for key, value in entry.items():
        if key in _IDENTITY_KEYS:
            continue
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(_flatten_metrics(value, f"{path}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[path] = float(value)
    return flat


def _provenance_label(payload: Mapping[str, Any]) -> str:
    prov = payload.get("provenance")
    if not isinstance(prov, Mapping):
        return "no provenance recorded"
    return (
        f"commit {prov.get('git_commit', '?')} at "
        f"{prov.get('recorded_at', '?')} "
        f"(python {prov.get('python', '?')}, {prov.get('cpus', '?')} cpus)"
    )


def _entry_lists(payload: Mapping[str, Any]) -> list[Mapping[str, Any]]:
    """Every comparable entry in a bench payload.

    ``entries`` plus ``audits`` when present; a payload that is itself a
    bare list of entries is accepted too.
    """
    if isinstance(payload, list):
        return [e for e in payload if isinstance(e, Mapping)]
    collected: list[Mapping[str, Any]] = []
    for key in ("entries", "audits"):
        block = payload.get(key)
        if isinstance(block, list):
            collected.extend(e for e in block if isinstance(e, Mapping))
    return collected


def _compare_entry(
    identity: str,
    old_entry: Mapping[str, Any],
    new_entry: Mapping[str, Any],
    tolerance: float,
) -> EntryDiff:
    old_metrics = _flatten_metrics(old_entry)
    new_metrics = _flatten_metrics(new_entry)
    deltas: list[MetricDelta] = []
    for name in sorted(set(old_metrics) & set(new_metrics)):
        direction = _DIRECTIONS.get(name, "")
        old_value = old_metrics[name]
        new_value = new_metrics[name]
        regressed = False
        improved = False
        if direction:
            if old_value == 0.0:
                bad = new_value > 0.0 if direction == "lower" else False
                good = new_value > 0.0 if direction == "higher" else False
            else:
                rel = (new_value - old_value) / abs(old_value)
                bad = rel > tolerance if direction == "lower" else rel < -tolerance
                good = rel < -tolerance if direction == "lower" else rel > tolerance
            regressed = bad
            improved = good
        deltas.append(
            MetricDelta(
                name=name,
                old=old_value,
                new=new_value,
                direction=direction,
                regressed=regressed,
                improved=improved,
            )
        )
    return EntryDiff(identity=identity, status="matched", deltas=tuple(deltas))


def diff_payloads(
    old_payload: Mapping[str, Any],
    new_payload: Mapping[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchDiff:
    """Compare two parsed bench payloads; see the module docstring."""
    if tolerance < 0:
        raise ParameterError(f"tolerance must be >= 0, got {tolerance}")
    old_entries = {_identity(e): e for e in _entry_lists(old_payload)}
    new_entries = {_identity(e): e for e in _entry_lists(new_payload)}
    diffs: list[EntryDiff] = []
    for identity, old_entry in old_entries.items():
        new_entry = new_entries.get(identity)
        if new_entry is None:
            diffs.append(EntryDiff(identity=identity, status="missing_in_new"))
        else:
            diffs.append(
                _compare_entry(identity, old_entry, new_entry, tolerance)
            )
    for identity in new_entries:
        if identity not in old_entries:
            diffs.append(EntryDiff(identity=identity, status="missing_in_old"))
    notes: list[str] = []
    old_method = old_payload.get("latency_method") if isinstance(
        old_payload, Mapping
    ) else None
    new_method = new_payload.get("latency_method") if isinstance(
        new_payload, Mapping
    ) else None
    if old_method != new_method:
        notes.append(
            f"latency methods differ: old={old_method!r} new={new_method!r} "
            "(tail percentiles are not directly comparable)"
        )
    return BenchDiff(
        entries=tuple(diffs),
        tolerance=tolerance,
        old_label=_provenance_label(old_payload)
        if isinstance(old_payload, Mapping)
        else "no provenance recorded",
        new_label=_provenance_label(new_payload)
        if isinstance(new_payload, Mapping)
        else "no provenance recorded",
        notes=tuple(notes),
    )


def diff_files(
    old_path: str | Path,
    new_path: str | Path,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchDiff:
    """Load two bench JSON files and compare them."""
    payloads = []
    for path in (old_path, new_path):
        try:
            payloads.append(
                json.loads(Path(path).read_text(encoding="utf-8"))
            )
        except FileNotFoundError:
            raise ParameterError(f"bench file not found: {path}") from None
        except json.JSONDecodeError as error:
            raise ParameterError(
                f"bench file is not valid JSON: {path} ({error})"
            ) from None
    return diff_payloads(payloads[0], payloads[1], tolerance)


def render_diff(diff: BenchDiff) -> str:
    """Human-readable regression report (one line per changed metric)."""
    lines = [
        f"old: {diff.old_label}",
        f"new: {diff.new_label}",
        f"tolerance: +-{diff.tolerance * 100:.0f}% relative",
    ]
    for note in diff.notes:
        lines.append(f"note: {note}")
    lines.append("")
    regressions = 0
    for entry in diff.entries:
        if entry.status == "missing_in_new":
            regressions += 1
            lines.append(f"REGRESSION  [{entry.identity}] missing from NEW")
            continue
        if entry.status == "missing_in_old":
            lines.append(f"new entry   [{entry.identity}] (not in OLD)")
            continue
        shown: list[str] = []
        for delta in entry.deltas:
            if not delta.direction:
                continue
            rel = delta.relative_change
            rel_text = (
                f"{rel * 100:+.1f}%" if rel != float("inf") else "+inf%"
            )
            if delta.regressed:
                regressions += 1
                shown.append(
                    f"  REGRESSION  {delta.name}: {delta.old:g} -> "
                    f"{delta.new:g} ({rel_text}, {delta.direction} is better)"
                )
            elif delta.improved:
                shown.append(
                    f"  improved    {delta.name}: {delta.old:g} -> "
                    f"{delta.new:g} ({rel_text})"
                )
        status = "REGRESSED" if any(
            line.lstrip().startswith("REGRESSION") for line in shown
        ) else "ok"
        lines.append(f"[{entry.identity}] {status}")
        lines.extend(shown)
    lines.append("")
    lines.append(
        f"{regressions} regression(s) across {len(diff.entries)} entries"
        if regressions
        else f"no regressions across {len(diff.entries)} entries"
    )
    return "\n".join(lines)
