"""One entry point per paper experiment (Table II, Figs. 6-16).

Each ``fig*_rows`` / ``table2_rows`` function returns ``(headers, rows)``
ready for :func:`repro.bench.reporting.print_table`; the ``benchmarks/``
suite wraps them in pytest-benchmark cases and prints the same rows the
paper plots.  Keeping the logic here means examples, tests, and benchmarks
all regenerate identical numbers.

Where a paper parameter does not fit the scaled stand-ins (e.g. a 15-core
on the scaled DBLP-3), the function degrades the parameter and records the
substitution in the returned rows, never silently.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.compact import CompactAdjacency
from repro.graph.metrics import summarize
from repro.graph.views import (
    ordered_edges, sample_edges, sample_ratios, sample_vertices,
)
from repro.kcore.compute import k_core_vertices_compact
from repro.kcore.decomposition import core_decomposition, core_numbers_compact
from repro.core.decomposition import kp_core_decomposition
from repro.core.index import KPIndex
from repro.core.kpcore import kp_core_vertices_compact
from repro.core.maintenance import KPIndexMaintainer
from repro.analysis.casestudy import case_study
from repro.analysis.comparison import compare_cores
from repro.analysis.engagement import (
    engagement_by_core_number,
    engagement_by_kp_stratum,
    engagement_by_onion_layer,
)
from repro.bench.timing import Timing, measure
from repro.obs import names as metric_names
from repro.obs.instrumentation import collection_active
from repro.obs.snapshot import MetricsSnapshot
from repro.datasets import load_all, simulate_checkins, spec
from repro.datasets.dblp import default_corpus

__all__ = [
    "DEFAULT_K",
    "DEFAULT_P",
    "table2_rows",
    "fig6_rows",
    "fig7_rows",
    "fig8_rows",
    "fig9_reports",
    "fig10_series",
    "fig11_rows",
    "fig12_rows",
    "fig13_rows",
    "fig14_rows",
    "fig15_rows",
    "fig16_rows",
    "ablation_rows",
]

DEFAULT_K = 10
DEFAULT_P = 0.6

Rows = tuple[Sequence[str], list[Sequence[object]]]


# ----------------------------------------------------------------------
# Table II — dataset statistics
# ----------------------------------------------------------------------
def table2_rows() -> Rows:
    headers = (
        "dataset", "vertices", "edges", "d_avg", "d_max",
        "paper_vertices", "paper_edges", "paper_d_avg", "paper_d_max",
    )
    rows: list[Sequence[object]] = []
    for name, graph in load_all().items():
        s = summarize(graph)
        paper = spec(name)
        rows.append(
            (
                name, s.num_vertices, s.num_edges,
                round(s.average_degree, 2), s.max_degree,
                paper.paper_vertices, paper.paper_edges,
                paper.paper_avg_degree, paper.paper_max_degree,
            )
        )
    return headers, rows


# ----------------------------------------------------------------------
# Figs. 6-8 — core size / clustering / density
# ----------------------------------------------------------------------
def _comparisons(k: int, p: float):
    return [
        compare_cores(graph, k, p, name=name)
        for name, graph in load_all().items()
    ]


def fig6_rows(k: int = DEFAULT_K, p: float = DEFAULT_P) -> Rows:
    headers = ("dataset", "|k-core|", "|(k,p)-core|", "ratio")
    rows = [
        (
            c.name,
            c.kcore_vertices,
            c.kpcore_vertices,
            "inf" if c.size_ratio == float("inf") else round(c.size_ratio, 2),
        )
        for c in _comparisons(k, p)
    ]
    return headers, rows


def fig7_rows(k: int = DEFAULT_K, p: float = DEFAULT_P) -> Rows:
    headers = ("dataset", "cc(k-core)", "cc((k,p)-core)")
    rows = [
        (c.name, round(c.kcore_clustering, 4), round(c.kpcore_clustering, 4))
        for c in _comparisons(k, p)
    ]
    return headers, rows


def fig8_rows(k: int = DEFAULT_K, p: float = DEFAULT_P) -> Rows:
    headers = ("dataset", "density(k-core)", "density((k,p)-core)")
    rows = [
        (c.name, round(c.kcore_density, 4), round(c.kpcore_density, 4))
        for c in _comparisons(k, p)
    ]
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 9 — DBLP case studies
# ----------------------------------------------------------------------
def _fit_k(graph: Graph, wanted_k: int) -> int:
    """Largest k <= wanted_k with a non-empty k-core on this graph."""
    d = core_decomposition(graph).degeneracy
    return min(wanted_k, d)


def fig9_reports() -> list[tuple[str, object]]:
    """Case-study reports for DBLP-3 (paper: k=15, p=0.5) and DBLP-10
    (paper: k=5, p=0.4), with ``k`` degraded to the scaled degeneracy when
    needed.  Returns ``[(label, ComponentReport), ...]``."""
    corpus = default_corpus()
    reports: list[tuple[str, object]] = []
    for threshold, wanted_k, p in ((3, 15, 0.5), (10, 5, 0.4)):
        graph = corpus.graph(min_papers=threshold)
        # The paper visualizes a component where the fraction constraint
        # trims *part* of the k-core.  On the scaled corpus the paper's
        # exact k may collapse (or spare) every component, so scan k
        # downward and pick the component that best balances survivors
        # against trimmed members (recorded in the label).
        best = None  # (score, k, report)
        for k in range(_fit_k(graph, wanted_k), 1, -1):
            rank = 0
            while True:
                try:
                    candidate = case_study(graph, k, p, component_rank=rank)
                except ParameterError:  # ran out of components
                    break
                rank += 1
                survivors = len(candidate.kp_members)
                trimmed = len(candidate.members) - survivors
                score = min(survivors, trimmed)
                if best is None or score > best[0]:
                    best = (score, k, candidate)
            if best is not None and best[0] >= 5:
                break
        assert best is not None  # every graph here has a non-empty 2-core
        _, k_used, report = best
        reports.append((f"DBLP-{threshold} (k={k_used}, p={p})", report))
    return reports


# ----------------------------------------------------------------------
# Fig. 10 — Gowalla engagement
# ----------------------------------------------------------------------
def fig10_series() -> dict[str, list]:
    """The three Fig. 10 series on the Gowalla stand-in."""
    graph = load_all()["gowalla"]
    decomposition = kp_core_decomposition(graph)
    checkins = simulate_checkins(graph, decomposition=decomposition)
    return {
        "core_number": engagement_by_core_number(graph, checkins, decomposition),
        "kp_stratum": engagement_by_kp_stratum(graph, checkins, decomposition),
        "onion_layer": engagement_by_onion_layer(graph, checkins),
    }


# ----------------------------------------------------------------------
# Figs. 11-12 — computation time
# ----------------------------------------------------------------------
def _per_run(snapshot: MetricsSnapshot | None, name: str, repeats: int) -> int:
    """A counter accumulated over ``repeats`` runs, averaged back to one."""
    if snapshot is None:
        return 0
    return snapshot.counter(name) // max(1, repeats)


def _computation_times(
    graph: Graph,
    k: int,
    p: float,
    index: KPIndex,
    repeat: int = 3,
    with_metrics: bool = False,
) -> tuple[Timing, Timing, Timing]:
    """Best-of-N timings of (kCoreComp, kpCoreComp, kpCoreQuery)."""
    snapshot = CompactAdjacency(graph)
    t_kcore = measure(lambda: k_core_vertices_compact(snapshot, k), repeat)
    t_kpcore = measure(
        lambda: kp_core_vertices_compact(snapshot, k, p),
        repeat,
        capture_metrics=with_metrics,
    )
    t_query = measure(
        lambda: index.query(k, p), repeat, capture_metrics=with_metrics
    )
    return t_kcore, t_kpcore, t_query


def fig11_rows(
    k: int = DEFAULT_K,
    p: float = DEFAULT_P,
    with_metrics: bool | None = None,
) -> Rows:
    """Fig. 11 timings; ``with_metrics`` appends per-run operation counts
    (defaults to on whenever an obs collector is active, e.g. REPRO_OBS=1).
    """
    if with_metrics is None:
        with_metrics = collection_active()
    headers: tuple[str, ...] = (
        "dataset", "kCoreComp_s", "kpCoreComp_s", "kpCoreQuery_s", "speedup",
    )
    if with_metrics:
        headers += ("kp_peeled", "kp_survivors", "query_touched")
    rows: list[Sequence[object]] = []
    for name, graph in load_all().items():
        index = KPIndex.build(graph)
        tk, tkp, tq = _computation_times(
            graph, k, p, index, with_metrics=with_metrics
        )
        row: list[object] = [
            name, round(tk.seconds, 5), round(tkp.seconds, 5),
            round(tq.seconds, 6),
            round(tkp.seconds / tq.seconds, 1) if tq.seconds > 0 else "inf",
        ]
        if with_metrics:
            row.extend(
                (
                    _per_run(
                        tkp.metrics, metric_names.KCORE_PEEL_PEELED, tkp.repeats
                    ),
                    _per_run(
                        tkp.metrics,
                        metric_names.KCORE_PEEL_SURVIVORS,
                        tkp.repeats,
                    ),
                    _per_run(
                        tq.metrics,
                        metric_names.INDEX_VERTICES_TOUCHED,
                        tq.repeats,
                    ),
                )
            )
        rows.append(tuple(row))
    return headers, rows


def fig12_rows(
    ks: Sequence[int] | None = None,
    ps: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
) -> Rows:
    """Effect of k and p on the Orkut stand-in (paper Fig. 12).

    The paper sweeps k = 5..25 against Orkut's degeneracy of 253; on the
    scaled stand-in the equivalent sweep covers the same *relative* range,
    so by default ``ks`` spans 20%..100% of the stand-in's degeneracy.
    """
    graph = load_all()["orkut"]
    index = KPIndex.build(graph)
    if ks is None:
        d = index.degeneracy
        ks = sorted({max(1, round(d * f)) for f in (0.2, 0.4, 0.6, 0.8, 1.0)})
    headers = ("sweep", "value", "kCoreComp_s", "kpCoreComp_s", "kpCoreQuery_s")
    rows: list[Sequence[object]] = []
    for k in ks:
        tk, tkp, tq = _computation_times(graph, k, DEFAULT_P, index)
        rows.append(
            ("vary-k", k, round(tk.seconds, 5), round(tkp.seconds, 5),
             round(tq.seconds, 6))
        )
    for p in ps:
        tk, tkp, tq = _computation_times(graph, DEFAULT_K, p, index)
        rows.append(
            ("vary-p", p, round(tk.seconds, 5), round(tkp.seconds, 5),
             round(tq.seconds, 6))
        )
    return headers, rows


# ----------------------------------------------------------------------
# Figs. 13-14 — decomposition time and scalability
# ----------------------------------------------------------------------
def _decomposition_times(
    graph: Graph,
    with_metrics: bool = False,
    repeat: int = 1,
) -> tuple[Timing, Timing]:
    t_core = measure(
        lambda: core_numbers_compact(CompactAdjacency(graph)), repeat
    )
    t_kp = measure(
        lambda: kp_core_decomposition(graph),
        repeat,
        capture_metrics=with_metrics,
    )
    return t_core, t_kp


def fig13_rows(with_metrics: bool | None = None) -> Rows:
    """Fig. 13 timings; ``with_metrics`` appends per-run peel/re-key counts
    (defaults to on whenever an obs collector is active, e.g. REPRO_OBS=1).
    """
    if with_metrics is None:
        with_metrics = collection_active()
    headers: tuple[str, ...] = (
        "dataset", "kcoreDecomp_s", "kpCoreDecomp_s", "slowdown",
    )
    if with_metrics:
        headers += ("peels", "rekeys")
    rows: list[Sequence[object]] = []
    for name, graph in load_all().items():
        t_core, t_kp = _decomposition_times(graph, with_metrics=with_metrics)
        row: list[object] = [
            name, round(t_core.seconds, 4), round(t_kp.seconds, 4),
            round(t_kp.seconds / t_core.seconds, 1)
            if t_core.seconds > 0 else "inf",
        ]
        if with_metrics:
            row.extend(
                (
                    _per_run(
                        t_kp.metrics, metric_names.DECOMP_PEELS, t_kp.repeats
                    ),
                    _per_run(
                        t_kp.metrics, metric_names.DECOMP_REKEYS, t_kp.repeats
                    ),
                )
            )
        rows.append(tuple(row))
    return headers, rows


def fig14_rows(dataset: str = "orkut") -> Rows:
    """Fig. 14 scalability sweep of the serial decompositions: one row
    per vertex or edge sample."""
    headers = ("sample", "ratio", "vertices", "edges",
               "kcoreDecomp_s", "kpCoreDecomp_s")
    graph = load_all()[dataset]
    rows: list[Sequence[object]] = []
    for mode, sampler in (
        ("vertex", sample_vertices),
        ("edge", sample_edges),
    ):
        for ratio in sample_ratios:
            sampled = sampler(graph, ratio, seed=17)
            t_core, t_kp = _decomposition_times(sampled)
            rows.append(
                (mode, ratio, sampled.num_vertices, sampled.num_edges,
                 round(t_core.seconds, 4), round(t_kp.seconds, 4))
            )
    return headers, rows


# ----------------------------------------------------------------------
# Figs. 15-16 — index maintenance
# ----------------------------------------------------------------------
def _merge_counters(totals: dict[str, int], snapshot: MetricsSnapshot | None) -> None:
    if snapshot is None:
        return
    for name, value in snapshot.counters.items():
        totals[name] = totals.get(name, 0) + value


def _maintenance_times(
    graph: Graph,
    batch: int,
    seed: int = 23,
    with_metrics: bool = False,
) -> tuple[float, float, float, dict[str, int]]:
    """(avg insert, avg delete, rebuild) seconds for one graph, plus the
    obs counters summed over every maintained edge (empty unless
    ``with_metrics``).

    Mirrors the paper's protocol: remove ``batch`` random existing edges,
    insert them back, report per-edge averages, and compare against a full
    from-scratch decomposition per update.  With ``with_metrics`` the
    counters also carry ``full_reach_entries``: per op, ``len(A_k)`` for
    ``k = 2 .. reach`` after it, ``reach`` being the largest old or new
    endpoint core number (Theorems 2/7) — what re-peeling every reached
    array in full would re-peel.
    """
    rng = random.Random(seed)
    working = graph.copy()
    maintainer = KPIndexMaintainer(working)
    edges = ordered_edges(working)
    chosen = rng.sample(edges, min(batch, len(edges)))
    core = maintainer.core_number

    counters: dict[str, int] = {}
    full_reach = 0
    totals = []
    for apply in (maintainer.delete_edge, maintainer.insert_edge):
        total = 0.0
        for u, v in chosen:
            old = max(core(u), core(v))
            t = measure(
                lambda u=u, v=v, apply=apply: apply(u, v),
                capture_metrics=with_metrics,
            )
            total += t.seconds
            _merge_counters(counters, t.metrics)
            if with_metrics:
                arrays = maintainer.index.arrays()
                reach = max(old, core(u), core(v))
                full_reach += sum(
                    len(arrays[k]) for k in range(2, reach + 1) if k in arrays
                )
        totals.append(total)
    if with_metrics:
        counters["full_reach_entries"] = full_reach
    delete_total, insert_total = totals
    rebuild = measure(lambda: KPIndex.build(graph)).seconds
    n = max(1, len(chosen))
    return insert_total / n, delete_total / n, rebuild, counters


def fig15_rows(batch: int = 50, with_metrics: bool | None = None) -> Rows:
    """Per-edge maintenance cost vs from-scratch rebuild (paper Fig. 15).

    The paper uses 500 edges on graphs three orders of magnitude bigger;
    ``batch`` is scaled accordingly but overridable.  ``with_metrics``
    appends the theorem-pruning counters summed over the whole batch
    (defaults to on whenever an obs collector is active, e.g. REPRO_OBS=1).
    """
    if with_metrics is None:
        with_metrics = collection_active()
    headers: tuple[str, ...] = (
        "dataset", "insert_s", "delete_s", "rebuild_s",
        "speedup_ins", "speedup_del",
    )
    if with_metrics:
        headers += ("thm_skips", "repeeled", "early_stops")
    rows: list[Sequence[object]] = []
    for name, graph in load_all().items():
        ins, dele, rebuild, counters = _maintenance_times(
            graph, batch, with_metrics=with_metrics
        )
        row: list[object] = [
            name, round(ins, 5), round(dele, 5), round(rebuild, 4),
            round(rebuild / ins, 1) if ins > 0 else "inf",
            round(rebuild / dele, 1) if dele > 0 else "inf",
        ]
        if with_metrics:
            skips = sum(
                counters.get(c, 0)
                for c in (
                    metric_names.MAINT_THM2_SKIPS,
                    metric_names.MAINT_THM6_SKIPS,
                    metric_names.MAINT_THM7_SKIPS,
                )
            )
            row.extend(
                (
                    skips,
                    counters.get(metric_names.MAINT_VERTICES_REPEELED, 0),
                    counters.get(metric_names.MAINT_EARLY_STOPS, 0),
                )
            )
        rows.append(tuple(row))
    return headers, rows


def fig16_rows(dataset: str = "orkut", batch: int = 25) -> Rows:
    headers = ("sample", "ratio", "edges", "insert_s", "delete_s", "rebuild_s")
    graph = load_all()[dataset]
    rows: list[Sequence[object]] = []
    for mode, sampler in (
        ("vertex", sample_vertices),
        ("edge", sample_edges),
    ):
        for ratio in sample_ratios:
            sampled = sampler(graph, ratio, seed=19)
            ins, dele, rebuild, _ = _maintenance_times(sampled, batch)
            rows.append(
                (mode, ratio, sampled.num_edges,
                 round(ins, 5), round(dele, 5), round(rebuild, 4))
            )
    return headers, rows


# ----------------------------------------------------------------------
# Ablation — what each maintenance ingredient buys (not in the paper's
# plots, but implied by its design discussion)
# ----------------------------------------------------------------------
def ablation_rows(dataset: str = "gowalla", batch: int = 40) -> Rows:
    """The windows' work against re-peeling every reached array in full.

    One row: per-edge seconds, the entries the windows re-peeled, their
    Theorem 6 skips and early stops, ``full_reach_entries`` (what a full
    re-peel of ``A_2 .. A_reach`` per op would have re-peeled) and the
    entries whose p-number actually changed.
    """
    headers = ("dataset", "insert_s", "delete_s", "rebuild_s",
               "repeeled_vertices", "thm6_skips", "early_stops",
               "full_reach_entries", "pnumbers_changed")
    ins, dele, rebuild, counters = _maintenance_times(
        load_all()[dataset], batch, seed=29, with_metrics=True
    )
    return headers, [
        (dataset, round(ins, 5), round(dele, 5), round(rebuild, 4),
         counters.get(metric_names.MAINT_VERTICES_REPEELED, 0),
         counters.get(metric_names.MAINT_THM6_SKIPS, 0),
         counters.get(metric_names.MAINT_EARLY_STOPS, 0),
         counters["full_reach_entries"],
         counters.get(metric_names.MAINT_PNUMBERS_CHANGED, 0))
    ]
