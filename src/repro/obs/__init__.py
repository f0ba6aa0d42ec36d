"""Observability: counters, histograms, and spans for every hot path.

The paper's efficiency claims rest on internal quantities — peel
operations per edge (O(m), Algorithm 1), per-``A_k`` skip decisions and
``[p_-, p_+]`` window widths (Theorems 2-9), output-proportional query
touches (Theorem 1) — that wall-clock seconds cannot show.  This package
collects exactly those quantities:

* :mod:`repro.obs.instrumentation` — the one collector and its
  process-wide switch (``REPRO_OBS=1`` or :func:`collecting`): counters,
  histograms, and spans that feed both per-path aggregates and a
  bounded ring buffer of attributed trace events (trace IDs, parent
  links, per-thread nesting),
* :mod:`repro.obs.names` — the documented metric and span catalog,
* :mod:`repro.obs.snapshot` — immutable, JSON-round-trippable exports,
* :mod:`repro.obs.report` — aligned-table rendering,
* :mod:`repro.obs.trace_export` — JSONL and Chrome trace-event
  exporters plus the latency attribution tables,
* :mod:`repro.obs.quantiles` — shared interpolated-quantile math and
  the bounded :class:`~repro.obs.quantiles.ReservoirSketch`.

Usage::

    from repro.obs import collecting
    with collecting() as metrics:
        kp_core_vertices(graph, k=5, p=0.5)
    print(metrics.snapshot().counters["kcore.peel.edge_scans"])

or from the command line::

    REPRO_OBS=1 python -m repro kpcore graph.txt -k 5 -p 0.5
    python -m repro profile kpcore graph.txt -k 5 -p 0.5

Disabled collection (the default) costs each instrumented function one
cached ``None`` check — the peeling loops themselves are never touched;
see ``docs/observability.md`` for the overhead discipline and the KP007
lint rule that enforces it.
"""

from repro.obs.instrumentation import (
    ENV_VAR,
    Instrumentation,
    Span,
    TraceEvent,
    collecting,
    collection_active,
    get_collector,
    maybe_span,
    refresh_from_env,
    set_collector,
)
from repro.obs.quantiles import LATENCY_METHOD, ReservoirSketch, quantile
from repro.obs.report import render_report
from repro.obs.snapshot import HistogramSummary, MetricsSnapshot, SpanSummary

__all__ = [
    "ENV_VAR",
    "LATENCY_METHOD",
    "Instrumentation",
    "MetricsSnapshot",
    "HistogramSummary",
    "SpanSummary",
    "Span",
    "TraceEvent",
    "collecting",
    "collection_active",
    "get_collector",
    "set_collector",
    "refresh_from_env",
    "maybe_span",
    "quantile",
    "ReservoirSketch",
    "render_report",
]
