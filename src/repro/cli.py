"""Command-line interface: ``python -m repro <command> ...``.

Glue for using the library without writing Python:

* ``stats FILE``            — Table II-style statistics of an edge list,
* ``kpcore FILE -k K -p P`` — the (k,p)-core's vertices (Algorithm 1),
* ``decompose FILE -k K``   — p-numbers for a fixed k (Algorithm 2),
* ``index build FILE -o I`` — build and save a KP-Index as JSON,
* ``index query I -k K -p P`` — answer a query from a saved index,
* ``index update DIR --stream F`` — maintain a durable index under an
  edge-update stream (write-ahead journal + periodic checkpoints),
* ``index recover DIR``         — recover a durable index after a crash
  and absorb the journal tail into a fresh checkpoint,
* ``index serve-bench DIR --workload SPEC --threads N --seed S`` — run a
  seeded query/update workload against the concurrent ``KPCoreServer``
  and report throughput, latency percentiles, and cache counters,
* ``dataset NAME [-o F]``   — materialize a synthetic stand-in,
* ``report EXPERIMENT``     — print one table/figure reproduction
  (``table2``, ``fig6`` … ``fig16``, ``ablation``),
* ``profile CMD ...``       — run any other command with metrics
  collection on and print the obs report, the latency attribution
  table and the slowest spans afterwards (``--json`` / ``--jsonl``
  export the trace),
* ``lint [PATH ...]``       — run the repo's KP lint rules (KP001-KP007
  per file, plus the KP008-KP012 whole-program analysis with
  ``--analysis``; ``--format text|json|sarif``),
* ``selfcheck [FILE]``      — run every runtime invariant contract.

All commands print to stdout; file arguments are SNAP-style edge lists,
or ``builtin:NAME`` to use a synthetic stand-in dataset in place.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import ReproError, VertexLabelError
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.metrics import summarize
from repro.core.decomposition import p_numbers_fixed_k
from repro.core.index import KPIndex
from repro.core.kpcore import kp_core_vertices
from repro.kcore.decomposition import core_decomposition
from repro.obs.instrumentation import DEFAULT_BUFFER_SIZE

__all__ = ["main", "build_parser"]


def _read_graph(path: str):
    # ``builtin:NAME`` loads a synthetic stand-in dataset, so commands
    # (and CI) can run without shipping edge-list files around.
    if path.startswith("builtin:"):
        from repro.datasets import load

        return load(path[len("builtin:"):])
    # SNAP files are usually integer-labelled; fall back to string labels
    # only when that assumption is what failed.  Every other parse error
    # (malformed lines, self loops, ...) propagates — retrying with string
    # labels would just mask it.
    try:
        return read_edge_list(path, int_vertices=True)
    except VertexLabelError:
        return read_edge_list(path, int_vertices=False)


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _read_graph(args.file)
    s = summarize(graph)
    d = core_decomposition(graph).degeneracy
    print(f"vertices      {s.num_vertices}")
    print(f"edges         {s.num_edges}")
    print(f"avg degree    {s.average_degree:.2f}")
    print(f"max degree    {s.max_degree}")
    print(f"degeneracy    {d}")
    return 0


def _cmd_kpcore(args: argparse.Namespace) -> int:
    graph = _read_graph(args.file)
    members = kp_core_vertices(graph, args.k, args.p)
    print(f"# ({args.k},{args.p})-core: {len(members)} vertices")
    for v in sorted(members, key=repr):
        print(v)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    graph = _read_graph(args.file)
    if args.k is not None:
        pn = p_numbers_fixed_k(graph, args.k)
        print(f"# p-numbers for k={args.k}: {len(pn)} vertices in the k-core")
        for v, value in sorted(pn.items(), key=lambda item: (item[1], repr(item[0]))):
            print(f"{v}\t{value:.6f}")
        return 0
    from repro.core.decomposition import kp_core_decomposition

    decomposition = kp_core_decomposition(graph)
    print(f"# decomposition: degeneracy={decomposition.degeneracy}")
    for k in range(1, decomposition.degeneracy + 1):
        fixed = decomposition.arrays[k]
        p_max = max(fixed.p_numbers, default=0.0)
        print(f"k={k}\t|V_k|={len(fixed)}\tp_max={p_max:.6f}")
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    from repro.graph.fingerprint import graph_fingerprint

    graph = _read_graph(args.file)
    index = KPIndex.build(graph)
    index.validate()
    index.save(args.output, fingerprint=graph_fingerprint(graph))
    stats = index.space_stats()
    print(f"wrote {args.output}: d={index.degeneracy}, "
          f"{stats.vertex_entries} vertex entries (2m={stats.two_m})")
    return 0


def _cmd_index_query(args: argparse.Namespace) -> int:
    index = KPIndex.load(args.index)
    answer = index.query(args.k, args.p)
    print(f"# ({args.k},{args.p})-core: {len(answer)} vertices")
    for v in answer:
        print(v)
    return 0


def _read_update_stream(path: str, extra_tokens: str):
    # Probe the label convention the same way _read_graph does: integers
    # first, strings only when exactly that assumption failed.
    from repro.service import read_update_stream

    try:
        return read_update_stream(
            path, int_vertices=True, extra_tokens=extra_tokens
        )
    except VertexLabelError:
        return read_update_stream(
            path, int_vertices=False, extra_tokens=extra_tokens
        )


def _print_durable_summary(durable) -> None:
    index = durable.index
    stats = index.space_stats()
    print(f"index: d={index.degeneracy}, {stats.vertex_entries} vertex "
          f"entries, n={durable.graph.num_vertices} m={durable.graph.num_edges}")


def _cmd_index_update(args: argparse.Namespace) -> int:
    from repro.service import DurableMaintainer

    extra = "ignore" if args.ignore_extra_tokens else "error"
    updates = _read_update_stream(args.stream, extra)
    with DurableMaintainer(
        args.dir,
        checkpoint_every=args.checkpoint_every,
        on_error=args.on_error,
    ) as durable:
        if durable.recovery is not None and durable.recovery.replayed:
            print(f"recovered: replayed {durable.recovery.replayed} "
                  f"journal records "
                  f"(checkpoint seq {durable.recovery.checkpoint_seq})")
        report = durable.apply(updates)
        durable.checkpoint()
        print(f"applied {report.applied} updates, skipped {report.skipped}, "
              f"wrote {report.checkpoints + 1} checkpoints")
        _print_durable_summary(durable)
    return 0


def _cmd_index_recover(args: argparse.Namespace) -> int:
    from repro.service import DurableMaintainer

    with DurableMaintainer(args.dir, must_exist=True) as durable:
        recovery = durable.recovery
        assert recovery is not None  # must_exist guarantees prior state
        durable.checkpoint()
        print(f"recovered from checkpoint seq {recovery.checkpoint_seq}: "
              f"replayed {recovery.replayed} journal records "
              f"({recovery.skipped} skipped), journal tail absorbed")
        _print_durable_summary(durable)
    return 0


def _cmd_index_serve_bench(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.bench.serving import run_differential_probes, run_serve_bench
    from repro.service.workload import WorkloadSpec

    spec = WorkloadSpec.parse(args.workload)
    if args.batch_size:
        spec = dataclasses.replace(spec, batch=args.batch_size)
    result = run_serve_bench(
        args.dir,
        spec=spec,
        seed=args.seed,
        threads=args.threads,
        cache=not args.no_cache,
        cache_size=args.cache_size,
        min_answer_size=args.min_answer_size,
    )
    latency = result["latency_ms"]
    cache_stats = result["cache_stats"]
    print(f"workload: {result['spec']} (seed {result['seed']})")
    print(f"threads {result['threads']}  batch {result['batch']}  cache "
          f"{'on' if result['cache'] else 'off'}  "
          f"queries {result['queries']}  updates {result['updates']}")
    print(f"elapsed {result['elapsed_s']}s  throughput "
          f"{result['query_qps']} q/s (query wall)  "
          f"{result['ops_per_s']} ops/s (total)")
    print(f"latency ms  p50={latency['p50']}  p95={latency['p95']}  "
          f"p99={latency['p99']}  max={latency['max']}")
    print(f"cache  hits={cache_stats['hits']}  misses={cache_stats['misses']}  "
          f"invalidations={cache_stats['invalidations']}  "
          f"evictions={cache_stats['evictions']}  "
          f"admission_rejects={cache_stats['admission_rejects']}  "
          f"hit_rate={cache_stats['hit_rate']}")
    if args.probe_every:
        probe = run_differential_probes(
            spec=spec,
            seed=args.seed,
            cache=not args.no_cache,
            cache_size=args.cache_size,
            min_answer_size=args.min_answer_size,
            probe_every=args.probe_every,
        )
        result["probes"] = probe["probes"]
        result["stale_serves"] = probe["stale_serves"]
        print(f"probes {probe['probes']}  stale_serves "
              f"{probe['stale_serves']} (vs naive fixpoint)")
    if args.json:
        import json as json_module

        from repro.bench.provenance import run_provenance

        result["provenance"] = run_provenance()
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(result, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.datasets import load, spec

    graph = load(args.name)
    meta = spec(args.name)
    if args.output:
        write_edge_list(
            graph,
            args.output,
            header=[
                f"synthetic stand-in for {meta.name} ({meta.character})",
                f"paper original: n={meta.paper_vertices} m={meta.paper_edges}",
            ],
        )
        print(f"wrote {args.output}: n={graph.num_vertices} m={graph.num_edges}")
    else:
        s = summarize(graph)
        print(f"{meta.name}: n={s.num_vertices} m={s.num_edges} "
              f"davg={s.average_degree:.2f} dmax={s.max_degree}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.bench.reporting import print_table
    from repro.obs import Instrumentation, names, render_report, set_collector
    from repro.obs.trace_export import (
        attribution_rows,
        chrome_payload,
        slowest_rows,
        validate_chrome_trace,
        write_jsonl,
    )

    rest = list(args.argv)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("error: profile needs a command to run, e.g. "
              "`repro profile kpcore builtin:facebook -k 4 -p 0.5`",
              file=sys.stderr)
        return 2
    if rest[0] == "profile":
        print("error: profile cannot wrap itself", file=sys.stderr)
        return 2
    command = " ".join(rest)
    collector = Instrumentation(buffer_size=args.buffer)
    previous = set_collector(collector)
    try:
        with collector.span(names.TRACE_COMMAND, command=command):
            status = main(rest)
    finally:
        set_collector(previous)
    snapshot = collector.snapshot()
    events = collector.events()
    print(render_report(snapshot, title=f"profile: {command}"))
    headers, rows = attribution_rows(events)
    print_table(headers, rows, title=f"trace attribution: {command}")
    headers, rows = slowest_rows(events, args.top)
    print_table(headers, rows, title=f"top {args.top} slowest spans")
    if collector.dropped:
        print(f"note: ring buffer dropped {collector.dropped} of "
              f"{collector.recorded} events (raise --buffer)")
    if args.json:
        # One file for both views: Chrome/Perfetto read traceEvents and
        # keep the other top-level keys as metadata, while
        # MetricsSnapshot.load reads counters/histograms/spans.
        payload = chrome_payload(events)
        problems = validate_chrome_trace(payload)
        if problems:
            for problem in problems:
                print(f"error: invalid trace export: {problem}", file=sys.stderr)
            return 1
        payload.update(snapshot.to_dict())
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\nwrote metrics and {len(events)} trace events to {args.json} "
              "(load in chrome://tracing or https://ui.perfetto.dev)")
    if args.jsonl:
        write_jsonl(args.jsonl, events)
        print(f"wrote raw events to {args.jsonl}")
    return status


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro.bench.diffing import diff_files, render_diff

    diff = diff_files(args.old, args.new, tolerance=args.tolerance)
    print(render_diff(diff))
    return 1 if diff.regressed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import explain, run

    if args.explain:
        explain()
        return 0
    return run(
        args.paths or ["."],
        analysis=args.analysis,
        fmt=args.format,
        select=args.select.split(",") if args.select else None,
        ignore=args.ignore.split(",") if args.ignore else None,
    )


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.devtools.selfcheck import run

    return run(args.file)


_REPORTS = {
    "table2": "table2_rows",
    "fig6": "fig6_rows",
    "fig7": "fig7_rows",
    "fig8": "fig8_rows",
    "fig11": "fig11_rows",
    "fig12": "fig12_rows",
    "fig13": "fig13_rows",
    "fig14": "fig14_rows",
    "fig15": "fig15_rows",
    "fig16": "fig16_rows",
    "ablation": "ablation_rows",
}


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench import experiments
    from repro.bench.reporting import print_table

    name = args.experiment
    if name == "fig9":
        for label, report in experiments.fig9_reports():
            print(f"=== {label} ===")
            print(report.summary())
        return 0
    if name == "fig10":
        for series_name, points in experiments.fig10_series().items():
            print_table(
                ("x", "avg", "count"),
                [(round(p.x, 3), round(p.average, 1), p.count) for p in points],
                title=f"Fig. 10 series: {series_name}",
            )
        return 0
    rows_fn = getattr(experiments, _REPORTS[name])
    headers, rows = rows_fn()
    print_table(headers, rows, title=f"Reproduction: {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="(k,p)-core computation, indexing, and maintenance "
        "(ICDE 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="edge-list statistics")
    p_stats.add_argument("file")
    p_stats.set_defaults(func=_cmd_stats)

    p_core = sub.add_parser("kpcore", help="compute one (k,p)-core")
    p_core.add_argument("file")
    p_core.add_argument("-k", type=int, required=True)
    p_core.add_argument("-p", type=float, required=True)
    p_core.set_defaults(func=_cmd_kpcore)

    p_dec = sub.add_parser(
        "decompose",
        help="p-numbers for a fixed k, or the full decomposition",
        description="With -k, print the p-number of every k-core vertex. "
        "Without -k, run the full Algorithm 2 decomposition and print a "
        "per-k summary.",
    )
    p_dec.add_argument("file")
    p_dec.add_argument(
        "-k", type=int, default=None,
        help="fixed degree threshold (omit for the full decomposition)",
    )
    p_dec.set_defaults(func=_cmd_decompose)

    p_index = sub.add_parser("index", help="KP-Index operations")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_build = index_sub.add_parser("build", help="build and save an index")
    p_build.add_argument("file")
    p_build.add_argument("-o", "--output", required=True)
    p_build.set_defaults(func=_cmd_index_build)
    p_query = index_sub.add_parser("query", help="query a saved index")
    p_query.add_argument("index")
    p_query.add_argument("-k", type=int, required=True)
    p_query.add_argument("-p", type=float, required=True)
    p_query.set_defaults(func=_cmd_index_query)
    p_update = index_sub.add_parser(
        "update",
        help="apply an edge-update stream to a durable index directory",
        description="Maintains a crash-safe KP-Index in DIR: every update "
        "is write-ahead journaled, and a checkpoint (graph + fingerprinted "
        "index snapshot) is written every N applied updates and at the "
        "end. A fresh DIR starts from the empty graph. Stream lines are "
        "'+ u v' (insert), '- u v' (delete), or bare 'u v' (insert).",
    )
    p_update.add_argument("dir")
    p_update.add_argument(
        "--stream", required=True, metavar="FILE",
        help="edge-update stream file",
    )
    p_update.add_argument(
        "--checkpoint-every", type=int, default=100, metavar="N",
        help="checkpoint after every N applied updates (default: %(default)s)",
    )
    p_update.add_argument(
        "--on-error", choices=["fail", "skip"], default="fail",
        help="what to do when an update cannot apply (default: %(default)s)",
    )
    p_update.add_argument(
        "--ignore-extra-tokens", action="store_true",
        help="drop trailing columns (timestamps/weights) on stream lines",
    )
    p_update.set_defaults(func=_cmd_index_update)
    p_recover = index_sub.add_parser(
        "recover",
        help="recover a durable index directory after a crash",
        description="Loads the last good checkpoint, replays the journal "
        "tail, and writes a fresh checkpoint absorbing it.",
    )
    p_recover.add_argument("dir")
    p_recover.set_defaults(func=_cmd_index_recover)
    p_serve = index_sub.add_parser(
        "serve-bench",
        help="benchmark the concurrent query server on a seeded workload",
        description="Generates a deterministic query/insert/delete "
        "workload (repro.service.workload), serves the queries from N "
        "reader threads through the KPCoreServer result cache while the "
        "update stream applies under the write lock, and reports "
        "throughput, latency percentiles, and cache counters. With "
        "--probe-every, additionally replays the workload sequentially "
        "and audits every Nth answer against the naive fixpoint "
        "(stale-serve detection).",
    )
    p_serve.add_argument("dir")
    p_serve.add_argument(
        "--workload", default="", metavar="SPEC",
        help="workload spec, e.g. 'ops=400,query=8,insert=1,delete=1,"
        "vertices=60,kmax=6' (empty = defaults)",
    )
    p_serve.add_argument(
        "--threads", type=int, default=2, metavar="N",
        help="reader threads (default: %(default)s)",
    )
    p_serve.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="workload seed (default: %(default)s)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="serve every query straight from Algorithm 3",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=4096, metavar="N",
        help="result cache capacity (default: %(default)s)",
    )
    p_serve.add_argument(
        "--min-answer-size", type=int, default=0, metavar="N",
        help="cache admission threshold: answers smaller than N vertices "
        "are served but never cached (default: %(default)s)",
    )
    p_serve.add_argument(
        "--batch-size", type=int, default=0, metavar="B",
        help="apply updates through apply_batch in coalesced groups of B "
        "(one re-peel per affected array per group); overrides the "
        "workload spec's batch key (0 = use the spec's value)",
    )
    p_serve.add_argument(
        "--probe-every", type=int, default=0, metavar="N",
        help="also audit every Nth query against the naive fixpoint "
        "(0 = skip the audit phase)",
    )
    p_serve.add_argument(
        "--json", metavar="FILE",
        help="also write the result record as JSON",
    )
    p_serve.set_defaults(func=_cmd_index_serve_bench)

    p_data = sub.add_parser("dataset", help="materialize a synthetic dataset")
    p_data.add_argument("name")
    p_data.add_argument("-o", "--output")
    p_data.set_defaults(func=_cmd_dataset)

    p_report = sub.add_parser("report", help="print one experiment's rows")
    p_report.add_argument(
        "experiment", choices=sorted(_REPORTS) + ["fig9", "fig10"]
    )
    p_report.set_defaults(func=_cmd_report)

    p_profile = sub.add_parser(
        "profile",
        help="run another repro command with metrics and tracing on",
        description="Runs the wrapped command with an obs collector "
        "installed (as if REPRO_OBS=1), then prints the metrics report, "
        "the latency attribution table and the slowest spans.",
    )
    p_profile.add_argument(
        "--json", metavar="FILE",
        help="also write a Chrome trace-event file (loadable in "
        "chrome://tracing or Perfetto) that carries the metrics "
        "snapshot too",
    )
    p_profile.add_argument(
        "--jsonl", metavar="FILE",
        help="also write the raw trace events as JSON lines",
    )
    p_profile.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="slowest spans to list (default: %(default)s)",
    )
    p_profile.add_argument(
        "--buffer", type=int, default=DEFAULT_BUFFER_SIZE, metavar="N",
        help="trace-event ring-buffer capacity (default: %(default)s)",
    )
    p_profile.add_argument(
        "argv", nargs=argparse.REMAINDER, metavar="CMD",
        help="the repro command to profile, e.g. "
        "`kpcore builtin:facebook -k 4 -p 0.5`",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_bench = sub.add_parser(
        "bench", help="benchmark-file utilities (regression diffing)"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bdiff = bench_sub.add_parser(
        "diff",
        help="regression-diff two bench JSON files",
        description="Matches entries of OLD and NEW on their identity "
        "keys (dataset/workers/spec/seed/threads/cache), compares "
        "every directional metric, and exits nonzero when any metric "
        "regressed beyond the tolerance or an entry disappeared.",
    )
    p_bdiff.add_argument("old", help="baseline bench JSON (e.g. BENCH_serve.json)")
    p_bdiff.add_argument("new", help="fresh bench JSON to compare against it")
    p_bdiff.add_argument(
        "--tolerance", type=float, default=0.25, metavar="R",
        help="relative change treated as noise (default: %(default)s)",
    )
    p_bdiff.set_defaults(func=_cmd_bench_diff)

    p_lint = sub.add_parser(
        "lint", help="run the repo-specific AST lint rules (KP001-KP012)"
    )
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories (default: current directory)",
    )
    p_lint.add_argument(
        "--explain", action="store_true",
        help="list the rule codes and exit",
    )
    p_lint.add_argument(
        "--analysis", action="store_true",
        help="also run the whole-program concurrency/durability rules "
        "(KP008-KP012: call graph + effect + lock-context analysis)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    p_lint.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to keep (e.g. KP008,KP012)",
    )
    p_lint.add_argument(
        "--ignore", metavar="CODES", default=None,
        help="comma-separated rule codes to drop",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_check = sub.add_parser(
        "selfcheck", help="run the runtime invariant contracts on a graph"
    )
    p_check.add_argument(
        "file", nargs="?", default=None,
        help="SNAP edge list (default: a small builtin synthetic graph)",
    )
    p_check.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as error:
        # OSError covers FileNotFoundError plus the rest of the I/O
        # failure family (PermissionError, IsADirectoryError, ...): all
        # are user-addressable conditions, not library bugs, so they get
        # an `error:` line and exit status 1 instead of a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
