"""Benchmark of the (k,p)-core system: one workload per process.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 27 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` of that root and nowhere else.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  A wrong answer exits with status 1; a
missing program exits with status 2 before printing a result.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from kpbench.stats import quantile, ratio, tail_quantile  # noqa: E402

#: workload -> dataset stand-in it runs on (see README.md for why)
WORKLOADS = {
    "sparse": "youtube",
    "dense": "facebook",
}

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("ratio", "higher"),
    "build_s": ("s", "lower"),
    "insert_ms": ("ms", "lower"),
    "delete_ms": ("ms", "lower"),
    "update_p90_ms": ("ms", "lower"),
    "batch_update_ms": ("ms", "lower"),
    "checkpoint_s": ("s", "lower"),
    "recover_s": ("s", "lower"),
    "query_us": ("us", "lower"),
    "query_p99_us": ("us", "lower"),
    "query_qps": ("1/s", "higher"),
}


def end_to_end(out) -> dict:
    s = out.samples
    attempted = max(1, out.attempted)
    return {
        "setup_s": quantile(s.setup, 0.5),
        "peak_rss_mb": out.peak_rss_mb,
        "success_rate": (attempted - out.failed) / attempted,
        "build_s": quantile(s.build, 0.5),
        "insert_ms": quantile(s.insert, 0.5) * 1e3,
        "delete_ms": quantile(s.delete, 0.5) * 1e3,
        "update_p90_ms": quantile(s.insert + s.delete, 0.9) * 1e3,
        # Batch wall over batched updates, summed over the run's batches.
        "batch_update_ms": ratio(sum(t for t, _ in s.batch),
                                 sum(n for _, n in s.batch)) * 1e3,
        "checkpoint_s": quantile(s.checkpoint, 0.5),
        "recover_s": quantile(s.recover, 0.5),
        "query_us": quantile(s.query, 0.5) * 1e6,
        "query_p99_us": quantile(s.query_p99, 0.5) * 1e6,
        "query_qps": ratio(len(s.query), sum(s.query)),
    }


def print_timings(out) -> None:
    """Median and the highest percentile with ten samples beyond it, with
    the sample count, for every timed operation."""
    rows = [
        ("setup", out.samples.setup, 1.0, "s"),
        ("cold build", out.samples.build, 1.0, "s"),
        ("single-edge insert", out.samples.insert, 1e3, "ms"),
        ("single-edge delete", out.samples.delete, 1e3, "ms"),
        ("single-edge update, either", out.samples.insert + out.samples.delete, 1e3, "ms"),
        ("batch of 8 (per update)", [t / n for t, n in out.samples.batch], 1e3, "ms"),
        ("checkpoint", out.samples.checkpoint, 1.0, "s"),
        ("recovery", out.samples.recover, 1.0, "s"),
        ("query", out.samples.query, 1e6, "us"),
        ("query p99 of each chunk", out.samples.query_p99, 1e6, "us"),
    ]
    print(f"{'operation':30} {'n':>7} {'p50':>12} {'tail':>18}")
    for label, values, scale, unit in rows:
        q = tail_quantile(len(values))
        tail = f"p{q * 100:g}={quantile(values, q) * scale:.4g}"
        print(f"{label:30} {len(values):7d} {quantile(values, 0.5) * scale:10.4g}"
              f"{unit:>2} {tail:>16}{unit:>2}")
    cache = out.counts["cache"]
    print(f"cache: {cache['misses']} misses in {cache['hits'] + cache['misses']} "
          f"lookups during the query chunks (hit rate {cache['hit_rate']:.4f})")


def print_self_times(spans) -> None:
    print(f"{'span':36} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for name, (calls, total, self_total) in sorted(
        spans.by_name().items(), key=lambda item: -item[1][2]
    ):
        print(f"{name:36} {calls:8d} {total:10.4f} {self_total:10.4f}")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program at {src}/repro; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from kpbench.inputs import make_plan
    from kpbench.session import run_session

    dataset = WORKLOADS[args.workload]
    plan = make_plan(args.seconds, traced=bool(args.trace))
    workdir = os.path.join(root, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    out = run_session(dataset, args.seed, plan, workdir + "-plain", start=_START)
    print(f"# workload {args.workload} ({dataset} stand-in), seed {args.seed}, "
          f"{args.seconds} s plan, closed loop, 1 client")
    print_timings(out)
    outcome = out
    if args.trace:
        from kpbench import layers
        from kpbench.tracer import SpanIndex, Tracer, install

        tracer = Tracer()
        uninstall = install(tracer)
        try:
            traced = run_session(dataset, args.seed, plan, workdir + "-traced",
                                 tracer=tracer)
        finally:
            uninstall()
        spans_path = workdir + ".spans.jsonl"
        tracer.write(spans_path)
        print(f"# {len(tracer.spans)} spans written to "
              f"{os.path.relpath(spans_path, root)}")
        spans = SpanIndex(tracer.spans)
        print_self_times(spans)
        values = layers.compute(
            spans, traced.counts,
            traced.timed_wall / out.timed_wall if out.timed_wall else 0.0,
        )
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _better, _moves) in layers.LAYERS.items()}
        outcome = traced
        outcome.attempted += out.attempted
        outcome.failed += out.failed
    else:
        values = end_to_end(out)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _better) in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"{name:34} {metric['value']:>16.6g} {metric['unit']}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
