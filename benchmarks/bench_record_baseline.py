"""Record the decomposition performance baseline into ``BENCH_decomp.json``.

Standalone script (not a pytest-benchmark case): it times the full
Algorithm 2 decomposition (the peel kernel) on one builtin dataset over a
worker-count sweep, and writes the committed baseline file that
future performance PRs compare against.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_record_baseline.py

Each configuration reports the min and median of ``--repeat`` runs (min
for "what the machine can do", median for robustness against noise).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from statistics import median
from typing import Sequence

from repro.bench.provenance import run_provenance
from repro.core.decomposition import kp_core_decomposition
from repro.datasets import load

__all__ = ["main", "record_baseline"]


def record_baseline(
    dataset: str = "orkut",
    repeat: int = 3,
    worker_counts: Sequence[int] = (1, 4),
) -> dict[str, object]:
    """Time the decomposition at every worker count.

    Repeats are **interleaved across worker counts** — round-robin, one
    timed run of every count per round — rather than run back-to-back
    per count.  The baseline's consumers compare rows against each other
    (does workers=4 beat workers=1?), and on a noisy host consecutive
    repeats let one slow scheduling window land entirely on one row and
    skew the ratio; interleaving spreads the noise over all rows evenly.
    """
    graph = load(dataset)
    times: dict[int, list[float]] = {w: [] for w in worker_counts}
    for _ in range(repeat):
        for workers in times:
            start = time.perf_counter()
            kp_core_decomposition(graph, workers=workers)
            times[workers].append(time.perf_counter() - start)
    entries: list[dict[str, object]] = [
        {
            "workers": workers,
            "min_s": round(min(samples), 4),
            "median_s": round(median(samples), 4),
        }
        for workers, samples in times.items()
    ]
    cpus = os.cpu_count() or 1
    payload: dict[str, object] = {
        "dataset": dataset,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "repeat": repeat,
        "python": platform.python_version(),
        # Worker scaling only pays off when this is > 1; on a single-CPU
        # machine the workers>1 rows measure pure pool overhead.
        "cpus": cpus,
        "provenance": run_provenance(),
        "entries": entries,
    }
    if cpus == 1 and any(w > 1 for w in worker_counts):
        payload["worker_scaling_caveat"] = (
            "recorded on a 1-CPU host: workers>1 rows measure pool "
            "overhead, not scaling — compare them only against baselines "
            "from multi-CPU hosts"
        )
    return payload


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="orkut")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 4], metavar="N"
    )
    parser.add_argument("-o", "--output", default="BENCH_decomp.json")
    args = parser.parse_args(argv)
    baseline = record_baseline(args.dataset, args.repeat, args.workers)
    with open(args.output, "w") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    for entry in baseline["entries"]:
        print(
            f"{baseline['dataset']}: workers={entry['workers']} "
            f"min={entry['min_s']}s "
            f"median={entry['median_s']}s"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
