"""Record the decomposition performance baseline into ``BENCH_decomp.json``.

Standalone script (not a pytest-benchmark case): it times the full
Algorithm 2 decomposition (the serial peel kernel) on one builtin dataset
and writes the committed baseline file that future performance PRs
compare against.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_record_baseline.py

The one row reports the min and median of ``--repeat`` runs (min for
"what the machine can do", median for robustness against noise).
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


def record_baseline(dataset: str = "orkut", repeat: int = 3) -> dict[str, object]:
    """Time ``repeat`` decompositions of ``dataset``; one baseline row."""
    graph = load(dataset)
    samples: list[float] = []
    for _ in range(repeat):
        start = time.perf_counter()
        kp_core_decomposition(graph)
        samples.append(time.perf_counter() - start)
    return {
        "dataset": dataset,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "repeat": repeat,
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
        "provenance": run_provenance(),
        "entries": [
            {
                # The identity key of every committed decomposition row:
                # keeps fresh rows matched against older baselines.
                "workers": 1,
                "min_s": round(min(samples), 4),
                "median_s": round(median(samples), 4),
            }
        ],
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="orkut")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("-o", "--output", default="BENCH_decomp.json")
    args = parser.parse_args(argv)
    baseline = record_baseline(args.dataset, args.repeat)
    with open(args.output, "w") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    for entry in baseline["entries"]:
        print(
            f"{baseline['dataset']}: min={entry['min_s']}s "
            f"median={entry['median_s']}s"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
