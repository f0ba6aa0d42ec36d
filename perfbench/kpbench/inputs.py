"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here from the workload's
``--seed``: the graph (a dataset stand-in, relabelled to ints by a seeded
permutation), the single-edge and batched update streams, and the Zipf
query stream.  Update streams are drawn against a simulated edge set, so
every insert targets an absent pair and every delete a present edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets import spec as dataset_spec
from repro.graph import Graph
from repro.kcore.decomposition import degeneracy

#: Query grid over p: {0, 0.1, ..., 1.0}.
P_LEVELS = tuple(i / 10 for i in range(11))
#: Zipf exponent of the query stream.
ZIPF_S = 1.2
#: Updates per ``apply_batch`` group.
BATCH_SIZE = 8

Update = tuple  # ("insert" | "delete", u, v)


@dataclass(frozen=True)
class Plan:
    """Operation counts of one run.  A pure function of ``--seconds`` and
    ``--trace``, so two runs of one seed do identical work."""

    setups: int
    rounds: int
    singles_per_round: int
    queries_per_round: int


def make_plan(seconds: int, traced: bool = False) -> Plan:
    """Counts sized so one run takes about ``seconds`` of timed work (plus
    set-up and checks) on a 2-CPU host.  The work is cut into rounds that
    each run every kind of operation, so every metric samples the whole
    run rather than one stretch of it.  Enough queries follow each round's
    writes that cache misses stay under 1 % and ``query_p99_us`` is a hit
    latency.  A traced run keeps one query in ten: six spans per query
    would otherwise hold millions of spans in memory."""
    s = max(1, seconds)
    return Plan(
        setups=3 if s >= 6 else 1,
        rounds=max(1, round(s / 3)),
        singles_per_round=13 if s >= 6 else 2,
        queries_per_round=1000 * s // (10 if traced else 1),
    )


@dataclass
class Round:
    singles: list
    queries: list  # [(k, p)]
    batches: list  # the crash tail: two groups of BATCH_SIZE updates


@dataclass
class Inputs:
    graph: Graph
    rounds: list


def relabel(graph: Graph, rng: random.Random) -> Graph:
    """Copy of ``graph`` with vertices mapped to ``0..n-1`` by a seeded
    permutation.  Stand-ins mix int and ``"p..."`` labels, which the
    durable checkpoint refuses; the order of the source labels is made
    deterministic first by sorting on ``(type name, repr)``."""
    labels = sorted(graph.vertices(), key=lambda v: (type(v).__name__, repr(v)))
    ids = list(range(len(labels)))
    rng.shuffle(ids)
    mapping = dict(zip(labels, ids))
    out = Graph()
    for v in labels:
        out.add_vertex(mapping[v])
    for u, v in graph.edges():
        out.add_edge(mapping[u], mapping[v])
    return out


class EdgeSimulator:
    """The edge set as the update stream leaves it; emits only valid ops."""

    def __init__(self, graph: Graph, rng: random.Random) -> None:
        self.rng = rng
        self.vertices = sorted(graph.vertices())
        self.edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
        self.present = set(self.edges)

    def insert(self) -> Update:
        while True:
            u, v = self.rng.sample(self.vertices, 2)
            edge = (min(u, v), max(u, v))
            if edge not in self.present:
                self.present.add(edge)
                self.edges.append(edge)
                return ("insert",) + edge

    def delete(self) -> Update:
        i = self.rng.randrange(len(self.edges))
        self.edges[i], self.edges[-1] = self.edges[-1], self.edges[i]
        edge = self.edges.pop()
        self.present.discard(edge)
        return ("delete",) + edge

    def alternating(self, count: int) -> list:
        return [self.insert() if i % 2 == 0 else self.delete() for i in range(count)]


def zipf_queries(count: int, k_max: int, rng: random.Random) -> list:
    """``count`` (k, p) pairs over ``[1, k_max] x P_LEVELS``; the cells are
    ranked by a seeded shuffle and rank ``r`` has weight ``1 / r**ZIPF_S``."""
    cells = [(k, p) for k in range(1, k_max + 1) for p in P_LEVELS]
    rng.shuffle(cells)
    weights = [1.0 / (r ** ZIPF_S) for r in range(1, len(cells) + 1)]
    return rng.choices(cells, weights=weights, k=count)


def make_inputs(dataset: str, seed: int, plan: Plan) -> Inputs:
    """All inputs of one run; the query grid spans ``k`` up to the
    degeneracy of the generated graph."""
    rng = random.Random(seed)
    graph = relabel(dataset_spec(dataset).build(), rng)
    sim = EdgeSimulator(graph, random.Random(rng.random()))
    queries = zipf_queries(
        plan.rounds * plan.queries_per_round,
        degeneracy(graph),
        random.Random(rng.random()),
    )
    rounds = []
    for r in range(plan.rounds):
        singles = sim.alternating(plan.singles_per_round)
        batches = [sim.alternating(BATCH_SIZE) for _ in range(2)]
        size = plan.queries_per_round
        rounds.append(Round(singles, queries[r * size:(r + 1) * size], batches))
    return Inputs(graph, rounds)
