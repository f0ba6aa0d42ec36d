"""One benchmark run: a complete, single-threaded user session.

Every workload runs the same closed loop on its own seeded inputs, one
caller waiting for each reply before sending the next.  After a set-up
(generate the inputs, write the edge list, seed a durable index with one
``apply_batch`` of every edge plus a checkpoint, open a
:class:`KPCoreServer`, query every grid cell once) the run is cut into
rounds, and each round runs every kind of operation once more:

1. durable single-edge updates through the server, one fsync each;
2. Zipf queries, timed one by one, in four chunks with a cold build (as
   ``repro index build`` does it: ``read_edge_list``, ``KPIndex.build``,
   ``graph_fingerprint``, ``KPIndex.save``) and two ``checkpoint()`` calls
   between them;
3. two ``apply_batch`` calls of 8 updates each;
4. a crash: the server is abandoned with the two batches as its journal
   tail and the directory is reopened (checkpoint load + replay); the
   session goes on with the recovered server.

Interleaving matters on a shared host whose speed drifts over seconds: each
metric's samples then come from the whole run, not from one stretch of it.
For the same reason the set-up is repeated a third and two thirds of the
way through the run; those repeats are timed and thrown away.

Answers are checked outside the timed sections, against a mirror graph that
the benchmark updates itself and ``KPIndex.build`` of that mirror.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import repro.graph as rgraph
from repro.core.index import KPIndex
from repro.service import DurableMaintainer, KPCoreServer

from kpbench.inputs import P_LEVELS, Inputs, Plan, make_inputs
from kpbench.stats import quantile
from kpbench.tracer import Tracer

_clock = time.perf_counter

#: Checkpoints are scheduled by the benchmark, so automatic ones (the
#: default fires every 100 updates) never land inside a timed update or
#: batch and mix two kinds of operation in one sample.
_NO_AUTO_CHECKPOINT = 10**9


@dataclass
class Samples:
    setup: list = field(default_factory=list)
    build: list = field(default_factory=list)
    insert: list = field(default_factory=list)
    delete: list = field(default_factory=list)
    #: (seconds, updates) per apply_batch call.
    batch: list = field(default_factory=list)
    checkpoint: list = field(default_factory=list)
    recover: list = field(default_factory=list)
    query: list = field(default_factory=list)
    #: p99 of each verified chunk of queries.
    query_p99: list = field(default_factory=list)


@dataclass
class Outcome:
    samples: Samples
    attempted: int = 0
    failed: int = 0
    #: Work counters read from the program (MaintenanceStats, BatchReport,
    #: CacheStats, RecoveryReport) and sizes measured by the benchmark.
    counts: dict = field(default_factory=dict)
    #: Wall time of every timed operation, summed.
    timed_wall: float = 0.0
    peak_rss_mb: float = 0.0


@dataclass
class _Setup:
    server: KPCoreServer
    inputs: Inputs
    edge_list: str
    state: str


class _Run:
    def __init__(self, dataset: str, seed: int, plan: Plan, workdir: str,
                 tracer: Tracer | None) -> None:
        self.dataset = dataset
        self.seed = seed
        self.plan = plan
        self.workdir = workdir
        self.tracer = tracer
        self.out = Outcome(Samples())

    # -- bookkeeping -----------------------------------------------------
    def op(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    @contextmanager
    def untraced(self):
        """Set-up, warm-up and checks run with tracing off: they are not
        part of any timed operation."""
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    def fail(self, what: str, count: int = 1) -> None:
        self.out.failed += count
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def timed(self, name: str, fn, *args):
        """Run one timed operation; returns (seconds, result), or None if
        it raised."""
        self.out.attempted += 1
        try:
            with self.op(name):
                t0 = _clock()
                result = fn(*args)
                seconds = _clock() - t0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{name} raised")
            return None
        self.out.timed_wall += seconds
        return seconds, result

    # -- set-up ----------------------------------------------------------
    def setup(self, name: str, start: float) -> _Setup:
        with self.untraced():
            base = os.path.join(self.workdir, name)
            os.makedirs(base)
            inputs = make_inputs(self.dataset, self.seed, self.plan)
            edge_list = os.path.join(base, "graph.txt")
            rgraph.write_edge_list(inputs.graph, edge_list)
            state = os.path.join(base, "state")
            durable = DurableMaintainer(state, checkpoint_every=_NO_AUTO_CHECKPOINT)
            durable.apply_batch([("insert", u, v) for u, v in inputs.graph.edges()])
            durable.checkpoint()
            server = KPCoreServer(durable)
            warm(server)
        self.out.samples.setup.append(_clock() - start)
        return _Setup(server, inputs, edge_list, state)

    def extra_setup(self, index: int) -> None:
        """A set-up timed for ``setup_s`` only, then discarded."""
        gc.collect()
        name = f"setup{index}"
        spare = self.setup(name, _clock())
        spare.server.close()
        shutil.rmtree(os.path.join(self.workdir, name), ignore_errors=True)

    # -- operations ------------------------------------------------------
    def cold_build(self) -> None:
        out_path = os.path.join(self.workdir, "built.index.json")

        def build() -> KPIndex:
            graph = rgraph.read_edge_list(self.live.edge_list)
            index = KPIndex.build(graph)
            index.save(out_path, fingerprint=rgraph.graph_fingerprint(graph))
            return index

        done = self.timed("op.build", build)
        if done is None:
            return
        seconds, index = done
        with self.untraced():
            loaded = KPIndex.load(out_path)
            loaded.validate()
            ok = loaded.semantically_equal(index) and index.semantically_equal(
                self.reference
            )
        if not ok:
            self.fail("cold build: saved or built index is wrong")
            return
        self.out.samples.build.append(seconds)
        self.out.counts["peel_vertices"] = sum(len(a) for a in index.arrays().values())
        self.out.counts["index_bytes_per_edge"] = (
            os.path.getsize(out_path) / self.live.inputs.graph.num_edges
        )

    def singles(self, ops: list) -> None:
        server = self.live.server
        for op, u, v in ops:
            call = server.insert_edge if op == "insert" else server.delete_edge
            done = self.timed("op.update", call, u, v)
            if done is not None:
                self.pending_updates.append((op, done[0]))
            apply_to(self.mirror, [(op, u, v)])

    def batch(self, ops: list) -> None:
        done = self.timed("op.batch", self.live.server.apply_batch, ops)
        if done is not None:
            self.pending_batches.append((done[0], len(ops)))
        apply_to(self.mirror, ops)

    def checkpoint(self) -> None:
        done = self.timed("op.checkpoint", self.live.server.checkpoint)
        if done is not None:
            self.out.samples.checkpoint.append(done[0])

    def queries(self, pairs: list) -> tuple:
        """Serve ``pairs`` one by one; returns (pairs, latencies, answers)."""
        query, tracer = self.live.server.query, self.tracer
        latencies, answers = [], []
        self.out.attempted += len(pairs)
        try:
            if tracer is None:
                for k, p in pairs:
                    t0 = _clock()
                    answer = query(k, p)
                    latencies.append(_clock() - t0)
                    answers.append(answer)
            else:
                for k, p in pairs:
                    opened = tracer.begin("op.query")
                    t0 = _clock()
                    answer = query(k, p)
                    latencies.append(_clock() - t0)
                    tracer.end(opened)
                    answers.append(answer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail("query raised", len(pairs) - len(answers))
        self.out.timed_wall += sum(latencies)
        self.answer_total += sum(len(a) for a in answers)
        return pairs, latencies, answers

    def check_queries(self, served: list) -> None:
        """Every answer equals, as a set, the answer of a fresh build of the
        mirror graph.  Answers are stored tuples, so each distinct object
        is compared once."""
        with self.untraced():
            expected = KPIndex.build(self.mirror)
            for pairs, latencies, answers in served:
                distinct: dict = {}
                for key, answer in zip(pairs, answers):
                    distinct.setdefault((key, id(answer)), [answer, 0])[1] += 1
                wrong = 0
                for ((k, p), _), (answer, count) in distinct.items():
                    if set(answer) != set(expected.query_slice(k, p)):
                        self.fail(f"query ({k}, {p}) answered wrongly", count)
                        wrong += count
                if not wrong:
                    self.out.samples.query.extend(latencies)
                    self.out.samples.query_p99.append(quantile(latencies, 0.99))

    def state_matches(self) -> bool:
        with self.untraced():
            durable = self.live.server.durable
            return (durable.graph == self.mirror
                    and durable.index.semantically_equal(KPIndex.build(self.mirror)))

    def crash_and_recover(self, batches: list) -> None:
        for ops in batches:
            self.batch(ops)
        # Updates and batches count once the state they left is checked.
        if self.state_matches():
            for op, seconds in self.pending_updates:
                getattr(self.out.samples, op).append(seconds)
            self.out.samples.batch.extend(self.pending_batches)
        else:
            self.fail("updates: index differs from a rebuild",
                      len(self.pending_updates) + len(self.pending_batches))
        self.pending_updates, self.pending_batches = [], []
        before = self.live.server.durable
        # Abandon the server without a checkpoint: the batches since the last
        # checkpoint are fsynced in the journal, which is all a crash leaves.
        self.live.server.close()
        gc.collect()

        def reopen() -> KPCoreServer:
            durable = DurableMaintainer(
                self.live.state, checkpoint_every=_NO_AUTO_CHECKPOINT, must_exist=True
            )
            return KPCoreServer(durable)

        done = self.timed("op.recover", reopen)
        if done is None:
            raise RuntimeError("recovery failed; the session cannot go on")
        seconds, server = done
        recovered = server.durable
        with self.untraced():
            replayed = recovered.recovery.replayed if recovered.recovery else -1
            ok = (recovered.graph == before.graph
                  and recovered.index.semantically_equal(before.index)
                  and replayed == len(batches))
        self.out.counts["replayed_records"] = replayed
        self.live.server = server
        if ok:
            self.out.samples.recover.append(seconds)
        else:
            self.fail("recovery: state differs from before the crash")

    # -- the run ---------------------------------------------------------
    def run(self, start: float) -> Outcome:
        plan = self.plan
        self.live = self.setup("setup0", start)
        self.mirror = self.live.inputs.graph.copy()
        with self.untraced():
            self.reference = KPIndex.build(self.mirror)
        self.pending_updates: list = []
        self.pending_batches: list = []
        self.answer_total = 0
        stats = self.live.server.durable.maintainer.stats.snapshot()
        maintenance = {key: 0 for key in stats}
        cache_before = self.live.server.cache_stats()
        # Later set-ups spread over the run: after rounds r/3, 2r/3, ...
        extra_at = {i * plan.rounds // plan.setups: i for i in range(1, plan.setups)}
        cache_delta: dict = {}
        for r, inputs in enumerate(self.live.inputs.rounds):
            gc.collect()
            server = self.live.server
            stats = server.durable.maintainer.stats
            before = stats.snapshot()
            self.singles(inputs.singles)
            after = stats.snapshot()
            for key in maintenance:
                maintenance[key] += after[key] - before[key]
            # Cold builds and checkpoints leave the served index as it is,
            # so queries interleave with them and one rebuild checks them all.
            chunks = split(inputs.queries, 4)
            served = [self.queries(chunks[0])]
            for step, chunk in zip(
                (self.cold_build, self.checkpoint, self.checkpoint), chunks[1:]
            ):
                step()
                served.append(self.queries(chunk))
            self.check_queries(served)
            cache = server.cache_stats()
            for key in ("hits", "misses", "invalidations", "evictions",
                        "admission_rejects"):
                cache_delta[key] = cache_delta.get(key, 0) + (
                    getattr(cache, key) - getattr(cache_before, key)
                )
            self.crash_and_recover(inputs.batches)
            # A recovered server starts with a cold cache; warm it untimed.
            with self.untraced():
                warm(self.live.server)
            cache_before = self.live.server.cache_stats()
            if r in extra_at:
                self.extra_setup(extra_at[r])
        self.live.server.close()
        lookups = cache_delta["hits"] + cache_delta["misses"]
        self.out.counts["cache"] = dict(
            cache_delta, hit_rate=cache_delta["hits"] / max(1, lookups)
        )
        self.out.counts["maintenance"] = maintenance
        self.out.counts["answer_size"] = self.answer_total / max(
            1, plan.rounds * plan.queries_per_round
        )
        self.out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self.out


def warm(server: KPCoreServer) -> None:
    """Query every cell of the grid once, so timed queries meet a warm cache."""
    for k in range(1, server.index.degeneracy + 1):
        for p in P_LEVELS:
            server.query(k, p)


def split(items: list, parts: int) -> list:
    size = len(items) // parts
    return [items[i * size:(i + 1) * size] for i in range(parts - 1)] + [
        items[(parts - 1) * size:]
    ]


def apply_to(graph: rgraph.Graph, ops: list) -> None:
    for op, u, v in ops:
        if op == "insert":
            graph.add_edge(u, v)
        else:
            graph.remove_edge(u, v)


def run_session(dataset: str, seed: int, plan: Plan, workdir: str,
                tracer: Tracer | None = None,
                start: float | None = None) -> Outcome:
    """Run one session in ``workdir`` (created, and removed afterwards).

    ``start`` is when the process began, so the first set-up is charged
    with interpreter and import time too.
    """
    os.makedirs(workdir)
    try:
        return _Run(dataset, seed, plan, workdir, tracer).run(
            _clock() if start is None else start
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
