"""The four workloads: inputs from a seed, one composite op, an oracle.

Every workload keeps a *shadow* of the data it writes (plain dicts built
here, never read back from the program) and checks each answer against
it outside the timed sections.  A workload object lives for one run; its
fixture (databases, services, enumerators) lives for one round and is
rebuilt by ``setup`` on a fresh ``Structure.copy()``.

Calls go through ``repro.api`` and the objects it hands out; the layer a
call exercises is named by the span around it (see ``trace.py``).
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.api import Database
from repro.circuits import (VectorizedEvaluator, build_schedule,
                            dump_plan_bytes, load_plan_bytes)
from repro.cluster import shard_structure
from repro.cluster.protocol import decode_message, encode_message
from repro.core import CompiledQuery, plan_cache_key
from repro.graphs import Graph, triangulated_grid
from repro.logic import (Atom, Bracket, Sum, Weight, eval_expression,
                         model_for)
from repro.semirings import FLOAT, MIN_PLUS, NATURAL
from repro.serve import PlanStore, ResultCache
from repro.structures import graph_structure

from .stats import vm_hwm_mb

clock = time.perf_counter_ns


def _edge(x: str, y: str) -> Atom:
    return Atom("E", (x, y))


def _w(x: str, y: str) -> Weight:
    return Weight("w", (x, y))


TRIANGLE = Sum(("x", "y", "z"),
               Bracket(_edge("x", "y") & _edge("y", "z") & _edge("z", "x"))
               * _w("x", "y") * _w("y", "z") * _w("z", "x"))
#: f(x) = Σ_y [E(x, y)] · w(x, y): weighted out-degree, the point query.
DEGREE = Sum("y", Bracket(_edge("x", "y")) * _w("x", "y"))
EDGE_SUM = Sum(("x", "y"), Bracket(_edge("x", "y")) * _w("x", "y"))
TRIANGLE_F = _edge("x", "y") & _edge("y", "z") & _edge("z", "x")
EDGE_F = _edge("x", "y") & Atom("S", ("x",)) & ~Atom("S", ("y",))

#: Sizes of the measured configuration.  Block sizes put ~0.5 s of timed
#: work in a block on the seed commit; warm-up is ~5 % of a round.
FULL: Dict[str, Any] = {
    "tri_side": 6, "deg_side": 24, "whatifs": 4096, "whatif_pool": 4,
    "naive_checks": 1, "compile_sides": (4, 8),
    "serve_side": 32, "cache": 256, "probes": 64,
    "chains": 512, "chain_len": 8,
    "enum_side": 40, "enum_tri_side": 3,
    "block_ops": {"olap_sweep": 7, "serve_update": 28,
                  "sharded_serve": 28, "enumerate_answers": 22},
    "warm_ops": {"olap_sweep": 2, "serve_update": 14,
                 "sharded_serve": 14, "enumerate_answers": 6},
    "trace_ops": {"olap_sweep": 20, "serve_update": 100,
                  "sharded_serve": 100, "enumerate_answers": 40},
    "side_ops": {"olap_sweep": 5, "serve_update": 25,
                 "sharded_serve": 25, "enumerate_answers": 10},
    "probe_reps": 200, "slow_reps": 10,
}
#: ``--smoke``: the same code on toy inputs, for the package's own tests.
SMOKE: Dict[str, Any] = {
    "tri_side": 3, "deg_side": 6, "whatifs": 128, "whatif_pool": 2,
    "naive_checks": 4, "compile_sides": (2, 3),
    "serve_side": 6, "cache": 9, "probes": 16,
    "chains": 16, "chain_len": 4,
    "enum_side": 6, "enum_tri_side": 2,
    "block_ops": {"olap_sweep": 2, "serve_update": 4,
                  "sharded_serve": 4, "enumerate_answers": 3},
    "warm_ops": {"olap_sweep": 1, "serve_update": 2,
                 "sharded_serve": 2, "enumerate_answers": 1},
    "trace_ops": {"olap_sweep": 3, "serve_update": 12,
                  "sharded_serve": 12, "enumerate_answers": 6},
    "side_ops": {"olap_sweep": 1, "serve_update": 3,
                 "sharded_serve": 3, "enumerate_answers": 2},
    "probe_reps": 20, "slow_reps": 3,
}

Edge = Tuple[Any, Any]


def weighted_grid(side: int, rng: random.Random, as_float: bool):
    structure = graph_structure(triangulated_grid(side, side))
    for edge in sorted(structure.relations["E"]):
        value = rng.randint(1, 9)
        structure.set_weight("w", edge, float(value) if as_float else value)
    return structure


def out_weights(structure) -> Dict[Any, Dict[Any, Any]]:
    """The shadow of ``w``: ``{x: {y: w(x, y)}}`` for every vertex."""
    shadow: Dict[Any, Dict[Any, Any]] = {x: {} for x in structure.domain}
    for (x, y), value in structure.weights["w"].items():
        shadow[x][y] = value
    return shadow


def close_enough(got: Any, want: Any) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def timed_reps(tr: Any, name: str, reps: int, call: Any) -> None:
    """``reps`` spans named ``name`` around ``call()``."""
    for _ in range(reps):
        with tr.span(name):
            call()


class Workload:
    """Shared bookkeeping; subclasses build inputs, fixture, op, probes."""

    name = ""

    def __init__(self, seed: int, sizes: Dict[str, Any],
                 out_dir: Any = None) -> None:
        self.seed = seed
        self.sizes = sizes
        #: where a probe may write files (inside the checkout).
        self.out_dir = out_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.round = -1
        self.build()

    def build(self) -> None:
        """Generate the run's inputs and shadows from ``self.rng``."""
        raise NotImplementedError

    def check(self, ok: bool) -> None:
        """Count one operation and whether its answers were right."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def begin_round(self) -> random.Random:
        """A per-round stream, so round ``k`` sees the same operations
        however many blocks the earlier rounds had time for."""
        self.round += 1
        return random.Random(f"{self.name}:{self.seed}:{self.round}")

    def run_block(self, tr: Any, ops: int) -> Tuple[int, np.ndarray]:
        """``ops`` composite operations; returns the block's timed
        nanoseconds and the latency of each of its operations."""
        latencies = []
        for _ in range(ops):
            tr.op_id += 1
            latencies.append(self.op(tr))
        tr.op_id = -1
        return sum(latencies), np.asarray(latencies, dtype=np.int64)

    def op(self, tr: Any) -> int:
        raise NotImplementedError

    def verify(self) -> None:
        """The round's untimed verification pass."""

    def peak_rss_mb(self) -> float:
        """Peak RSS of processes the fixture owns (the cluster's)."""
        return 0.0

    def probe(self, tr: Any) -> None:
        """Traced run only: direct calls one layer down, as spans."""

    def counters(self, tr: Any) -> None:
        """Traced run only: exact counts read from ``stats()``."""


class OlapSweep(Workload):
    """Analyst traffic: two full grouped sweeps and a what-if batch."""

    name = "olap_sweep"

    def build(self) -> None:
        rng, sizes = self.rng, self.sizes
        self.tri_db = self.deg_db = None
        self.tri_base = weighted_grid(sizes["tri_side"], rng, False)
        self.deg_base = weighted_grid(sizes["deg_side"], rng, False)
        shadow = out_weights(self.deg_base)
        self.deg_keys = [(x,) for x in self.deg_base.domain]
        self.deg_sum = [sum(shadow[x].values()) for x in self.deg_base.domain]
        self.deg_min = [float(min(shadow[x].values()))
                        for x in self.deg_base.domain]
        # The triangle oracle: every ordered triangle as its three edges.
        weights = self.tri_base.weights["w"]
        succ = out_weights(self.tri_base)
        self.tri_weights = dict(weights)
        self.triangles = [((x, y), (y, z), (z, x))
                          for x in succ for y in succ[x] for z in succ[y]
                          if x in succ[z]]
        self.tri_of_edge: Dict[Edge, List[int]] = {}
        for index, triangle in enumerate(self.triangles):
            for edge in triangle:
                self.tri_of_edge.setdefault(edge, []).append(index)
        self.tri_total = sum(weights[a] * weights[b] * weights[c]
                             for a, b, c in self.triangles)
        edges = sorted(weights)
        self.whatif_pool = [
            [{("w", "w", edge): rng.randint(1, 9)
              for edge in rng.sample(edges, 2)}
             for _ in range(sizes["whatifs"])]
            for _ in range(sizes["whatif_pool"])]
        self.sample = list(range(0, sizes["whatifs"],
                                 max(1, sizes["whatifs"] // 16)))[:16]
        self.turn = 0

    def whatif_value(self, whatif: Dict[Tuple, int]) -> int:
        """Σ over triangles under two overridden edge weights, from the
        shadow: only triangles through an overridden edge change."""
        override = {key[2]: value for key, value in whatif.items()}
        touched = {index for edge in override
                   for index in self.tri_of_edge.get(edge, ())}
        base = self.tri_weights
        total = self.tri_total
        for index in touched:
            a, b, c = self.triangles[index]
            total -= base[a] * base[b] * base[c]
            total += (override.get(a, base[a]) * override.get(b, base[b])
                      * override.get(c, base[c]))
        return total

    def setup(self, tr: Any) -> int:
        self.begin_round()
        tri_structure = self.tri_base.copy()
        deg_structure = self.deg_base.copy()
        start = clock()
        # result_cache_size=0: every sweep must reach the kernels.
        self.tri_db = Database(tri_structure, result_cache_size=0)
        self.deg_db = Database(deg_structure, result_cache_size=0)
        self.tri = self.tri_db.prepare(TRIANGLE)
        self.tri.plan()
        self.deg = self.deg_db.prepare(DEGREE, params=("x",))
        self.deg.group_by(None, NATURAL)
        self.deg.group_by(None, MIN_PLUS)
        return clock() - start

    def op(self, tr: Any) -> int:
        whatifs = self.whatif_pool[self.turn % len(self.whatif_pool)]
        self.turn += 1
        start = clock()
        with tr.span("api.group_by_ms.N"):
            by_sum = self.deg.group_by(None, NATURAL)
        with tr.span("api.group_by_ms.MIN_PLUS"):
            by_min = self.deg.group_by(None, MIN_PLUS)
        with tr.span("api.batch_ms.whatif"):
            values = self.tri.batch(whatifs, NATURAL)
        elapsed = clock() - start
        self.check(by_sum.keys() == self.deg_keys
                   and by_sum.values() == self.deg_sum
                   and by_min.keys() == self.deg_keys
                   and by_min.values() == self.deg_min
                   and len(values) == len(whatifs)
                   and all(values[i] == self.whatif_value(whatifs[i])
                           for i in self.sample))
        return elapsed

    def verify(self) -> None:
        """What-ifs against ``repro.logic.naive`` on a structure that
        really carries the overridden weights (cubic in the domain, so
        only ``naive_checks`` of them at full size)."""
        whatifs = self.whatif_pool[self.round % len(self.whatif_pool)]
        picks = self.sample[:self.sizes["naive_checks"]]
        values = self.tri.batch([whatifs[i] for i in picks], NATURAL)
        for index, value in zip(picks, values):
            edited = self.tri_base.copy()
            for (_kind, name, edge), weight in whatifs[index].items():
                edited.set_weight(name, edge, weight)
            naive = eval_expression(TRIANGLE, model_for(edited), NATURAL)
            self.check(value == naive
                       and naive == self.whatif_value(whatifs[index]))

    def probe(self, tr: Any) -> None:
        sizes = self.sizes
        stats = self.tri.stats()
        for stage, seconds in stats["compile_stages"].items():
            tr.value(f"core.{stage}_s", seconds)
        tr.count("core.gates.triangle", stats["gates"])
        tr.count("core.gates.degree", self.deg.stats()["gates"])
        per_tuple = []
        for side, label in zip(sizes["compile_sides"], ("side4", "side8")):
            structure = weighted_grid(side, random.Random(side), False)
            with Database(structure, result_cache_size=0) as db:
                query = db.prepare(TRIANGLE)
                start = clock()
                with tr.span(f"core.compile_s.{label}"):
                    query.plan()
                per_tuple.append((clock() - start) / structure.size())
        # Theorem 6: compile time linear in |D|, so this should be ≈ 1.
        tr.value("core.compile_growth", per_tuple[1] / per_tuple[0])

        plan = self.tri.plan()
        whatifs = self.whatif_pool[0]
        reps = sizes["slow_reps"]
        timed_reps(tr, "circuits.evaluate_batch_ms.int64", reps,
                   lambda: plan.evaluate_batch(NATURAL, whatifs))
        timed_reps(tr, "circuits.evaluate_batch_ms.float64", reps,
                   lambda: plan.evaluate_batch(MIN_PLUS, whatifs))
        timed_reps(tr, "circuits.evaluate_batch_ms.object", reps,
                   lambda: plan.evaluate_batch(NATURAL, whatifs,
                                               exact_mode="object"))
        few = whatifs[:256]
        timed_reps(tr, "circuits.evaluate_batch_ms.python", reps,
                   lambda: plan.evaluate_batch(NATURAL, few,
                                               backend="python"))
        base = plan.input_valuation(NATURAL)
        schedule = plan.schedule()
        timed_reps(tr, "circuits.prepare_base_ms", reps,
                   lambda: VectorizedEvaluator.prepare_base(
                       plan.circuit, NATURAL, base, schedule=schedule))
        timed_reps(tr, "circuits.schedule_build_ms", reps,
                   lambda: build_schedule(plan.circuit))
        layout = schedule.stats()
        tr.count("circuits.layers", layout["layers"])
        tr.count("circuits.groups", layout["groups"])
        tr.count("circuits.kernel_fallbacks",
                 plan.stats()["exact_kernel"]["fallbacks"])
        blobs: List[bytes] = []
        timed_reps(tr, "circuits.plan_dump_ms", reps,
                   lambda: blobs.append(dump_plan_bytes(plan.to_state())))
        tr.count("circuits.plan_bytes", len(blobs[-1]))
        timed_reps(tr, "circuits.plan_load_ms", reps,
                   lambda: CompiledQuery.from_state(
                       load_plan_bytes(blobs[-1]), self.tri_db.structure,
                       TRIANGLE))

        # The selector protocol through the facade, result cache off.
        domain = self.deg_base.domain
        rng = random.Random(f"probe:{self.seed}")
        keys = [(rng.choice(domain),) for _ in range(64)]
        for key in keys:
            with tr.span("engine.point_us"):
                value = self.deg.bind(*key).value(NATURAL)
            self.check(value == self.deg_sum[domain.index(key[0])])
        timed_reps(tr, "engine.batch64_ms", reps,
                   lambda: self.deg.batch(keys, NATURAL))
        timed_reps(tr, "engine.groups64_ms", reps,
                   lambda: self.deg.group_by(keys, NATURAL))
        for _ in range(sizes["probe_reps"]):
            with tr.span("api.prepare_us"):
                handle = self.tri_db.prepare(TRIANGLE)
            handle.close()

    def close(self, tr: Any) -> None:
        for db in (self.tri_db, self.deg_db):
            if db is not None:
                db.close()
        self.tri_db = self.deg_db = self.tri = self.deg = None


class ServeUpdate(Workload):
    """Single-process serving with a write before every read window."""

    name = "serve_update"

    def build(self) -> None:
        self.db = None
        self.base = weighted_grid(self.sizes["serve_side"], self.rng, True)
        self.domain = list(self.base.domain)
        self.edges = sorted(self.base.weights["w"])
        # Zipf(1.0) over a seeded ranking of the domain.
        ranking = list(range(len(self.domain)))
        self.rng.shuffle(ranking)
        self.ranking = np.asarray(ranking)
        mass = 1.0 / np.arange(1, len(ranking) + 1)
        self.zipf = mass / mass.sum()

    def setup(self, tr: Any) -> int:
        self.ops = self.begin_round()
        self.draws = np.random.default_rng(self.ops.getrandbits(64))
        structure = self.base.copy()
        self.shadow = out_weights(self.base)
        self.total = sum(sum(row.values()) for row in self.shadow.values())
        self.writes = 0
        start = clock()
        self.db = Database(structure,
                           result_cache_size=self.sizes["cache"])
        with tr.span("serve.start_ms"):
            self.service = self.db.serve(DEGREE, FLOAT)
        self.edge_sum = self.db.prepare(EDGE_SUM)
        self.maintained = self.edge_sum.maintain(FLOAT)
        self.maintained.value()
        return clock() - start

    def write(self) -> Tuple[Edge, float]:
        """The next write of the stream, applied to the shadow."""
        edge = self.ops.choice(self.edges)
        value = float(self.ops.randint(1, 9))
        self.total += value - self.shadow[edge[0]][edge[1]]
        self.shadow[edge[0]][edge[1]] = value
        self.writes += 1
        return edge, value

    def op(self, tr: Any) -> int:
        edge, value = self.write()
        picks = self.ranking[self.draws.choice(
            len(self.ranking), size=self.sizes["probes"], p=self.zipf)]
        probes = [self.domain[i] for i in picks]
        start = clock()
        with tr.span("api.update_tx_ms"):
            with self.db.update() as tx:
                tx.set_weight("w", edge, value)
        with tr.span("api.maintained_value_us"):
            total = self.maintained.value()
        with tr.span("serve.window_ms"):
            futures = [self.service.submit(x) for x in probes]
            answers = [future.result(30) for future in futures]
        elapsed = clock() - start
        self.check(close_enough(total, self.total) and all(
            close_enough(answer, sum(self.shadow[x].values()))
            for x, answer in zip(probes, answers)))
        return elapsed

    def verify(self) -> None:
        """Every vertex once, after the round's writes."""
        answers = self.service.query_batch([(x,) for x in self.domain], 60)
        self.check(all(close_enough(answer, sum(self.shadow[x].values()))
                       for x, answer in zip(self.domain, answers)))

    def counters(self, tr: Any) -> None:
        stats = self.service.stats()
        cache = stats["result_cache"]
        windows = max(1, self.writes)
        tr.count("serve.hit_ratio",
                 cache["hits"] / max(1, cache["hits"] + cache["misses"]))
        tr.count("serve.mean_batch", stats["mean_batch"])
        tr.count("serve.batches_per_window", stats["batches"] / windows)
        tr.count("serve.retagged_per_write", stats["retagged"] / windows)

    def probe(self, tr: Any) -> None:
        reps = self.sizes["probe_reps"]
        rng = random.Random(f"probe:{self.seed}")
        for _ in range(reps):
            x = rng.choice(self.domain)
            self.service.query(x, timeout=30)
            with tr.span("serve.submit_hit_us"):
                self.service.submit(x).result(30)
        bound = self.db.prepare(DEGREE, params=("x",))
        for _ in range(reps):
            x = rng.choice(self.domain)
            value = bound.bind(x).value(FLOAT)
            with tr.span("api.bind_hit_us"):
                again = bound.bind(x).value(FLOAT)
            self.check(again == value and close_enough(
                value, sum(self.shadow[x].values())))
        bound.close()

        cache = ResultCache(256)
        for key in range(256):
            cache.put(key, float(key), 0)
        keys = list(range(256))
        for i in range(reps):
            with tr.span("serve.cache_put_us"):
                cache.put(i % 256, 1.0, 0)
            with tr.span("serve.cache_get_us"):
                cache.get(i % 256, 0)
        for epoch in range(reps):
            with tr.span("serve.retag_many_us"):
                cache.retag_many(keys, epoch, epoch + 1)

        key = plan_cache_key(self.db.structure, EDGE_SUM)
        for _ in range(reps):
            with tr.span("serve.plan_cache_lookup_us"):
                self.db.plan_cache.lookup(key)
        plan = self.edge_sum.plan()
        store = PlanStore(self.out_dir / f"plan-store-{os.getpid()}")
        try:
            for _ in range(self.sizes["slow_reps"]):
                with tr.span("serve.plan_store_save_ms"):
                    store.save(key, plan)
                with tr.span("serve.plan_store_load_ms"):
                    loaded = store.load(key, self.db.structure, EDGE_SUM)
                self.check(loaded is not None)
        finally:
            shutil.rmtree(store.path, ignore_errors=True)

        scratch = self.base.copy()
        timed_reps(tr, "structures.copy_ms", self.sizes["slow_reps"],
                   self.base.copy)
        for _ in range(reps):
            edge = rng.choice(self.edges)
            value = float(rng.randint(10, 99))
            with tr.span("structures.set_weight_us"):
                scratch.set_weight("w", edge, value)
            with tr.span("structures.fingerprint_us"):
                scratch.fingerprint()
        timed_reps(tr, "structures.full_fingerprint_ms",
                   self.sizes["slow_reps"], scratch.full_fingerprint)

        # A write that only the maintained handle has to absorb.
        with tr.span("serve.close_ms"):
            self.service.close()
        for _ in range(reps):
            edge, value = self.write()
            with tr.span("circuits.maintain_update_us"):
                with self.db.update() as tx:
                    tx.set_weight("w", edge, value)
        self.check(close_enough(self.maintained.value(), self.total))

    def close(self, tr: Any) -> None:
        if self.db is not None:
            self.db.close()
        self.db = self.service = self.edge_sum = self.maintained = None


def chain_forest(chains: int, length: int, rng: random.Random):
    """``chains`` disjoint paths: many Gaifman components to shard."""
    graph = Graph(range(chains * length),
                  [(c * length + i, c * length + i + 1)
                   for c in range(chains) for i in range(length - 1)])
    structure = graph_structure(graph)
    for edge in sorted(structure.relations["E"]):
        structure.set_weight("w", edge, float(rng.randint(1, 9)))
    return structure


class ShardedServe(Workload):
    """The process cluster: routed write, point window, merged group-by."""

    name = "sharded_serve"

    def build(self) -> None:
        self.db = None
        self.base = chain_forest(self.sizes["chains"],
                                 self.sizes["chain_len"], self.rng)
        self.domain = list(self.base.domain)
        self.edges = sorted(self.base.weights["w"])
        self.workers_rss = 0.0

    def setup(self, tr: Any) -> int:
        self.ops = self.begin_round()
        structure = self.base.copy()
        self.shadow = out_weights(self.base)
        self.group_bys = 0
        start = clock()
        self.db = Database(structure, result_cache_size=0)
        with tr.span("cluster.start_s"):
            self.service = self.db.serve_sharded(DEGREE, FLOAT, shards=2)
        return clock() - start

    def degree(self, x: Any) -> float:
        return float(sum(self.shadow[x].values()))

    def op(self, tr: Any) -> int:
        ops, count = self.ops, self.sizes["probes"]
        edge = ops.choice(self.edges)
        value = float(ops.randint(1, 9))
        self.shadow[edge[0]][edge[1]] = value
        probes = [ops.choice(self.domain) for _ in range(count)]
        keys = list(dict.fromkeys(ops.choice(self.domain)
                                  for _ in range(count)))
        start = clock()
        with tr.span("cluster.update_ms"):
            with self.db.update() as tx:
                tx.set_weight("w", edge, value)
        with tr.span("cluster.window_ms"):
            futures = [self.service.submit(x) for x in probes]
            answers = [future.result(30) for future in futures]
        with tr.span("cluster.group_by_ms"):
            table = self.service.group_by_sync(keys, timeout=30)
        elapsed = clock() - start
        self.group_bys += 1
        self.check(
            all(close_enough(answer, self.degree(x))
                for x, answer in zip(probes, answers))
            and table.keys() == [(x,) for x in keys]
            and all(close_enough(got, self.degree(x))
                    for x, got in zip(keys, table.values())))
        return elapsed

    def verify(self) -> None:
        # Merge time so far is all from the ops' grouped reads.
        self.merge_ms = (self.service.stats()["merge_seconds"] * 1e3
                         / max(1, self.group_bys))
        # Every vertex, in slices: one sweep's value matrix is gates x
        # groups, and a whole-domain sweep would set the workers' peak.
        step = 4 * self.sizes["probes"]
        for at in range(0, len(self.domain), step):
            keys = self.domain[at:at + step]
            table = self.service.group_by_sync(keys, timeout=60)
            self.check(table.keys() == [(x,) for x in keys] and all(
                close_enough(got, self.degree(x))
                for x, got in zip(keys, table.values())))
        # Workers die with the round; their peak is read while alive.
        self.workers_rss = max(self.workers_rss, sum(
            vm_hwm_mb(worker["pid"])
            for worker in self.service.stats()["workers"]))

    def peak_rss_mb(self) -> float:
        return self.workers_rss

    def counters(self, tr: Any) -> None:
        stats = self.service.stats()
        served = [worker["requests"] for worker in stats["workers"]]
        tr.count("cluster.sheds", stats["sheds"])
        tr.count("cluster.respawns", stats["respawns"])
        tr.count("cluster.request_skew", max(served) / max(1, min(served)))

    def probe(self, tr: Any) -> None:
        reps = self.sizes["probe_reps"]
        rng = random.Random(f"probe:{self.seed}")
        tr.value("cluster.merge_ms_per_group_by", self.merge_ms)
        for _ in range(reps):
            x = rng.choice(self.domain)
            with tr.span("cluster.point_rtt_ms"):
                answer = self.service.query_sync(x, timeout=30)
            self.check(close_enough(answer, self.degree(x)))
        timed_reps(tr, "cluster.shard_structure_ms",
                   self.sizes["slow_reps"],
                   lambda: shard_structure(self.base, 2))
        message = {"op": "batch", "id": 1, "args": [
            (rng.choice(self.domain),) for _ in range(64)]}
        frame = encode_message(message)
        tr.count("cluster.frame_bytes", len(frame))
        for _ in range(reps):
            with tr.span("cluster.encode_us"):
                encode_message(message)
            with tr.span("cluster.decode_us"):
                decode_message(frame)

    def close(self, tr: Any) -> None:
        if self.db is not None:
            with tr.span("cluster.close_ms"):
                self.db.close()
        self.db = self.service = None


class EnumerateAnswers(Workload):
    """Theorem 24: one operation is one enumerated answer."""

    name = "enumerate_answers"

    def build(self) -> None:
        rng, sizes = self.rng, self.sizes
        self.edge_db = self.tri_db = None
        self.edge_base = graph_structure(
            triangulated_grid(sizes["enum_side"], sizes["enum_side"]))
        self.members = {v for v in self.edge_base.domain
                        if rng.random() < 0.5}
        for v in sorted(self.members):
            self.edge_base.add_tuple("S", (v,))
        self.tri_base = graph_structure(
            triangulated_grid(sizes["enum_tri_side"],
                              sizes["enum_tri_side"]))
        self.vertices = list(self.edge_base.domain)
        self.edge_list = sorted(self.edge_base.relations["E"])
        succ: Dict[Any, set] = {}
        for x, y in self.tri_base.relations["E"]:
            succ.setdefault(x, set()).add(y)
        self.tri_answers = {(x, y, z) for x in succ for y in succ[x]
                            for z in succ[y] if x in succ.get(z, ())}
        #: traced run only: each pass's delays, per enumerator.
        self.delays: Dict[str, List[np.ndarray]] = {"edge": [],
                                                    "triangle": []}
        self.pass_sizes: List[int] = []

    def edge_answers(self) -> set:
        inside = self.in_s
        return {(x, y) for x, y in self.edge_list
                if x in inside and y not in inside}

    def setup(self, tr: Any) -> int:
        self.ops = self.begin_round()
        self.in_s = set(self.members)
        edge_structure = self.edge_base.copy()
        tri_structure = self.tri_base.copy()
        start = clock()
        self.edge_db = Database(edge_structure)
        self.tri_db = Database(tri_structure)
        with tr.span("enumeration.preprocess_s.edge"):
            self.edge_enum = self.edge_db.prepare(
                EDGE_F, params=("x", "y"), dynamic=("S",)).enumerate()
        with tr.span("enumeration.preprocess_s.triangle"):
            self.tri_enum = self.tri_db.prepare(
                TRIANGLE_F, params=("x", "y", "z")).enumerate()
        return clock() - start

    def one_pass(self, tr: Any, which: str, enumerator: Any,
                 expected: int) -> Tuple[int, np.ndarray]:
        """Enumerate every answer, stamping the clock after each; the
        first delay includes opening the iterator.  Returns the pass's
        nanoseconds and the delay of each answer."""
        stamps = [clock()]
        stamp = stamps.append
        for _answer in enumerator:
            stamp(clock())
        end = clock()
        delays = np.diff(np.asarray(stamps, dtype=np.int64))
        if tr.enabled:
            self.delays[which].append(delays)
        self.attempted += delays.size
        # A short or long pass fails every answer it should have had.
        self.failed += abs(delays.size - expected)
        return end - stamps[0], delays

    def run_block(self, tr: Any, ops: int) -> Tuple[int, np.ndarray]:
        """``ops`` times: edge pass, one ``S`` toggle, triangle pass.
        The toggle is timed into the block but is not an operation."""
        elapsed = 0
        delays = []
        for _ in range(ops):
            expected = len(self.edge_answers())
            with tr.span("enumeration.pass_ms.edge"):
                took, answered = self.one_pass(tr, "edge", self.edge_enum,
                                               expected)
            elapsed += took
            delays.append(answered)
            self.pass_sizes.append(expected)
            vertex = self.ops.choice(self.vertices)
            present = vertex not in self.in_s
            with tr.span("enumeration.toggle_us"):
                start = clock()
                self.edge_enum.set_relation("S", (vertex,), present)
                elapsed += clock() - start
            (self.in_s.add if present else self.in_s.discard)(vertex)
            with tr.span("enumeration.pass_ms.triangle"):
                took, answered = self.one_pass(
                    tr, "triangle", self.tri_enum, len(self.tri_answers))
            elapsed += took
            delays.append(answered)
        return elapsed, np.concatenate(delays)

    def verify(self) -> None:
        for enumerator, want in ((self.edge_enum, self.edge_answers()),
                                 (self.tri_enum, self.tri_answers)):
            got = list(enumerator)
            self.check(len(got) == len(want) and set(got) == want)

    def probe(self, tr: Any) -> None:
        passes = self.delays["edge"] + self.delays["triangle"]
        for which in ("edge", "triangle"):
            tr.value(f"enumeration.delay_p50_us.{which}", float(np.median(
                np.concatenate(self.delays[which]))) / 1e3)
        every = np.concatenate(passes)
        tr.value("enumeration.delay_p99_us",
                 float(np.percentile(every, 99)) / 1e3)
        tr.value("enumeration.delay_max_us", float(every.max()) / 1e3)
        for delays in passes:
            if delays.size:
                tr.value("enumeration.first_answer_us",
                         float(delays[0]) / 1e3)

    def counters(self, tr: Any) -> None:
        tr.count("enumeration.answers_per_pass",
                 float(np.median(self.pass_sizes)))

    def close(self, tr: Any) -> None:
        for db in (self.edge_db, self.tri_db):
            if db is not None:
                db.close()
        self.edge_db = self.tri_db = self.edge_enum = self.tri_enum = None


WORKLOADS: Dict[str, Any] = {cls.name: cls for cls in (
    OlapSweep, ServeUpdate, ShardedServe, EnumerateAnswers)}
