"""E-U1: mixed read/write stream — O(delta) updates vs per-write rehash.

The paper's dynamic claim (Theorem 8, "maintenance under updates") is
constant-time update handling; before this experiment's subject landed,
every ``db.update()`` transaction still paid an O(size) full-content
rehash to reconcile the structure fingerprint, so a transaction-per-write
stream was linear in the *structure* per write, not in the delta.

Two legs over the same interleaved workload (one weight write per
transaction, a rotating window of point reads after each write):

* **rehash baseline** — ``Structure.fingerprint`` is patched to the
  full-content rehash (``full_fingerprint``), reproducing the seed's
  destroy-and-rehash reconcile cost on every transaction exit and every
  out-of-band freshness check;
* **incremental** — the shipped path: the digest is folded per mutation,
  reconcile is an O(1) equality check, and a write evicts only the
  cached points it can reach, so provably-unaffected ones stay warm
  across the write stream.

Acceptance (full size): the incremental leg is >= 20x the rehash leg,
and every interleaved read of a probe no write could have affected since
its last read is a result-cache hit (asserted, both modes).  A small
sharded leg routes writes through ``serve_sharded`` and asserts the
gateway's answers stay identical to the single-process prepared query.

``REPRO_BENCH_FAST=1`` shrinks the workload (the 20x assertion is
skipped; the warm-hit and sharded-consistency assertions are not).
"""

from __future__ import annotations

import json
import os
import random

from repro import NATURAL, Atom, Bracket, Database, Sum, Weight
from repro.graphs import triangulated_grid
from repro.structures import Structure

from common import report, timed, triangle_workload

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

#: f(x) = Σ_y [E(x, y)] * w(x, y) — the weighted out-degree point query.
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
SIDE = 6 if FAST else 14
WRITES = 30 if FAST else 200
PROBES = 8 if FAST else 32
READS_PER_WRITE = 2 if FAST else 6


def stream_workload(side: int):
    """Integer-weighted triangulated grid plus a deterministic write
    schedule (edge, fresh value) and a probe list for the reads."""
    structure = triangle_workload(side)
    rng = random.Random(7)
    edges = sorted(structure.relations["E"])
    writes = [(edges[rng.randrange(len(edges))], 10 + step)
              for step in range(WRITES)]
    probes = list(structure.domain)[:PROBES]
    return structure, writes, probes


def run_stream(db, query, writes, probes, count_hits: bool):
    """One write per transaction, ``READS_PER_WRITE`` rotating reads
    after each; returns (must_hit_reads, must_hit_misses, hits, reads).

    A probe that no write since its last read could affect (its element
    is not an endpoint of any intervening written edge) is *provably*
    warm — no write evicted it — so its read must hit the result
    cache.
    """
    scope = query._scope(NATURAL) if count_hits else None
    dirty = {probe: False for probe in probes}
    cached = {probe: False for probe in probes}
    must_hit = must_hit_misses = hits = reads = 0
    cursor = 0
    for edge, value in writes:
        with db.update() as tx:
            tx.set_weight("w", edge, value)
        for probe in probes:
            if probe in edge:
                dirty[probe] = True
        for _ in range(READS_PER_WRITE):
            probe = probes[cursor % len(probes)]
            cursor += 1
            before = scope.hits if scope is not None else 0
            query.bind(probe).value(NATURAL)
            reads += 1
            if scope is None:
                continue
            hit = scope.hits > before
            hits += hit
            if cached[probe] and not dirty[probe]:
                must_hit += 1
                must_hit_misses += not hit
            dirty[probe] = False
            cached[probe] = True
    return must_hit, must_hit_misses, hits, reads


def multi_component_workload(parts: int, side: int):
    """Disjoint triangulated grids (string-labeled nodes, wire-safe) —
    the Gaifman components the sharder places across workers."""
    grids = [triangulated_grid(side, side) for _ in range(parts)]
    label = lambda c, node: f"{c}:{node[0]},{node[1]}"
    domain = [label(c, node) for c, grid in enumerate(grids)
              for node in grid.vertices()]
    structure = Structure(domain)
    for c, grid in enumerate(grids):
        for u, v in grid.edges():
            structure.add_tuple("E", (label(c, u), label(c, v)))
            structure.add_tuple("E", (label(c, v), label(c, u)))
    rng = random.Random(3)
    for edge in sorted(structure.relations["E"]):
        structure.set_weight("w", edge, rng.randint(1, 9))
    return structure


def test_update_stream_incremental_vs_rehash(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY_FINGERPRINT", raising=False)
    structure, writes, probes = stream_workload(SIDE)

    def run_leg(count_hits: bool):
        with Database(structure.copy()) as db:
            query = db.prepare(DEGREE, params=("x",))
            for probe in probes:  # warm: compile once, fill the cache
                query.bind(probe).value(NATURAL)
            counters, elapsed = timed(
                run_stream, db, query, writes, probes, count_hits)
        return counters, elapsed

    # Leg 1 — the seed's reconcile cost: every fingerprint() read is a
    # full content rehash (transaction exits and freshness checks alike).
    with monkeypatch.context() as patch:
        patch.setattr(Structure, "fingerprint", Structure.full_fingerprint)
        _, rehash_seconds = run_leg(count_hits=False)

    # Leg 2 — the shipped incremental path, with warm-hit accounting.
    (must_hit, must_hit_misses, hits, reads), incremental_seconds = \
        run_leg(count_hits=True)
    speedup = rehash_seconds / incremental_seconds \
        if incremental_seconds else float("inf")
    warm_hit_rate = hits / reads if reads else 0.0

    # Every provably-unaffected interleaved read must be a cache hit —
    # the writes evicted only what they could reach.
    assert must_hit > 0
    assert must_hit_misses == 0, (
        f"{must_hit_misses}/{must_hit} provably-unaffected reads missed "
        f"the result cache — write eviction lost warm entries")

    # Leg 3 — sharded serving stays consistent under routed writes.
    sharded = multi_component_workload(parts=4, side=2 if FAST else 3)
    with Database(sharded.copy()) as db:
        prepared = db.prepare(DEGREE, params=("x",))
        service = db.serve_sharded(DEGREE, NATURAL, shards=2,
                                   shard_policy="contiguous")
        routed = sorted(sharded.relations["E"])[::7][:10]
        for step, edge in enumerate(routed):
            with db.update() as tx:
                tx.set_weight("w", edge, 20 + step)
        gateway = [service.query_sync(element)
                   for element in sharded.domain]
        expected = [prepared.bind(x=element).value(NATURAL)
                    for element in sharded.domain]
        assert gateway == expected, \
            "sharded answers diverged from single-process after writes"

    payload = {
        "side": SIDE,
        "writes": WRITES,
        "reads": reads,
        "rehash_seconds": round(rehash_seconds, 4),
        "incremental_seconds": round(incremental_seconds, 4),
        "speedup": round(speedup, 2),
        "warm_hit_rate": round(warm_hit_rate, 4),
        "must_hit_reads": must_hit,
        "must_hit_misses": must_hit_misses,
        "sharded_consistent": True,
        "fast": FAST,
    }
    with capsys.disabled():
        report(f"E-U1: {WRITES}-write stream, {READS_PER_WRITE} reads "
               f"per write (side={SIDE}, seconds)",
               ["path", "time", "writes/s", "speedup"],
               [["per-write rehash", round(rehash_seconds, 4),
                 int(WRITES / rehash_seconds), 1.0],
                ["incremental digest", round(incremental_seconds, 4),
                 int(WRITES / incremental_seconds),
                 round(speedup, 2)]])
        print(f"UPDATE-STREAM-REPORT {json.dumps(payload)}")

    if not FAST:
        assert speedup >= 20.0, (
            f"incremental update stream only {speedup:.1f}x the per-write "
            f"rehash baseline at side={SIDE} (target: 20x)")


def test_update_stream(benchmark):
    structure, writes, probes = stream_workload(SIDE)
    with Database(structure.copy()) as db:
        query = db.prepare(DEGREE, params=("x",))
        for probe in probes:
            query.bind(probe).value(NATURAL)

        def stream():
            run_stream(db, query, writes, probes, count_hits=False)

        benchmark(stream)
