"""The result cache under eviction: what the epoch tag used to give for
free, pinned explicitly.

A cached result is valid because it is in the cache: an effective routed
write evicts the argument tuples it can reach, an invalidation drops the
scope, and the database's write sequence (``Database.epoch``) keeps a
result computed before either from being installed after it.  These
tests drive the interleavings that protocol must survive —
deterministically: a thread is paused at a hook (after
the engine computed, before the cache install; or inside a write,
between its engine update and its eviction) and released by an event,
never by a sleep.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import threading

import pytest

from repro.api import Database
from repro.graphs import triangulated_grid
from repro.logic import (Atom, Bracket, Sum, Weight, eval_expression,
                         model_for)
from repro.semirings import MIN_PLUS, NATURAL
from repro.serve import ResultCache

from tests.util import weighted_graph_structure

E = lambda x, y: Atom("E", (x, y))
S = lambda x: Atom("S", (x,))
w = lambda x, y: Weight("w", (x, y))

#: f(x) = Σ_y [E(x, y)] * w(x, y).
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
#: f(x) = Σ_y w(x, y): no bracket, so a brand-new weight tuple changes it.
OUT_WEIGHT = Sum("y", w("x", "y"))
#: f(x) = Σ_y u(y) [E(x, y)]: reads ``u`` only.
NEIGHBOUR_U = Sum("y", Bracket(E("x", "y")) * Weight("u", ("y",)))
#: f(x, y) = Σ_z [E(x, z) ∧ E(z, y) ∧ S(z)]: a toggle of S(v) reaches
#: every pair of v's neighbours — a product that can outgrow the cache.
VIA_S = Sum("z", Bracket(E("x", "z") & E("z", "y") & S("z")))

WAIT = 30


def grid(side: int = 3, seed: int = 4):
    return weighted_graph_structure(triangulated_grid(side, side), seed=seed)


def naive(expr, structure, sr, **assignment):
    return eval_expression(expr, model_for(structure, sr.zero), sr,
                           assignment)


class Pause:
    """Wrap ``owner.name`` so its caller stops there until released:
    ``before=True`` stops on entry, otherwise after the wrapped call
    returned (its result already computed)."""

    def __init__(self, owner, name, before=False):
        self.reached = threading.Event()
        self.release = threading.Event()
        original = getattr(owner, name)

        def paused(*args, **kwargs):
            result = None if before else original(*args, **kwargs)
            self.reached.set()
            assert self.release.wait(WAIT)
            return original(*args, **kwargs) if before else result

        setattr(owner, name, paused)


def run(target):
    outcome = {}

    def body():
        try:
            outcome["value"] = target()
        except BaseException as error:  # noqa: BLE001 - re-raised by join
            outcome["error"] = error

    thread = threading.Thread(target=body)
    thread.start()

    def join():
        thread.join(WAIT)
        assert not thread.is_alive()
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]

    return join


# -- (i) computed before an effective write, delivered after it: not cached -------


def test_service_drops_a_result_that_predates_a_write():
    structure = grid()
    edge = sorted(structure.weights["w"])[0]
    x = edge[0]
    with Database(structure.copy()) as db:
        service = db.serve(DEGREE, NATURAL)
        pause = Pause(service.prepared._engine(NATURAL), "query_batch")
        future = service.submit(x)
        assert pause.reached.wait(WAIT)  # computed over the old state
        with db.update() as tx:
            assert tx.set_weight("w", edge, 77) > 0
        pause.release.set()
        stale = future.result(WAIT)
        structure.set_weight("w", edge, 77)
        fresh = naive(DEGREE, structure, NATURAL, x=x)
        assert stale != fresh  # in flight across the write: either state
        assert service.query(x, timeout=WAIT) == fresh
        assert service.stats()["result_cache"]["hits"] == 0


@pytest.mark.parametrize("mode", ["bind", "group_by"])
def test_prepared_drops_a_result_that_predates_a_write(mode):
    structure = grid()
    edge = sorted(structure.weights["w"])[0]
    x = edge[0]
    with Database(structure) as db:
        query = db.prepare(DEGREE, params=("x",))
        if mode == "bind":
            # The engine computes under the engine lock a write needs:
            # stop between the computation and the install instead.
            pause = Pause(query, "_cache_points", before=True)
            read = lambda: query.bind(x).value(NATURAL)
        else:
            pause = Pause(query._engine(NATURAL), "query_batch")
            read = lambda: query.group_by([x], NATURAL).values()[0]
        join = run(read)
        assert pause.reached.wait(WAIT)
        with db.update() as tx:
            assert tx.set_weight("w", edge, 77) > 0
        pause.release.set()
        stale = join()
        fresh = naive(DEGREE, structure, NATURAL, x=x)
        assert stale != fresh
        assert len(db.result_cache) == 0  # the late result was dropped
        assert query.bind(x).value(NATURAL) == fresh
        assert query.group_by([x], NATURAL).values() == [fresh]


# -- (ii) computed after the engine update, put before the eviction ---------------


@pytest.mark.parametrize("hook,before", [("_apply_weight", False),
                                         ("affected_arguments", True)],
                         ids=["before-the-bump", "before-the-eviction"])
def test_a_read_inside_a_write_is_never_left_stale(hook, before):
    """The write is stopped with the engine updated and nothing evicted
    — before its epoch bump, or after it.  A probe of the point it
    reaches is computed over the new state meanwhile; its install waits
    for the write and is then dropped (submitted before the bump) or
    kept (after it, past the eviction) — correct either way."""
    structure = grid()
    edge = sorted(structure.weights["w"])[0]
    x = edge[0]
    with Database(structure.copy()) as db:
        service = db.serve(DEGREE, NATURAL)
        engine = service.prepared._engine(NATURAL)
        in_write = Pause(engine if before else service.prepared, hook,
                         before=before)

        def routed_write():
            with db.update() as tx:
                return tx.set_weight("w", edge, 77)

        join = run(routed_write)
        assert in_write.reached.wait(WAIT)
        assert db.epoch == int(before)
        computed = Pause(engine, "query_batch")
        future = service.submit(x)
        assert computed.reached.wait(WAIT)
        computed.release.set()
        in_write.release.set()
        assert join() > 0
        structure.set_weight("w", edge, 77)
        fresh = naive(DEGREE, structure, NATURAL, x=x)
        assert future.result(WAIT) == fresh
        assert service.query(x, timeout=WAIT) == fresh
        assert service.stats()["result_cache"]["hits"] == int(before)


# -- (iii) an invalidate-only update ------------------------------------------------


def test_invalidate_only_update_leaves_nothing_visible_and_drops_a_racing_put():
    structure = grid()
    a, b = next(pair for pair in itertools.permutations(structure.domain, 2)
                if pair not in structure.weights["w"])
    with Database(structure) as db:
        query = db.prepare(OUT_WEIGHT, params=("x",))
        table = query.group_by(NATURAL)
        assert len(db.result_cache) == len(structure.domain)
        other = next(v for v in structure.domain if v != a)
        pause = Pause(query, "_cache_points", before=True)
        scope = query._scope(NATURAL)
        scope.clear()  # so the racing read misses and computes
        join = run(lambda: query.bind(a).value(NATURAL))
        assert pause.reached.wait(WAIT)
        scope.put((other,), table[other])
        epoch = db.epoch
        with db.update() as tx:  # a brand-new tuple: nothing is touched,
            assert tx.set_weight("w", (a, b), 5) == 0  # the handle rebuilds
        assert db.epoch > epoch
        assert len(db.result_cache) == 0
        pause.release.set()
        assert join() == table[a]  # computed before the update
        assert len(db.result_cache) == 0  # ... and not installed after it
        after = query.group_by(NATURAL)
        assert after.stats["cache_hits"] == 0
        assert after[a] == table[a] + 5
        assert after.values() == [naive(OUT_WEIGHT, structure, NATURAL, x=v)
                                  for v in structure.domain]


# -- (iv) two handles on one database -----------------------------------------------


def test_a_write_and_an_invalidation_leave_the_other_handle_warm():
    structure = grid()
    for index, vertex in enumerate(structure.domain):
        structure.set_weight("u", (vertex,), index + 1)
    a, b = next(pair for pair in itertools.permutations(structure.domain, 2)
                if pair not in structure.weights["w"])
    edge = sorted(structure.weights["w"])[0]
    domain = structure.domain
    with Database(structure) as db:
        writes = db.prepare(OUT_WEIGHT, params=("x",))
        reads_u = db.prepare(NEIGHBOUR_U, params=("x",))
        writes.group_by(NATURAL)
        expected = reads_u.group_by(MIN_PLUS).values()
        scope = reads_u._scope(MIN_PLUS)

        def all_warm():
            hits, misses = scope.hits, scope.misses
            assert reads_u.group_by(MIN_PLUS).values() == expected
            assert [reads_u.bind(v).value(MIN_PLUS) for v in domain] \
                == expected
            return (scope.hits - hits, scope.misses - misses) \
                == (2 * len(domain), 0)

        with db.update() as tx:  # effective, but reads_u never reads w
            assert tx.set_weight("w", edge, 41) > 0
        assert all_warm()
        assert writes.group_by(NATURAL).stats["cache_misses"] == 1
        with db.update() as tx:  # invalidates `writes`, and only it
            tx.set_weight("w", (a, b), 5)
        assert writes._plan is None
        assert all_warm()
        with db.update() as tx:  # and a write reads_u does read reaches it
            assert tx.set_weight("u", (domain[0],), 50) > 0
        table = reads_u.group_by(MIN_PLUS)
        assert 0 < table.stats["cache_misses"] < len(domain)
        assert table.values() == [naive(NEIGHBOUR_U, structure, MIN_PLUS, x=v)
                                  for v in domain]


# -- (v) the scan fallback evicts what the product would ----------------------------


class TestEvictProduct:
    POSITIONS = (frozenset("ab"), frozenset("xyz"))  # six tuples
    REACHED = [("a", "x"), ("b", "z")]
    KEPT = [("c", "x"), ("a", "w"), ("a",), ("a", "x", "x"), "ax"]

    @pytest.mark.parametrize("scope", [None, "ns", ("svc", 1)])
    @pytest.mark.parametrize("kept", [KEPT, KEPT[:1]],
                             ids=["lookup", "scan"])
    def test_lookup_and_scan_evict_the_same_entries(self, scope, kept):
        cache = ResultCache(64)
        target = cache if scope is None else cache.scoped(scope)
        bystander = cache.scoped("bystander")
        bystander.put(("a", "x"), 0)
        for key in self.REACHED + kept:
            target.put(key, key)
        # A cache of 8 entries is looked up, one of 4 is scanned.
        scanned = math.prod(map(len, self.POSITIONS)) > len(cache)
        assert scanned == (len(kept) == 1)
        assert target.evict_product(self.POSITIONS) == len(cache) \
            == len(kept) + 1
        assert [target.get(key) for key in self.REACHED] \
            == [ResultCache.MISS] * 2
        assert [target.get(key) for key in kept] == kept
        assert bystander.get(("a", "x")) == 0

    def test_an_empty_position_reaches_nothing(self):
        cache = ResultCache(64)
        cache.put(("a", "x"), 1)
        assert cache.evict_product((frozenset(), frozenset("x"))) == 1


def test_arity_two_write_takes_the_scan_fallback_and_stays_exact():
    structure = grid()
    centre = max(structure.domain,
                 key=lambda v: sum(1 for e in structure.relations["E"]
                                   if e[0] == v))
    structure.add_tuple("S", (centre,))
    pairs = list(itertools.product(structure.domain, repeat=2))
    with Database(structure, result_cache_size=8) as db:
        query = db.prepare(VIA_S, params=("x", "y"), dynamic=("S",))
        cached = pairs[:8]
        before = dict(zip(cached, query.group_by(cached, NATURAL).values()))
        engine = query._engine(NATURAL)
        affected = engine.affected_arguments(
            (("dynrel", "S", (centre,), True),
             ("dynrel", "S", (centre,), False)))
        assert math.prod(map(len, affected)) > len(db.result_cache) == 8
        reached = [pair for pair in cached
                   if all(e in allowed for e, allowed in zip(pair, affected))]
        assert 0 < len(reached) < len(cached)
        with db.update() as tx:
            assert tx.set_relation("S", (centre,), False) > 0
        assert len(db.result_cache) == len(cached) - len(reached)
        table = query.group_by(cached, NATURAL)
        assert table.stats["cache_misses"] == len(reached)
        assert table.values() == [naive(VIA_S, structure, NATURAL,
                                        x=x, y=y) for x, y in cached]
        assert any(table[pair] != before[pair] for pair in reached)


# -- a failed analysis clears, it does not skip -------------------------------------


def raising(*_args, **_kwargs):
    raise RuntimeError("analysis failed")


def test_service_clears_its_cache_when_the_analysis_raises():
    structure = grid()
    edge = sorted(structure.weights["w"])[0]
    with Database(structure.copy()) as db:
        service = db.serve(DEGREE, NATURAL)
        probes = [(v,) for v in structure.domain]
        service.query_batch(probes, WAIT)
        service.prepared._engine(NATURAL).affected_arguments = raising
        with db.update() as tx:
            assert tx.set_weight("w", edge, 77) > 0
        assert len(db.result_cache) == 0
        structure.set_weight("w", edge, 77)
        assert service.query_batch(probes, WAIT) \
            == [naive(DEGREE, structure, NATURAL, x=v)
                for v in structure.domain]
        assert service.stats()["result_cache"]["hits"] == 0


def test_prepared_drops_its_scopes_when_the_analysis_raises_or_has_no_engine():
    structure = grid()
    edges = sorted(structure.weights["w"])
    with Database(structure) as db:
        query = db.prepare(DEGREE, params=("x",))
        bystander = db.prepare(DEGREE, params=("x",))
        query.group_by(NATURAL)
        query.group_by(MIN_PLUS)
        bystander.group_by(NATURAL)
        size = len(structure.domain)
        assert len(db.result_cache) == 3 * size
        query._engines[NATURAL.name].affected_arguments = raising
        query._engines[MIN_PLUS.name].affected_arguments = raising
        with db.update() as tx:
            assert tx.set_weight("w", edges[0], 77) > 0
        # Both of the failing handle's scopes went; the other handle
        # lost the points the write reaches, and only those.
        reached, = bystander._engine(NATURAL).affected_arguments(
            (("w", "w", edges[0]),))
        assert 0 < len(reached) < size
        assert len(db.result_cache) == size - len(reached)
        for sr in (NATURAL, MIN_PLUS):
            table = query.group_by(sr)
            assert table.stats["cache_hits"] == 0
            assert table.values() == [naive(DEGREE, structure, sr, x=v)
                                      for v in structure.domain]
        # Engines gone while entries remain (a teardown the router did
        # not see): nothing is provable, the scopes are dropped.
        del query._engines[NATURAL.name].affected_arguments
        del query._engines[MIN_PLUS.name].affected_arguments
        query._engines.clear()
        with db.update() as tx:
            assert tx.set_weight("w", edges[1], 78) > 0
        assert query.group_by(NATURAL).stats["cache_hits"] == 0


# -- stress: racing readers leave nothing stale behind ------------------------------


def test_racing_readers_and_writes_leave_no_stale_entry():
    """More readers than cores against a write stream, with a short
    switch interval: once the writers are done, every answer the caches
    still hold equals the reference over the final content (an install
    that slipped past the guard, or an eviction that missed it, would
    be served here)."""
    structure = grid(4)
    edges = sorted(structure.weights["w"])
    domain = structure.domain
    errors = []
    stop = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Database(structure) as db:
            query = db.prepare(DEGREE, params=("x",))
            service = db.serve(DEGREE, NATURAL)

            def reader(seed):
                rng = random.Random(seed)
                try:
                    while not stop.is_set():
                        vertex = rng.choice(domain)
                        query.bind(vertex).value(NATURAL)
                        query.group_by(rng.sample(domain, 3), NATURAL)
                        service.query(vertex, timeout=WAIT)
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            readers = [threading.Thread(target=reader, args=(seed,))
                       for seed in range(8)]
            for thread in readers:
                thread.start()
            rng = random.Random(99)
            for step in range(150):
                with db.update() as tx:
                    tx.set_weight("w", rng.choice(edges), 10 + step)
            stop.set()
            for thread in readers:
                thread.join(WAIT)
                assert not thread.is_alive()
            assert not errors, errors
            expected = [naive(DEGREE, structure, NATURAL, x=v) for v in domain]
            assert [query.bind(v).value(NATURAL) for v in domain] == expected
            assert query.group_by(NATURAL).values() == expected
            assert service.query_batch([(v,) for v in domain], WAIT) \
                == expected
            assert db.result_cache.stats()["hits"] > 0
    finally:
        sys.setswitchinterval(interval)
