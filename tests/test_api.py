"""The unified repro.api facade: Database / PreparedQuery / ExecOptions.

Covers the five execution modes behind one handle (static value,
batched evaluation, bound point queries, maintained updates,
enumeration) plus serve(), the routed update context (maintenance,
invalidation, epoch/cache coherence, out-of-band detection), the
consolidated option validation (with a census of the knobs), and the
shared cache lifecycles.
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
import warnings

import pytest

from repro.api import Database, ExecOptions
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import BOOLEAN, MIN_PLUS, NATURAL
from repro.structures import Structure

from tests.util import semiring_params, weighted_graph_structure
from repro.graphs import triangulated_grid

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

#: Closed: total edge weight.
EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))
#: One parameter: weighted out-degree.
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))


def build(side=3, seed=2):
    return weighted_graph_structure(triangulated_grid(side, side), seed=seed)


def reference_degree(structure, vertex, conv=lambda v: v, zero=0):
    total = zero
    for (a, b), value in structure.weights["w"].items():
        if a == vertex:
            total = total + value
    return total


class TestExecOptions:
    def test_backend_validated_eagerly_with_shared_message(self):
        with pytest.raises(ValueError, match="unknown backend 'cuda'"):
            ExecOptions(backend="cuda")

    def test_all_knob_bounds(self):
        for bad in (dict(max_groups=0), dict(max_batch_size=0),
                    dict(plan_cache_size=0), dict(result_cache_size=-1),
                    dict(shard_policy="round-robin"), dict(max_pending=0),
                    dict(max_inflight_per_client=0),
                    dict(request_timeout=0)):
            with pytest.raises(ValueError):
                ExecOptions(**bad)

    def test_census_every_knob_is_a_documented_decision(self):
        """A new knob is a reviewed decision: it changes this list and
        gets a mention in the README."""
        names = [field.name for field in dataclasses.fields(ExecOptions)]
        assert names == [
            "backend", "exact_mode", "optimize", "max_batch_size",
            "max_groups", "plan_cache_size", "result_cache_size",
            "plan_store", "shard_policy", "max_pending",
            "max_inflight_per_client", "request_timeout", "verify"]
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
            readme = handle.read()
        assert [name for name in names if f"`{name}" not in readme] == []

    def test_merged_revalidates_and_rejects_unknown(self):
        options = ExecOptions()
        assert options.merged() is options
        assert options.merged(max_batch_size=4).max_batch_size == 4
        with pytest.raises(ValueError):
            options.merged(backend="gpu")
        with pytest.raises(TypeError, match="unknown execution option"):
            options.merged(batch_size=3)
        # Removed knobs fail as loudly as a typo.
        for removed in (dict(workers=4), dict(pool_size=2),
                        dict(max_batch_delay=0.001)):
            with pytest.raises(TypeError, match="unknown execution option"):
                options.merged(**removed)

    def test_database_and_call_level_overrides(self):
        db = Database(build(), max_batch_size=2, result_cache_size=0)
        assert db.options.max_batch_size == 2
        assert db.result_cache is None
        prepared = db.prepare(EDGE_SUM, backend="python")
        assert prepared.options.backend == "python"
        assert prepared.options.max_batch_size == 2  # inherited
        with pytest.raises(TypeError, match="unknown execution option"):
            db.serve(DEGREE, NATURAL, max_batch_delay=0.001)
        db.close()
        for removed in (dict(workers=2), dict(pool_size=2)):
            with pytest.raises(TypeError, match="unknown execution option"):
                Database(build(), **removed)

    def test_invalid_backend_rejected_at_every_seam(self, small_grid_structure):
        with Database(small_grid_structure) as db:
            with pytest.raises(ValueError, match="unknown backend"):
                db.prepare(EDGE_SUM, backend="fpga")
            prepared = db.prepare(DEGREE)
            with pytest.raises(ValueError, match="unknown backend"):
                prepared.batch([(small_grid_structure.domain[0],)], NATURAL,
                               backend="fpga")
            with pytest.raises(ValueError, match="unknown backend"):
                db.serve(DEGREE, NATURAL, backend="fpga")


class TestExecutionModes:
    @semiring_params()
    def test_value_matches_direct_evaluation(self, sr, conv):
        structure = weighted_graph_structure(triangulated_grid(3, 3),
                                             seed=3, conv=conv)
        with Database(structure) as db:
            total = db.prepare(EDGE_SUM).value(sr)
        expected = sr.zero
        for edge, value in structure.weights["w"].items():
            expected = sr.add(expected, value)
        assert sr.eq(total, expected)

    def test_value_requires_closed_query(self):
        with Database(build()) as db:
            prepared = db.prepare(DEGREE)
            with pytest.raises(ValueError, match="parameters"):
                prepared.value(NATURAL)

    def test_batch_closed_valuations(self):
        structure = build()
        edges = sorted(structure.relations["E"])[:3]
        with Database(structure) as db:
            prepared = db.prepare(EDGE_SUM)
            base = prepared.value(NATURAL)
            values = prepared.batch(
                [{}] + [{("w", "w", edge): 0} for edge in edges], NATURAL)
            assert values[0] == base
            for edge, dropped in zip(edges, values[1:]):
                assert dropped == base - structure.weights["w"][edge]

    def test_batch_parameterized_argument_tuples(self):
        structure = build()
        probes = structure.domain[:5]
        with Database(structure) as db:
            prepared = db.prepare(DEGREE)
            values = prepared.batch([(v,) for v in probes], NATURAL)
        assert values == [reference_degree(structure, v) for v in probes]

    def test_bind_positional_and_keyword(self):
        structure = build()
        vertex = structure.domain[4]
        with Database(structure) as db:
            prepared = db.prepare(DEGREE)
            expected = reference_degree(structure, vertex)
            assert prepared.bind(vertex).value(NATURAL) == expected
            assert prepared.bind(x=vertex).value(NATURAL) == expected
            with pytest.raises(ValueError, match="expected 1 arguments"):
                prepared.bind(vertex, vertex)
            with pytest.raises(ValueError, match="do not match params"):
                prepared.bind(y=vertex)
            with pytest.raises(TypeError):
                prepared.bind(vertex, x=vertex)

    def test_bind_results_cached_until_effective_update(self):
        structure = build()
        vertex = structure.domain[0]
        edge = next(e for e in sorted(structure.relations["E"])
                    if e[0] == vertex)
        with Database(structure) as db:
            prepared = db.prepare(DEGREE)
            before = prepared.bind(vertex).value(NATURAL)
            prepared.bind(vertex).value(NATURAL)
            assert db.result_cache.stats()["hits"] == 1
            # A no-op write keeps the cache warm.
            with db.update() as tx:
                assert tx.set_weight("w", edge,
                                     structure.weights["w"][edge]) == 0
            prepared.bind(vertex).value(NATURAL)
            assert db.result_cache.stats()["hits"] == 2
            # An effective write advances the epoch and invalidates.
            original = structure.weights["w"][edge]
            with db.update() as tx:
                assert tx.set_weight("w", edge, 0) > 0
            assert prepared.bind(vertex).value(NATURAL) == before - original
            assert db.epoch == 1

    def test_a_zero_result_cache_size_disables_a_handles_caching(self):
        structure = build()
        vertex = structure.domain[0]
        expected = reference_degree(structure, vertex)
        with Database(structure) as db:
            prepared = db.prepare(DEGREE, result_cache_size=0)
            for _ in range(2):
                assert prepared.bind(vertex).value(NATURAL) == expected
            assert prepared.group_by(NATURAL).stats["cache_hits"] == 0
            assert db.result_cache.stats()["hits"] == 0
            assert len(db.result_cache) == 0
            # Another handle on the same database still caches.
            cached = db.prepare(DEGREE)
            for _ in range(2):
                assert cached.bind(vertex).value(NATURAL) == expected
            assert db.result_cache.stats()["hits"] == 1

    def test_maintain_tracks_routed_updates(self):
        structure = build()
        edge = sorted(structure.relations["E"])[0]
        original = structure.weights["w"][edge]
        with Database(structure) as db:
            prepared = db.prepare(EDGE_SUM)
            maintained = db.prepare(EDGE_SUM).maintain(NATURAL)
            base = maintained.value()
            assert base == prepared.value(NATURAL)
            touched = maintained.update_weight("w", edge, original + 5)
            assert touched > 0
            assert maintained.value() == base + 5
            # The same routed update reached the *other* prepared handle.
            assert prepared.value(NATURAL) == base + 5
            # maintain() is cached per semiring.
            again = db.prepare(EDGE_SUM)
            assert again.maintain(NATURAL) is again.maintain(NATURAL)

    def test_maintain_rejects_parameterized(self):
        with Database(build()) as db:
            with pytest.raises(ValueError, match="closed query"):
                db.prepare(DEGREE).maintain(NATURAL)

    def test_enumerate_answers_of_formula(self):
        structure = build()
        formula = E("x", "y")
        with Database(structure) as db:
            prepared = db.prepare(formula, params=("x", "y"))
            answers = set(prepared.enumerate())
            assert answers == set(structure.relations["E"])
            # The same prepared handle also evaluates: existence + count.
            assert prepared.bind(*sorted(answers)[0]).value(BOOLEAN)

    def test_enumerators_compile_through_the_plan_cache(self):
        structure = build()
        for vertex in structure.domain[::2]:
            structure.add_tuple("S", (vertex,))
        formula = E("x", "y") & Atom("S", ("x",))
        with Database(structure) as db:
            prepared = db.prepare(formula, params=("x", "y"),
                                  dynamic=("S",))
            first = prepared.enumerate()
            before = db.plan_cache.stats()
            second = prepared.enumerate()
            after = db.plan_cache.stats()
            assert after["hits"] == before["hits"] + 1
            assert after["misses"] == before["misses"]
            answers = {(x, y) for x, y in structure.relations["E"]
                       if structure.has_tuple("S", (x,))}
            assert set(first) == set(second) == answers
            # Each enumerator got its own rebind of the one plan: a
            # toggle on one never shows in the other (or in the cache).
            outside = structure.domain[1]
            first.set_relation("S", (outside,), True)
            gained = {(x, y) for x, y in structure.relations["E"]
                      if x == outside}
            assert gained and set(first) == answers | gained
            assert set(second) == answers
            assert set(prepared.enumerate()) == answers
            # The provenance enumerator rides the same tiers.
            closed = db.prepare(EDGE_SUM)
            closed.enumerate()
            before = db.plan_cache.stats()
            closed.enumerate()
            after = db.plan_cache.stats()
            assert (after["hits"], after["misses"]) == \
                (before["hits"] + 1, before["misses"])

    def test_enumerate_provenance_monomials(self):
        structure = Structure(["a", "b", "c"])
        for pair in [("a", "b"), ("b", "c")]:
            structure.add_tuple("E", pair)
            structure.set_weight("w", pair, f"e{pair[0]}{pair[1]}")
        expr = Sum(("x", "y"), w("x", "y"))
        with Database(structure) as db:
            monomials = sorted(db.prepare(expr).enumerate().monomials())
        assert monomials == [("eab",), ("ebc",)]

    def test_enumerate_rejects_open_weighted_expr(self):
        with Database(build()) as db:
            with pytest.raises(ValueError, match="enumerate"):
                db.prepare(DEGREE).enumerate()

    def test_explain_and_stats(self):
        with Database(build()) as db:
            prepared = db.prepare(EDGE_SUM)
            stats = prepared.stats()
            assert stats["gates"] > 0 and stats["kind"] == "weighted"
            text = prepared.explain()
            assert "circuit:" in text and "options:" in text
            lazy = db.prepare(DEGREE)
            assert lazy.stats().get("compiled") is False
            assert "not compiled" in lazy.explain()


class TestServe:
    def test_serve_prewired_to_shared_caches(self):
        structure = build(4)
        probe = structure.domain[7]
        with Database(structure) as db:
            with db.serve(DEGREE, NATURAL) as service:
                # The eager set-up compile went through the shared cache.
                assert db.plan_cache.stats()["misses"] == 1
                expected = reference_degree(structure, probe)
                assert service.query(probe) == expected
                assert service.query(probe) == expected
                stats = service.stats()
                assert stats["result_cache"]["hits"] >= 1
                assert stats["result_cache"].get("shared") is True
            # A second service over equal content reuses the compilation.
            with db.serve(DEGREE, NATURAL) as service:
                service.query(probe)
            assert db.plan_cache.stats()["hits"] >= 1

    def test_serve_accepts_formulas_like_prepare(self):
        structure = build(3)
        edge = sorted(structure.relations["E"])[0]
        with Database(structure) as db:
            with db.serve(Atom("E", ("x", "y")), NATURAL,
                          params=("x", "y")) as service:
                assert service.query(*edge) == 1
                assert service.query(edge[0], edge[0]) == 0

    def test_scoped_result_caches_do_not_collide(self):
        structure = build(3)
        probe = structure.domain[0]
        drop = Sum("y", Bracket(E("x", "y")))  # unweighted out-degree
        weighted_ref = reference_degree(structure, probe)
        count_ref = sum(1 for (a, _) in structure.relations["E"]
                        if a == probe)
        with Database(structure) as db:
            with db.serve(DEGREE, NATURAL) as weighted:
                with db.serve(drop, NATURAL) as unweighted:
                    assert weighted.query(probe) == weighted_ref
                    assert unweighted.query(probe) == count_ref
                    # Same key (the probe), different scopes: each service
                    # re-hits its *own* cached value, never the other's.
                    assert weighted.query(probe) == weighted_ref
                    assert unweighted.query(probe) == count_ref

    def test_routed_updates_reach_services(self):
        structure = build(3)
        vertex = structure.domain[0]
        edge = next(e for e in sorted(structure.relations["E"])
                    if e[0] == vertex)
        original = structure.weights["w"][edge]
        with Database(structure) as db:
            with db.serve(DEGREE, NATURAL) as service:
                before = service.query(vertex)
                with db.update() as tx:
                    touched = tx.set_weight("w", edge, 0)
                assert touched > 0
                assert service.query(vertex) == before - original

    def test_unmaintainable_writes_recompile_a_live_service(self):
        """A write the service cannot maintain in place — a toggle of a
        relation not declared dynamic, a brand-new weight tuple — is not
        refused: the service's handle is invalidated and recompiles
        lazily, like any prepared handle, and serves the new content."""
        structure = build(3)
        vertex = structure.domain[0]
        target = next(v for v in structure.domain if v != vertex
                      and (vertex, v) not in structure.relations["E"])
        with Database(structure) as db:
            with db.serve(DEGREE, NATURAL) as service:
                before = service.query(vertex)
                with db.update() as tx:
                    tx.set_relation("E", (vertex, target), True)
                    tx.set_weight("w", (vertex, target), 7)
                assert db.plan_cache.stats()["misses"] == 1
                assert service.query(vertex) == before + 7 \
                    == reference_degree(structure, vertex)
                assert db.plan_cache.stats()["misses"] == 2
                # Recompiled, the service maintains the new tuple in place.
                with db.update() as tx:
                    assert tx.set_weight("w", (vertex, target), 9) > 0
                assert service.query(vertex) == before + 9
                assert db.plan_cache.stats()["misses"] == 2

    def test_service_group_by_honours_max_groups(self):
        structure = build(3)
        with Database(structure, max_groups=4) as db:
            with db.serve(DEGREE, NATURAL) as service:
                with pytest.raises(ValueError, match="max_groups=4"):
                    service.group_by(None)
                table = service.group_by(None, max_groups=9)
                assert len(list(table)) == len(structure.domain) == 9

    def test_irrelevant_updates_skip_live_services(self):
        """A write the service's query provably never reads is routed
        past it instead of being refused database-wide."""
        structure = build(3)
        vertex = structure.domain[0]
        structure.relations.setdefault("S", set())
        structure._arity.setdefault("S", 1)
        count_s = Sum("x", Bracket(Atom("S", ("x",))))
        with Database(structure) as db:
            with db.serve(DEGREE, NATURAL) as service:  # reads E, w only
                before = service.query(vertex)
                counter = db.prepare(count_s, dynamic=("S",))
                with db.update() as tx:
                    tx.set_weight("aux", (vertex,), 9)   # new weight name
                    tx.set_relation("S", (vertex,), True)  # undeclared rel
                assert counter.value(NATURAL) == 1
                assert service.query(vertex) == before  # untouched


class TestUpdateRouting:
    def test_new_weight_tuple_invalidates_and_recompiles(self):
        structure = build(3)
        vertex, other = structure.domain[0], structure.domain[1]
        structure.set_weight("u", (other,), 0)  # declared for one element
        with Database(structure) as db:
            prepared = db.prepare(
                Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))
                + Sum("x", Weight("u", ("x",))))
            base = prepared.value(NATURAL)
            assert base == sum(structure.weights["w"].values())
            with db.update() as tx:
                # (vertex,) was *not* declared at compile time: outside
                # the maintenance model -> invalidate + lazy recompile.
                tx.set_weight("u", (vertex,), 5)
            assert prepared.value(NATURAL) == base + 5

    def test_dynamic_relation_maintained_incrementally(self):
        # Count S-marked vertices; S is declared dynamic.
        structure = build(3)
        structure.relations.setdefault("S", set())
        structure._arity.setdefault("S", 1)
        count_s = Sum("x", Bracket(Atom("S", ("x",))))
        vertex = structure.domain[0]
        with Database(structure) as db:
            maintained = db.prepare(count_s, dynamic=("S",)).maintain(NATURAL)
            assert maintained.value() == 0
            touched = maintained.set_relation("S", (vertex,), True)
            assert touched > 0
            assert maintained.value() == 1
            maintained.set_relation("S", (vertex,), False)
            assert maintained.value() == 0

    def test_undeclared_relation_toggle_invalidates(self):
        structure = build(3)
        structure.relations.setdefault("S", set())
        structure._arity.setdefault("S", 1)
        count_s = Sum("x", Bracket(Atom("S", ("x",))))
        vertex = structure.domain[0]
        with Database(structure) as db:
            prepared = db.prepare(count_s)  # S *not* declared dynamic
            assert prepared.value(NATURAL) == 0
            with db.update() as tx:
                tx.set_relation("S", (vertex,), True)
            # The stale plan was dropped and recompiled, not served.
            assert prepared.value(NATURAL) == 1

    def test_invalidation_only_weight_update_kills_cached_points(self):
        """Regression: an update absorbed by *no* consumer (a brand-new
        weight tuple -> invalidate + lazy recompile) must still advance
        the epoch, or cached bound results survive the change."""
        structure = build(3)
        vertex, other = structure.domain[0], structure.domain[1]
        structure.set_weight("u", (other,), 1)
        with Database(structure) as db:
            g = db.prepare(Weight("u", ("x",)), params=("x",))
            assert g.bind(vertex).value(NATURAL) == 0  # cached at epoch 0
            with db.update() as tx:
                tx.set_weight("u", (vertex,), 100)  # new tuple: touched 0
            assert g.bind(vertex).value(NATURAL) == 100

    def test_absorbed_toggle_invalidates_other_consumers_caches(self):
        """Regression: a toggle absorbed by one consumer (touched 0, no
        maintained handle) while invalidating another must advance the
        epoch for the invalidated one's cached bound results."""
        structure = build(3)
        structure.relations.setdefault("S", set())
        structure._arity.setdefault("S", 1)
        vertex = structure.domain[0]
        count_s = Sum("x", Bracket(Atom("S", ("x",))))
        with Database(structure) as db:
            absorber = db.prepare(count_s, dynamic=("S",))
            absorber.value(NATURAL)  # compile the absorbing plan
            holder = db.prepare(Bracket(Atom("S", ("x",))), params=("x",))
            assert holder.bind(vertex).value(NATURAL) == 0  # cached
            with db.update() as tx:
                tx.set_relation("S", (vertex,), True)
            assert holder.bind(vertex).value(NATURAL) == 1
            assert absorber.value(NATURAL) == 1

    def test_out_of_band_mutation_detected_and_invalidated(self):
        structure = build(3)
        edge = sorted(structure.relations["E"])[0]
        vertex = structure.domain[0]
        with Database(structure) as db:
            prepared = db.prepare(EDGE_SUM)
            degree = db.prepare(DEGREE)
            base = prepared.value(NATURAL)
            point = degree.bind(vertex).value(NATURAL)
            epoch = db.epoch
            # Bypass the facade entirely: a raw structure write.
            structure.set_weight("w", edge, structure.weights["w"][edge] + 9)
            assert prepared.value(NATURAL) == base + 9
            assert db.epoch > epoch  # caches invalidated
            expected = point + (9 if edge[0] == vertex else 0)
            assert degree.bind(vertex).value(NATURAL) == expected

    def test_read_inside_transaction_keeps_maintenance(self):
        """Regression: a facade read *inside* db.update() must not
        mistake the transaction's own writes for out-of-band mutations
        and flush every compiled artifact."""
        structure = build(3)
        edge = sorted(structure.relations["E"])[0]
        original = structure.weights["w"][edge]
        with Database(structure) as db:
            prepared = db.prepare(EDGE_SUM)
            maintained = prepared.maintain(NATURAL)
            base = maintained.value()
            evaluator = prepared._engines[NATURAL.name]
            plan = prepared._plan
            with db.update() as tx:
                tx.set_weight("w", edge, 0)
                # The mid-transaction read sees the new value...
                assert prepared.value(NATURAL) == base - original
            # ...without the incremental machinery being torn down.
            assert prepared._engines[NATURAL.name] is evaluator
            assert prepared._plan is plan
            assert maintained.value() == base - original

    def test_unreferenced_weight_update_keeps_everything_warm(self):
        """A weight name the expression never reads cannot change its
        value: no invalidation, no epoch bump, caches stay warm."""
        structure = build(3)
        vertex = structure.domain[0]
        with Database(structure) as db:
            prepared = db.prepare(DEGREE)
            expected = prepared.bind(vertex).value(NATURAL)
            engine = prepared._engines[NATURAL.name]
            with db.update() as tx:
                tx.set_weight("aux", (vertex,), 123)  # not read by DEGREE
            assert prepared.bind(vertex).value(NATURAL) == expected
            assert db.result_cache.stats()["hits"] == 1  # served warm
            assert prepared._engines[NATURAL.name] is engine

    def test_unreferenced_relation_toggle_keeps_caches_warm(self):
        """Symmetric to the weight case: a toggle of a relation no
        consumer reads must not advance the epoch."""
        structure = build(3)
        structure.relations.setdefault("S", set())
        structure._arity.setdefault("S", 1)
        vertex = structure.domain[0]
        with Database(structure) as db:
            prepared = db.prepare(DEGREE)  # reads E and w only
            expected = prepared.bind(vertex).value(NATURAL)
            epoch = db.epoch
            with db.update() as tx:
                tx.set_relation("S", (vertex,), True)
            assert db.epoch == epoch
            assert prepared.bind(vertex).value(NATURAL) == expected
            assert db.result_cache.stats()["hits"] == 1  # served warm

    def test_shared_result_cache_across_databases_never_collides(self):
        """Two Databases may share one ResultCache (one memory budget);
        their scope namespaces must still be disjoint."""
        from repro.serve import ResultCache
        shared = ResultCache(256)
        s1 = build(3, seed=2)
        s2 = build(3, seed=9)  # same shape, different weights
        vertex = s1.domain[0]
        with Database(s1, result_cache=shared) as db1:
            with Database(s2, result_cache=shared) as db2:
                q1 = db1.prepare(DEGREE)
                q2 = db2.prepare(DEGREE)
                assert q1.bind(vertex).value(NATURAL) == \
                    reference_degree(s1, vertex)
                assert q2.bind(vertex).value(NATURAL) == \
                    reference_degree(s2, vertex)

    def test_closed_consumers_release_their_cached_results(self):
        structure = build(3)
        vertex = structure.domain[0]
        with Database(structure) as db:
            prepared = db.prepare(DEGREE)
            prepared.bind(vertex).value(NATURAL)
            with db.serve(DEGREE, NATURAL) as service:
                service.query(vertex)
                assert len(db.result_cache) == 2
            # service closed: its scoped entries are purged.
            assert len(db.result_cache) == 1
            prepared.close()
            assert len(db.result_cache) == 0

    def test_concurrent_binds_are_consistent(self):
        """The shared engine's selector protocol is a critical section:
        concurrent binds must never observe each other's selectors."""
        structure = build(4)
        expected = {v: reference_degree(structure, v)
                    for v in structure.domain}
        with Database(structure, result_cache_size=0) as db:
            prepared = db.prepare(DEGREE)
            errors = []

            def worker(seed):
                rng = random.Random(seed)
                try:
                    for _ in range(25):
                        v = rng.choice(structure.domain)
                        got = prepared.bind(v).value(NATURAL)
                        if got != expected[v]:
                            errors.append((v, got, expected[v]))
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors

    def test_concurrent_binds_under_routed_updates_no_stale_no_leaks(self):
        """Hammer one Database handle from many reader threads while a
        writer routes ``db.update()`` weight writes through the facade
        hot path — with the shared result cache *enabled*, so the
        epoch-tagging is what stands between a racing bind and a stale
        cached point.  Afterwards every bind must reflect the final
        routed state (no stale cached points) and the host structure
        must carry no selector weights (no leaks), alive or closed.

        One writer only ever flips a single edge between two values, and
        nobody else writes that edge's source vertex: a ``bind().value()``
        reader and a live service watching that vertex must see the pre-
        or the post-write degree, never a third value — a write patches
        the memoized base columns while batches are in flight."""
        structure = build(4)
        edges = sorted(structure.relations["E"])
        flipped = edges[0]
        watched = flipped[0]
        others = [edge for edge in edges if edge[0] != watched]
        rest = reference_degree(structure, watched) \
            - structure.weights["w"][flipped]
        allowed = {rest + 2, rest + 7}
        with Database(structure) as db:
            prepared = db.prepare(DEGREE)
            service = db.serve(DEGREE, NATURAL)
            errors = []
            stop = threading.Event()
            with db.update() as tx:
                tx.set_weight("w", flipped, 2)

            def watcher(read):
                try:
                    while not stop.is_set():
                        value = read()
                        if value not in allowed:
                            errors.append(("watcher", value, allowed))
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            def flipper():
                try:
                    for round_ in range(60):
                        with db.update() as tx:
                            tx.set_weight("w", flipped, 7 if round_ % 2
                                          else 2)
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            def reader(seed):
                rng = random.Random(seed)
                try:
                    while not stop.is_set():
                        v = rng.choice(structure.domain)
                        value = prepared.bind(v).value(NATURAL)
                        if not isinstance(value, int) or value < 0:
                            errors.append(("reader", v, value))
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            def writer(seed):
                rng = random.Random(1000 + seed)
                try:
                    for _round in range(20):
                        with db.update() as tx:
                            for edge in rng.sample(others, 3):
                                tx.set_weight("w", edge, rng.randint(1, 9))
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            readers = [threading.Thread(target=reader, args=(seed,))
                       for seed in range(6)]
            readers += [threading.Thread(target=watcher, args=(read,))
                        for read in (
                            lambda: prepared.bind(watched).value(NATURAL),
                            lambda: service.query(watched, timeout=30))]
            writers = [threading.Thread(target=writer, args=(seed,))
                       for seed in range(2)]
            writers.append(threading.Thread(target=flipper))
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join()
            stop.set()
            for thread in readers:
                thread.join()
            assert not errors
            # No stale cached points: every post-quiescence bind agrees
            # with a from-scratch reference over the final weights.
            for v in structure.domain:
                assert prepared.bind(v).value(NATURAL) \
                    == service.query(v, timeout=30) \
                    == reference_degree(structure, v)
            # Nothing but the routed writes ever touched the facade's
            # host structure — selectors are circuit inputs, not data.
            assert set(structure.weights) == {"w"}
        assert set(structure.weights) == {"w"}

    def test_update_context_reports_touched(self):
        structure = build(3)
        edges = sorted(structure.relations["E"])[:2]
        with Database(structure) as db:
            maintained = db.prepare(EDGE_SUM).maintain(NATURAL)
            maintained.value()  # materialize the dynamic evaluator
            with db.update() as tx:
                tx.set_weight("w", edges[0], 0)
                tx.set_weight("w", edges[1], 0)
                assert tx.touched > 0


class TestLifecycle:
    def test_close_strips_selectors_and_rejects_use(self):
        structure = build(3)
        db = Database(structure)
        prepared = db.prepare(DEGREE)
        fingerprint = structure.fingerprint()
        prepared.bind(structure.domain[0]).value(NATURAL)
        # The plan compiles over the caller's structure itself and
        # installs nothing in it.
        assert set(structure.weights) == {"w"}
        assert structure.fingerprint() == fingerprint
        db.close()
        assert structure.fingerprint() == fingerprint
        with pytest.raises(RuntimeError, match="closed"):
            prepared.bind(structure.domain[0]).value(NATURAL)
        with pytest.raises(RuntimeError, match="closed"):
            db.prepare(EDGE_SUM)
        db.close()  # idempotent

    def test_out_of_band_mutation_invalidates_services(self):
        """A write that bypasses the facade invalidates a live service's
        handle like any other: once the freshness check has run, the
        service stays open, recompiles and serves the mutated content."""
        structure = build(3)
        vertex = structure.domain[0]
        edge = next(e for e in sorted(structure.relations["E"])
                    if e[0] == vertex)
        with Database(structure) as db:
            service = db.serve(DEGREE, NATURAL)
            before = service.query(vertex)
            old = structure.weights["w"][edge]
            structure.set_weight("w", edge, 999)  # bypasses db.update()
            db.prepare(EDGE_SUM)  # any facade call runs the freshness check
            assert not service.closed
            assert service.query(vertex) == before - old + 999 \
                == reference_degree(structure, vertex)
            assert service.stats()["result_cache"]["hits"] == 0

    def test_closed_handles_are_deregistered(self):
        structure = build(3)
        with Database(structure) as db:
            for _ in range(5):
                prepared = db.prepare(EDGE_SUM)
                prepared.value(NATURAL)
                prepared.close()
            assert db.stats()["prepared"] == 0  # close() deregisters
            with db.serve(DEGREE, NATURAL) as service:
                service.query(structure.domain[0])
            db.prepare(EDGE_SUM)  # registration prunes the closed service
            assert db.stats()["services"] == 0

    def test_facade_paths_emit_no_deprecation_warnings(self):
        structure = build(3)
        vertex = structure.domain[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Database(structure) as db:
                prepared = db.prepare(EDGE_SUM)
                prepared.value(NATURAL)
                prepared.value(MIN_PLUS)
                prepared.batch([{}], NATURAL)
                prepared.maintain(NATURAL).value()
                degree = db.prepare(DEGREE)
                degree.bind(vertex).value(NATURAL)
                degree.batch([(vertex,)], NATURAL)
                db.prepare(E("x", "y"), params=("x", "y")).enumerate()
                with db.serve(DEGREE, NATURAL) as service:
                    service.query(vertex)
                with db.update() as tx:
                    edge = sorted(structure.relations["E"])[0]
                    tx.set_weight("w", edge, 3)


class TestOnePlan:
    """One compilation per prepared query, whatever the mode and the
    semiring: selectors are circuit inputs, so neither the structure's
    fingerprint nor any plan key knows which carrier evaluates."""

    #: Weight-free, so valid in every carrier: the out-degree of ``x``.
    OUT_DEGREE = Sum("y", Bracket(E("x", "y")))

    def cases(self):
        from repro.semirings import FreeSemiring
        from tests.test_plan_store import SEMIRING_CASES
        cases = [(name, sr) for name, sr, _ in SEMIRING_CASES]
        assert len(cases) == 13
        # The provenance carrier: its zero is a Poly, which used to keep
        # a served plan out of the store altogether.
        return cases + [("free", FreeSemiring())]

    def read_everything(self, db, structure):
        from repro.logic import eval_expression, model_for
        domain = structure.domain
        fingerprint = structure.fingerprint()
        query = db.prepare(self.OUT_DEGREE, params=("x",))
        for name, sr in self.cases():
            model = model_for(structure, sr.zero)
            expected = [eval_expression(self.OUT_DEGREE, model, sr, {"x": v})
                        for v in domain]
            reads = {
                "bind": [query.bind(v).value(sr) for v in domain],
                "batch": query.batch([(v,) for v in domain], sr),
                "group_by": query.group_by(None, sr).values(),
            }
            for mode, got in reads.items():
                assert all(map(sr.eq, got, expected)), (name, mode)
            assert set(structure.weights) == set()
            assert structure.fingerprint() == fingerprint
        assert query.stats()["engines"] == sorted(
            sr.name for _, sr in self.cases())
        return query

    def test_one_compile_serves_every_semiring_and_mode(self):
        from repro.structures import graph_structure
        structure = graph_structure(triangulated_grid(3, 3))
        # No result cache: every mode must compute, none read another's.
        with Database(structure, result_cache_size=0) as db:
            query = self.read_everything(db, structure)
            stats = db.plan_cache.stats()
            assert (stats["misses"], stats["hits"]) == (1, 0)
            assert query.plan() is query._plan  # a single plan, any arity

    def test_one_store_entry_serves_every_semiring(self, tmp_path):
        from repro.core import close_over, plan_cache_key
        from repro.structures import graph_structure
        structure = graph_structure(triangulated_grid(3, 3))
        with Database(structure, plan_store_path=tmp_path,
                      result_cache_size=0) as db:
            self.read_everything(db, structure)
            stats = db.stats()["plan_store"]
            assert (stats["saves"], stats["skips"]) == (1, 0)
            # Both tiers key on the structure and the closed form alone.
            assert list(db.plan_cache._entries) == [plan_cache_key(
                structure, close_over(self.OUT_DEGREE, ("x",)))]
        with Database(structure.copy(), plan_store_path=tmp_path) as fresh:
            self.read_everything(fresh, fresh.structure)
            stats = fresh.stats()["plan_store"]
            assert (stats["hits"], stats["misses"], stats["saves"]) \
                == (1, 0, 0)

    def test_a_routed_write_is_recorded_once_per_handle(self, monkeypatch):
        from repro.core import CompiledQuery
        from repro.semirings import INTEGER
        structure = build(3)
        edge = sorted(structure.relations["E"])[0]
        recorded = []
        record = CompiledQuery._record
        monkeypatch.setattr(
            CompiledQuery, "_record",
            lambda self, key, kind, raw: recorded.append(key)
            or record(self, key, kind, raw))
        with Database(structure) as db:
            query = db.prepare(DEGREE, params=("x",))
            for sr in (NATURAL, MIN_PLUS, INTEGER):
                query.bind(edge[0]).value(sr)
            with db.update() as tx:
                assert tx.set_weight("w", edge, 9) > 0
            assert recorded == [("w", "w", edge)]
            for sr in (NATURAL, MIN_PLUS, INTEGER):
                assert query.bind(edge[0]).value(sr) \
                    == query.batch([(edge[0],)], sr)[0]
