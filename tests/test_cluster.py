"""Multi-process sharded serving: sharder, protocol, gateway, recovery.

Five families:

* the sharder — Gaifman-component placement (hash/contiguous/custom),
  full-schema shards, the cross-shard-tuple refusal policy, and the
  query-side ``check_shardable`` guarantee;
* the wire protocol — data-only codec round trips for every shipped
  carrier, refusal of un-servable values, frame integrity;
* ⊕-merge equivalence — for **all 13 shipped semirings**, the sharded
  gateway's point, batch, closed, and grouped answers equal the
  single-process ``PreparedQuery``'s, including after routed updates;
* robustness — worker death mid-load yields no wrong answers (respawn
  with plan-store warm restart), admission control sheds with the typed
  ``Overloaded``, deadlines raise ``TimeoutError`` with cancellation;
* the serving contract — both ``ClusterService`` and the single-process
  ``QueryService`` refuse semirings that do not declare their ``⊕``
  commutative/associative (``is_mergeable``).
"""

from __future__ import annotations

import asyncio
import math
import os
import signal
import threading
import time
from fractions import Fraction

import pytest

from repro.api import Database, ExecOptions
from repro.cluster import (ClusterCodecError, ClusterService, Overloaded,
                           ShardingError, check_shardable,
                           connected_components, shard_structure)
from repro.cluster.protocol import (check_wire_roundtrip, decode_message,
                                    decode_structure, decode_value,
                                    encode_message, encode_structure,
                                    encode_value, write_frame)
from repro.logic import Atom, Bracket, Sum, WConst, Weight, forall
from repro.semirings import (BOOLEAN, NATURAL, Semiring, ensure_mergeable,
                             FreeSemiring)
from repro.serve import PlanStore
from repro.structures import Structure

from tests.test_plan_store import SEMIRING_CASES
from tests.util import past_the_group_bound

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

#: f(x) = Σ_y [E(x, y)] * w(x, y) — per-element, shard-routable.
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
#: closed: total edge weight — fan-out + ⊕-merge.
EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))


def two_component_structure(conv=lambda v: v):
    """Two disjoint weighted paths — exactly two Gaifman components."""
    structure = Structure(["a0", "a1", "a2", "b0", "b1", "b2"])
    edges = [("a0", "a1"), ("a1", "a2"), ("b0", "b1"), ("b1", "b2")]
    for rank, (u, v) in enumerate(edges):
        structure.add_tuple("E", (u, v))
        structure.add_tuple("E", (v, u))
        structure.set_weight("w", (u, v), conv(rank + 1))
        structure.set_weight("w", (v, u), conv(rank + 2))
    return structure


def many_component_structure(parts=6, conv=lambda v: v):
    """``parts`` disjoint weighted edges (one component each)."""
    structure = Structure([f"v{i}{side}" for i in range(parts)
                           for side in "lr"])
    for i in range(parts):
        u, v = f"v{i}l", f"v{i}r"
        structure.add_tuple("E", (u, v))
        structure.add_tuple("E", (v, u))
        structure.set_weight("w", (u, v), conv(i + 1))
        structure.set_weight("w", (v, u), conv(i + 2))
    return structure


# -- the sharder -----------------------------------------------------------------

class TestSharder:
    def test_connected_components_in_domain_order(self):
        structure = two_component_structure()
        components = connected_components(structure)
        assert components == [["a0", "a1", "a2"], ["b0", "b1", "b2"]]

    @pytest.mark.parametrize("policy", ["hash", "contiguous"])
    def test_partition_routes_every_tuple(self, policy):
        structure = many_component_structure()
        plan = shard_structure(structure, 3, policy=policy)
        assert 1 <= len(plan.shards) <= 3
        assert plan.components == 6
        # Every element owned, every shard's domain disjoint and complete.
        seen = []
        for index, shard in enumerate(plan.shards):
            for element in shard.domain:
                assert plan.owner_of(element) == index
            seen.extend(shard.domain)
        assert sorted(seen) == sorted(structure.domain)
        # Every relation tuple and weight landed on exactly one shard.
        total_tuples = sum(len(shard.relations["E"])
                           for shard in plan.shards)
        assert total_tuples == len(structure.relations["E"])
        total_weights = sum(len(shard.weights["w"])
                            for shard in plan.shards)
        assert total_weights == len(structure.weights["w"])

    def test_every_shard_declares_the_full_schema(self):
        structure = two_component_structure()
        structure.add_tuple("OnlyA", ("a0",))
        plan = shard_structure(structure, 2, policy="contiguous")
        for shard in plan.shards:
            assert set(shard.relations) == {"E", "OnlyA"}
            assert set(shard.weights) == {"w"}
            assert shard.arity("OnlyA") == 1

    def test_contiguous_packs_domain_order_runs(self):
        structure = many_component_structure(parts=4)
        plan = shard_structure(structure, 2, policy="contiguous")
        assert len(plan.shards) == 2
        assert plan.shards[0].domain == ["v0l", "v0r", "v1l", "v1r"]
        assert plan.shards[1].domain == ["v2l", "v2r", "v3l", "v3r"]

    def test_hash_placement_is_stable_under_reordering(self):
        structure = two_component_structure()
        reordered = Structure(list(reversed(structure.domain)))
        for name, tuples in structure.relations.items():
            for tup in tuples:
                reordered.add_tuple(name, tup)
        for name, mapping in structure.weights.items():
            for tup, value in mapping.items():
                reordered.set_weight(name, tup, value)
        first = shard_structure(structure, 4).owner
        second = shard_structure(reordered, 4).owner
        # Component representatives differ ('a0' vs 'a2'), so only the
        # *within*-run stability is guaranteed: elements of one
        # component always land together.
        for plan_owner in (first, second):
            assert len({plan_owner[e] for e in ("a0", "a1", "a2")}) == 1
            assert len({plan_owner[e] for e in ("b0", "b1", "b2")}) == 1

    def test_more_shards_than_components_drops_empties(self):
        structure = two_component_structure()
        plan = shard_structure(structure, 5, policy="contiguous")
        assert len(plan.shards) == 2
        assert plan.requested == 5
        assert all(shard.domain for shard in plan.shards)

    def test_custom_assign_is_validated(self):
        structure = two_component_structure()
        with pytest.raises(ShardingError, match="does not place"):
            shard_structure(structure, 2, assign={"a0": 0})
        full = {element: 0 for element in structure.domain}
        with pytest.raises(ShardingError, match="outside"):
            shard_structure(structure, 2, assign={**full, "b0": 7})

    def test_custom_assign_splitting_a_tuple_is_refused(self):
        structure = two_component_structure()
        assign = {element: (0 if element != "a2" else 1)
                  for element in structure.domain}
        with pytest.raises(ShardingError, match="⊕-merge"):
            shard_structure(structure, 2, assign=assign)

    def test_shard_of_tuple_refuses_spans(self):
        structure = two_component_structure()
        plan = shard_structure(structure, 2, policy="contiguous")
        assert plan.shard_of_tuple(("a0", "a1")) == plan.owner_of("a0")
        with pytest.raises(ShardingError, match="spans shards"):
            plan.shard_of_tuple(("a0", "b0"))

    def test_unknown_element_raises_key_error(self):
        plan = shard_structure(two_component_structure(), 2)
        with pytest.raises(KeyError, match="not in the structure's domain"):
            plan.owner_of("zz")

    def test_bad_policy_and_shard_count(self):
        structure = two_component_structure()
        with pytest.raises(ValueError, match="shard_policy"):
            shard_structure(structure, 2, policy="round-robin")
        with pytest.raises(ValueError, match=">= 1"):
            shard_structure(structure, 0)


class TestCheckShardable:
    def test_accepts_connected_positive_queries(self):
        check_shardable(DEGREE)
        check_shardable(EDGE_SUM)
        check_shardable(Sum(("x", "y", "z"),
                            Bracket(E("x", "y") & E("y", "z"))
                            * w("x", "y")))

    def test_rejects_constant_terms(self):
        with pytest.raises(ShardingError, match="constant term"):
            check_shardable(DEGREE + WConst(1))

    def test_rejects_disconnected_variables(self):
        cross = Sum(("x", "y"), Bracket(Atom("S", ("x",)))
                    * Weight("u", ("y",)))
        with pytest.raises(ShardingError, match="not linked"):
            check_shardable(cross)

    def test_rejects_terms_missing_free_variables(self):
        partial = (Sum("y", Bracket(E("x", "y")) * w("x", "y"))
                   + Weight("u", ("z",)))
        with pytest.raises(ShardingError, match="never mentions"):
            check_shardable(partial)

    def test_rejects_universal_quantifiers(self):
        with pytest.raises(ShardingError, match="∀"):
            check_shardable(Sum("x", Bracket(
                forall("y", E("x", "y")) & Atom("S", ("x",)))))

    def test_rejects_negated_quantifiers(self):
        from repro.logic import Not, Exists
        with pytest.raises(ShardingError, match="negated quantifiers"):
            check_shardable(Sum("x", Bracket(
                Not(Exists(("y",), E("x", "y"))) & Atom("S", ("x",)))))

    def test_disjunction_keeps_only_common_edges(self):
        # Both branches link x-y -> accepted.
        from repro.logic import Or
        both = Sum(("x", "y"), Bracket(Or((E("x", "y"), E("y", "x"))))
                   * w("x", "y"))
        check_shardable(both)
        # Only one branch links them -> refused.
        one = Sum(("x", "y"), Bracket(
            Or((E("x", "y"), Atom("S", ("x",)) & Atom("S", ("y",))))))
        with pytest.raises(ShardingError, match="not linked"):
            check_shardable(one)


# -- the wire protocol -----------------------------------------------------------

class TestWireProtocol:
    @pytest.mark.parametrize("value", [
        None, True, 0, -3, 2.5, "text", math.inf, -math.inf,
        (1, ("a", 2)), [1, [2, 3]], {1, 2}, frozenset({"a", "b"}),
        Fraction(-7, 3), b"\x00\xffbytes",
        {"k": (1, 2), ("t", 1): frozenset({3})},
    ])
    def test_value_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value
        assert check_wire_roundtrip(value) == value

    def test_roundtrip_preserves_types(self):
        assert isinstance(decode_value(encode_value((1,))), tuple)
        assert isinstance(decode_value(encode_value([1])), list)
        assert isinstance(decode_value(encode_value({1})), set)
        assert isinstance(decode_value(encode_value(frozenset({1}))),
                          frozenset)

    def test_nan_survives(self):
        out = decode_value(encode_value(float("nan")))
        assert math.isnan(out)

    def test_unservable_carrier_is_refused(self):
        poly = FreeSemiring().one
        with pytest.raises(ClusterCodecError, match="data-only"):
            encode_value(poly)

    def test_message_framing_roundtrip(self):
        message = {"op": "batch", "id": 7, "args": [("a", 1)]}
        assert decode_message(encode_message(message)) == message

    def test_corrupt_frames_are_refused(self):
        frame = encode_message({"op": "ping", "id": 1})
        with pytest.raises(ClusterCodecError, match="declares"):
            decode_message(frame + b"junk")
        with pytest.raises(ClusterCodecError, match="truncated"):
            decode_message(b"\x00")

    def test_frame_bytes_are_pinned(self):
        # Every tag (t f s l q b m), the infinities and nested mappings:
        # the wire is one codec shared with the plan serializer, and its
        # bytes must not drift.
        message = {
            "op": "batch", "id": 3, "ok": True, "none": None,
            "args": [("a", 1), ("b", -2.5)],
            "values": [math.inf, -math.inf, Fraction(-7, 3),
                       b"\x00\xffok"],
            "sets": {"f": frozenset({"x", "y"}), "s": {3, 1, 2}},
            "nested": {("t", 1): {"inner": [frozenset({(1, 2)}),
                                            {"deep": 0}]}},
        }
        assert encode_message(message) == (
            b'\x00\x00\x01,["m",["op","batch"],["id",3],["ok",true],'
            b'["none",null],["args",["l",["t","a",1],["t","b",-2.5]]],'
            b'["values",["l",Infinity,-Infinity,["q",-7,3],'
            b'["b","AP9vaw=="]]],["sets",["m",["f",["f","x","y"]],'
            b'["s",["s",1,2,3]]]],["nested",["m",[["t","t",1],'
            b'["m",["inner",["l",["f",["t",1,2]],["m",["deep",0]]]]]]]]]')
        assert decode_message(encode_message(message)) == message

    def test_malformed_wire_values_are_codec_errors(self):
        for value in (["?", 1], [], {"raw": "dict"}, ["m", ["k"]]):
            with pytest.raises(ClusterCodecError, match="malformed wire"):
                decode_value(value)

    def test_structure_snapshot_roundtrip(self):
        structure = two_component_structure(lambda v: Fraction(v, 2))
        structure.add_tuple("OnlyA", ("a0",))
        clone = decode_structure(encode_structure(structure))
        assert clone.domain == structure.domain
        assert clone.relations == structure.relations
        assert clone.weights == structure.weights
        assert clone.fingerprint() == structure.fingerprint()


# -- ⊕-merge equivalence across every shipped semiring ---------------------------

class TestShardedEquivalence:
    @pytest.mark.parametrize("name,sr,conv", SEMIRING_CASES,
                             ids=[case[0] for case in SEMIRING_CASES])
    def test_matches_single_process(self, name, sr, conv):
        structure = two_component_structure(conv)
        with Database(structure.copy()) as db:
            prepared = db.prepare(DEGREE)
            service = db.serve_sharded(DEGREE, sr, shards=2,
                                         shard_policy="contiguous")
            assert len(service.handles) == 2
            # Point queries, one per element (routed to owning shards).
            for element in structure.domain:
                assert (service.query_sync(element)
                        == prepared.bind(x=element).value(sr))
            # One caller-assembled batch spanning both shards.
            batch = [(element,) for element in structure.domain]
            assert (service.query_batch_sync(batch)
                    == prepared.batch(batch, sr))
            # A {var: element} item is the mapping form of its tuple.
            assert (service.query_batch_sync([{"x": element}
                                              for (element,) in batch])
                    == prepared.batch(batch, sr))
            # The grouped sweep (canonical enumeration order).
            assert (list(service.group_by_sync())
                    == list(prepared.group_by(None, sr)))
            # A routed update, then every mode again.
            with db.update() as tx:
                tx.set_weight("w", ("a0", "a1"), conv(5))
            for element in ("a0", "a1", "b0"):
                assert (service.query_sync(element)
                        == prepared.bind(x=element).value(sr))
            assert (list(service.group_by_sync())
                    == list(prepared.group_by(None, sr)))

    def test_closed_query_fans_out_and_merges(self):
        structure = many_component_structure(parts=5)
        with Database(structure.copy()) as db:
            expected = db.prepare(EDGE_SUM).value(NATURAL)
            service = db.serve_sharded(EDGE_SUM, NATURAL, shards=3,
                                       shard_policy="contiguous")
            assert service.query_sync() == expected
            stats = service.stats()
            assert stats["merge_seconds"] >= 0
            assert stats["shards"] == len(service.handles) >= 2

    def test_explicit_group_keys_and_having_rollup(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            prepared = db.prepare(DEGREE)
            service = db.serve_sharded(DEGREE, NATURAL, shards=2,
                                       shard_policy="contiguous")
            keys = ["a0", "b1", "a2", "b2"]
            assert (list(service.group_by_sync(keys))
                    == list(prepared.group_by(keys, NATURAL)))
            having = lambda value: value > 2
            assert (list(service.group_by_sync(keys, having=having,
                                               rollup=True))
                    == list(prepared.group_by(keys, NATURAL,
                                              having=having, rollup=True)))

    def test_cross_shard_arguments_resolve_to_zero(self):
        structure = two_component_structure()
        pair = Bracket(E("x", "y")) * w("x", "y")
        with Database(structure.copy()) as db:
            prepared = db.prepare(pair)
            service = db.serve_sharded(pair, NATURAL, shards=2,
                                       shard_policy="contiguous")
            # Same-shard pair: the true value; cross-shard: sr.zero
            # without any worker round trip.
            assert (service.query_sync("a0", "a1")
                    == prepared.bind(x="a0", y="a1").value(NATURAL))
            before = service.stats()["zero_routed"]
            assert service.query_sync("a0", "b0") == NATURAL.zero
            assert service.stats()["zero_routed"] == before + 1

    def test_async_api_round_trip(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            prepared = db.prepare(DEGREE)
            service = db.serve_sharded(DEGREE, NATURAL, shards=2,
                                       shard_policy="contiguous")

            async def drive():
                async with service:
                    single = await service.query("a1")
                    batch = await service.query_batch(
                        [(element,) for element in structure.domain])
                    table = await service.group_by()
                    return single, batch, list(table)

            single, batch, rows = asyncio.run(drive())
            assert single == prepared.bind(x="a1").value(NATURAL)
            assert batch == prepared.batch(
                [(element,) for element in structure.domain], NATURAL)
            assert rows == list(prepared.group_by(None, NATURAL))
            assert service.closed

    def test_unshardable_query_is_refused_eagerly(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            with pytest.raises(ShardingError):
                db.serve_sharded(DEGREE + WConst(1), NATURAL, shards=2)

    def test_unservable_semiring_is_refused_eagerly(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            with pytest.raises(ClusterCodecError):
                db.serve_sharded(DEGREE, FreeSemiring(), shards=2)

    def test_full_domain_group_by_routes_keys_to_owners(self, monkeypatch):
        # An arity-2 query over three components: the gateway enumerates
        # every key, sends each same-shard key to its owner in one batch
        # per shard, and zero-fills the cross-shard ones itself.
        from repro.cluster import gateway
        sent = []

        def recording_write_frame(conn, message):
            sent.append(message["op"])
            write_frame(conn, message)

        structure = many_component_structure(parts=3)
        pair = Weight("w", ("x", "y"))
        with Database(structure.copy()) as db:
            prepared = db.prepare(pair)
            service = db.serve_sharded(pair, NATURAL, shards=3,
                                       shard_policy="contiguous")
            assert len(service.handles) == 3
            monkeypatch.setattr(gateway, "write_frame",
                                recording_write_frame)
            table = service.group_by_sync()
            expected = prepared.group_by(None, NATURAL)
            assert list(table) == list(expected)
            assert len(table.keys()) == len(structure.domain) ** 2
            assert table[("v0l", "v1r")] == NATURAL.zero  # cross-shard
            assert table[("v2l", "v2r")] == 3
            assert sent == ["batch"] * 3
            assert "group_by" not in sent

    def test_enumerated_group_domain_is_bounded_at_the_gateway(
            self, monkeypatch):
        # One group past DEFAULT_MAX_GROUPS is refused before any shard
        # is asked; explicit keys still route and merge.
        from repro.cluster import gateway
        sent = []

        def recording_write_frame(conn, message):
            sent.append(message["op"])
            write_frame(conn, message)

        structure, pair = past_the_group_bound()
        with Database(structure.copy()) as db:
            service = db.serve_sharded(pair, NATURAL, shards=2,
                                       params=("x", "y"))
            monkeypatch.setattr(gateway, "write_frame",
                                recording_write_frame)
            with pytest.raises(ValueError, match="66049 groups"):
                service.group_by_sync()
            assert sent == []
            table = service.group_by_sync([(0, 1), (1, 0)])
            assert table.values() == [1, 0]


# -- updates through the database router -----------------------------------------

class TestRoutedUpdates:
    def test_cross_shard_weight_update_is_refused(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            db.serve_sharded(DEGREE, NATURAL, shards=2,
                                       shard_policy="contiguous")
            with pytest.raises(KeyError, match="spans shards"):
                with db.update() as tx:
                    tx.set_weight("w", ("a0", "b0"), 9)

    def test_cross_shard_relation_toggle_is_refused(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            db.serve_sharded(DEGREE, NATURAL, shards=2,
                                       shard_policy="contiguous")
            with pytest.raises(ValueError, match="cannot absorb"):
                with db.update() as tx:
                    tx.set_relation("E", ("a0", "b0"), True)

    def test_relation_toggle_routes_to_owner(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            prepared = db.prepare(DEGREE)
            service = db.serve_sharded(DEGREE, NATURAL, shards=2,
                                       shard_policy="contiguous")
            with db.update() as tx:
                tx.set_relation("E", ("a0", "a2"), True)
                tx.set_weight("w", ("a0", "a2"), 4)
            assert (service.query_sync("a0")
                    == prepared.bind(x="a0").value(NATURAL))

    def test_database_close_drains_the_gateway(self):
        structure = two_component_structure()
        db = Database(structure.copy())
        service = db.serve_sharded(DEGREE, NATURAL, shards=2,
                                       shard_policy="contiguous")
        db.close()
        assert service.closed
        with pytest.raises(RuntimeError, match="closed"):
            service.query_sync("a0")

    def test_request_racing_close_is_refused_not_parked(self, monkeypatch):
        # close() may land between a caller's open check and its enqueue;
        # the dispatchers have drained and exited by then, so the enqueue
        # itself must refuse — a parked request would wait forever.
        structure = two_component_structure()
        service = ClusterService(
            structure.copy(), DEGREE, NATURAL, shards=2,
            options=ExecOptions(shard_policy="contiguous"))
        service.close()
        with pytest.raises(RuntimeError, match="cluster service is closed"):
            service._enqueue(0, "point", ("a0",))
        monkeypatch.setattr(service, "_check_open", lambda: None)
        edge = sorted(structure.weights["w"])[0]
        for late in (lambda: service.submit("a0"),
                     lambda: service.update_weight("w", edge, 5),
                     lambda: service.set_relation("E", edge, True),
                     service.worker_stats):
            with pytest.raises(RuntimeError, match="cluster service is closed"):
                late()
        # The admitted submit gave its admission slot back.
        stats = service.stats()
        assert (stats["pending"], stats["clients"]) == (0, 0)


# -- robustness: recovery, admission, deadlines ----------------------------------

class TestRecovery:
    def test_killed_worker_respawns_with_no_wrong_answers(self, tmp_path):
        structure = two_component_structure()
        with Database(structure.copy(),
                      plan_store=PlanStore(tmp_path / "plans")) as db:
            prepared = db.prepare(DEGREE)
            service = db.serve_sharded(DEGREE, NATURAL, shards=2,
                                       shard_policy="contiguous")
            # A routed update the respawned worker must not forget.
            with db.update() as tx:
                tx.set_weight("w", ("a0", "a1"), 7)
            expected = {element: prepared.bind(x=element).value(NATURAL)
                        for element in structure.domain}
            for round_ in range(2):
                victim = service.stats()["workers"][round_ % 2]
                os.kill(victim["pid"], signal.SIGKILL)
                got = {element: service.query_sync(element)
                       for element in structure.domain}
                assert got == expected
            stats = service.stats()
            assert stats["respawns"] >= 2
            assert all(entry["alive"] for entry in stats["workers"])
            # Warm restart: the respawned worker of the *untouched*
            # shard loaded its plan from the shared store (the updated
            # shard's fingerprint moved, so it recompiles — and saves
            # the new plan for the next respawn).
            hits = [entry["stats"]["plan_store"]["hits"]
                    for entry in service.worker_stats()]
            assert any(count >= 1 for count in hits)

    def test_worker_death_mid_request_retries_transparently(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            prepared = db.prepare(DEGREE)
            service = db.serve_sharded(DEGREE, NATURAL, shards=2,
                                       shard_policy="contiguous")
            target = "a1"
            shard = service._plan.owner_of(target)
            pid = service.stats()["workers"][shard]["pid"]
            # Freeze the worker so the request is in flight, then kill:
            # the dispatcher must respawn and retry, not fail or hang.
            os.kill(pid, signal.SIGSTOP)
            future = service.submit(target)
            time.sleep(0.05)
            os.kill(pid, signal.SIGKILL)
            os.kill(pid, signal.SIGCONT)
            assert future.result(timeout=30) == \
                prepared.bind(x=target).value(NATURAL)
            assert service.stats()["respawns"] >= 1


class TestAdmission:
    def _frozen_service(self, db, **knobs):
        structure_service = db.serve_sharded(DEGREE, NATURAL, shards=2,
                                             shard_policy="contiguous",
                                             **knobs)
        for entry in structure_service.stats()["workers"]:
            os.kill(entry["pid"], signal.SIGSTOP)
        return structure_service

    def _thaw(self, service):
        for entry in service.stats()["workers"]:
            try:
                os.kill(entry["pid"], signal.SIGCONT)
            except ProcessLookupError:  # pragma: no cover
                pass

    def test_gateway_cap_sheds_with_typed_overloaded(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            service = self._frozen_service(db, max_pending=2)
            try:
                first = service.submit("a0")
                second = service.submit("a1")
                with pytest.raises(Overloaded) as shed:
                    service.submit("a2")
                assert shed.value.scope == "gateway"
                assert shed.value.limit == 2
                assert service.stats()["sheds"] == 1
            finally:
                self._thaw(service)
            assert first.result(timeout=30) is not None
            assert second.result(timeout=30) is not None
            # Capacity frees as requests complete: admitted again.
            assert service.query_sync("a2", timeout=30) is not None

    def test_per_client_cap_keeps_other_clients_admitted(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            service = self._frozen_service(db,
                                           max_inflight_per_client=1)
            try:
                held = service.submit("a0", client="greedy")
                with pytest.raises(Overloaded) as shed:
                    service.submit("a1", client="greedy")
                assert shed.value.scope == "client"
                other = service.submit("a1", client="polite")
            finally:
                self._thaw(service)
            assert held.result(timeout=30) is not None
            assert other.result(timeout=30) is not None

    def test_group_by_is_one_admission_unit(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            service = db.serve_sharded(DEGREE, NATURAL, shards=2,
                                       shard_policy="contiguous",
                                       max_inflight_per_client=1)
            # 6 groups >> the per-client cap of 1, yet one call fits.
            table = service.group_by_sync(timeout=30)
            assert len(list(table)) == len(structure.domain)


class TestDeadlines:
    def test_sync_timeout_raises_builtin_timeout_error(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            service = db.serve_sharded(DEGREE, NATURAL, shards=2,
                                       shard_policy="contiguous")
            pids = [entry["pid"] for entry in service.stats()["workers"]]
            for pid in pids:
                os.kill(pid, signal.SIGSTOP)
            try:
                with pytest.raises(TimeoutError, match="timed out"):
                    service.query_sync("a0", timeout=0.2)
            finally:
                for pid in pids:
                    os.kill(pid, signal.SIGCONT)
            # The gateway recovers once the workers thaw.
            assert service.query_sync("a0", timeout=30) is not None

    def test_async_timeout_cancels_queued_request(self):
        structure = two_component_structure()
        with Database(structure.copy()) as db:
            service = db.serve_sharded(DEGREE, NATURAL, shards=2,
                                       shard_policy="contiguous",
                                       request_timeout=0.2)
            pids = [entry["pid"] for entry in service.stats()["workers"]]
            for pid in pids:
                os.kill(pid, signal.SIGSTOP)

            async def drive():
                with pytest.raises(TimeoutError):
                    await service.query("a0")

            try:
                asyncio.run(drive())
            finally:
                for pid in pids:
                    os.kill(pid, signal.SIGCONT)
            # The per-service default applies; explicit timeouts win.
            assert service.query_sync("a0", timeout=30) is not None


# -- the is_mergeable contract ---------------------------------------------------

class _NoncommutativeSemiring(Semiring):
    """⊕ = string concatenation: associative but not commutative."""

    name = "concat"
    is_mergeable = False
    zero = ""
    one = "1"

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return f"({a}*{b})" if a != self.one and b != self.one \
            else (b if a == self.one else a)


class TestMergeableContract:
    def test_ensure_mergeable_passes_and_refuses(self):
        assert ensure_mergeable(NATURAL) is NATURAL
        with pytest.raises(ValueError, match="is_mergeable"):
            ensure_mergeable(_NoncommutativeSemiring(), "shard merge")

    def test_cluster_service_refuses_unmergeable_semirings(self):
        structure = two_component_structure(str)
        with Database(structure.copy()) as db:
            with pytest.raises(ValueError, match="is_mergeable"):
                db.serve_sharded(DEGREE, _NoncommutativeSemiring(),
                                 shards=2)

    def test_query_service_refuses_unmergeable_semirings(self):
        structure = two_component_structure(str)
        with pytest.raises(ValueError, match="is_mergeable"):
            Database(structure).serve(DEGREE, _NoncommutativeSemiring())

    def test_boolean_still_accepted_everywhere(self):
        structure = two_component_structure(lambda v: v > 0)
        service = Database(structure).serve(DEGREE, BOOLEAN)
        try:
            assert service.query(structure.domain[0]) in (True, False)
        finally:
            service.close()
