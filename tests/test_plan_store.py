"""Serializable compiled plans and the persistent on-disk plan store.

Four families:

* round-trip equivalence — every shipped semiring's compiled plan
  survives ``to_state``/``from_state`` with identical ``evaluate``/
  ``evaluate_batch`` results — before and after interleaved writes —
  and hypothesis-random circuits survive the circuit codec
  byte-for-byte (their schedules are rebuilt identical);
* the binary container — version stamps invalidate stale entries,
  corruption is detected, the atom codec covers the whole vocabulary
  and rejects what it cannot express;
* :class:`repro.serve.PlanStore` — hits, misses, stale/corrupt entries,
  concurrent writers, LRU capping, unserializable-plan skips;
* the facade seam — ``Database(s, plan_store=PlanStore(path))`` and
  ``REPRO_PLAN_STORE`` make a fresh database serve its first query
  without recompiling.
"""

from __future__ import annotations

import json
import os
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.api import Database, ExecOptions
from repro.circuits import (PLAN_FORMAT_VERSION, PlanNotSerializable,
                            PlanStaleError, PlanStateError, StaticEvaluator,
                            build_schedule, circuit_from_state,
                            circuit_to_state, decode_atom, dump_plan_bytes,
                            encode_atom, load_plan_bytes)
from repro.circuits.serialize import atom_codec
from repro.core import (CompiledQuery, compile_structure_query,
                        plan_cache_key)
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import (BOOLEAN, INF, INTEGER, MAX_PLUS, MIN_MAX,
                             MIN_PLUS, NATURAL, RATIONAL, BoundedMinMax,
                             FloatField, FreeSemiring, ModularRing,
                             ProductSemiring, SetAlgebra,
                             saturating_counter_semiring)
from repro.serve import PlanStore
from repro.structures import graph_structure
from repro.graphs import triangulated_grid

from tests.test_properties import circuits
from tests.util import enumerator_over

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

TRIANGLE = Sum(("x", "y", "z"),
               Bracket(E("x", "y") & E("y", "z") & E("z", "x"))
               * w("x", "y") * w("y", "z") * w("z", "x"))
EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))

#: Every shipped semiring with a converter from small nonnegative ints
#: to *serializable* carrier values (the FreeSemiring's Poly carrier is
#: deliberately absent — it is the unserializable case, tested below).
SEMIRING_CASES = [
    ("B", BOOLEAN, lambda v: v > 0),
    ("set-algebra", SetAlgebra(frozenset("abc")),
     lambda v: frozenset("abc"[:1 + v % 3])),
    ("N", NATURAL, lambda v: v),
    ("Z", INTEGER, lambda v: v - 2),
    ("Q", RATIONAL, lambda v: Fraction(v, 3)),
    ("float", FloatField(), float),
    ("min-plus", MIN_PLUS, lambda v: float(v) if v else INF),
    ("max-plus", MAX_PLUS, lambda v: float(v) if v else -INF),
    ("min-max", MIN_MAX, lambda v: v if v else INF),
    ("min-max-3", BoundedMinMax(3), lambda v: min(v, 3)),
    ("Z_7", ModularRing(7), lambda v: v % 7),
    ("sat-4", saturating_counter_semiring(4), lambda v: min(v, 4)),
    ("N x B", ProductSemiring(NATURAL, BOOLEAN), lambda v: (v, v > 0)),
]


def weighted_structure(conv=lambda v: v, side: int = 3):
    structure = graph_structure(triangulated_grid(side, side))
    for index, edge in enumerate(sorted(structure.relations["E"])):
        structure.set_weight("w", edge, conv(index % 5))
    return structure


def roundtrip(compiled, structure, expr):
    """to_state -> container bytes -> from_state, over ``structure``."""
    blob = dump_plan_bytes(compiled.to_state())
    return CompiledQuery.from_state(load_plan_bytes(blob), structure, expr)


# -- round-trip equivalence ------------------------------------------------------


@pytest.mark.parametrize("sr,conv",
                         [(sr, conv) for _, sr, conv in SEMIRING_CASES],
                         ids=[name for name, _, _ in SEMIRING_CASES])
@pytest.mark.parametrize("expr", [TRIANGLE, EDGE_SUM],
                         ids=["triangle", "edge-sum"])
def test_roundtrip_preserves_results_per_semiring(sr, conv, expr):
    structure = weighted_structure(conv)
    compiled = compile_structure_query(structure, expr)
    loaded = roundtrip(compiled, weighted_structure(conv), expr)
    assert sr.eq(loaded.evaluate(sr), compiled.evaluate(sr))
    # Batched evaluation: base valuation plus an override batch.
    edges = sorted(structure.relations["E"])[:2]
    valuations = [{}, {("w", "w", edges[0]): conv(3)},
                  {("w", "w", edge): sr.one for edge in edges}]
    assert all(sr.eq(a, b) for a, b in
               zip(loaded.evaluate_batch(sr, valuations, backend="python"),
                   compiled.evaluate_batch(sr, valuations,
                                           backend="python")))


def test_roundtrip_preserves_dynamic_updates():
    structure = weighted_structure()
    compiled = compile_structure_query(structure, TRIANGLE)
    loaded = roundtrip(compiled, weighted_structure(), TRIANGLE)
    edge = sorted(structure.relations["E"])[0]
    for plan in (compiled, loaded):
        handle = plan.dynamic(NATURAL)
        handle.update_weight("w", edge, 7)
    assert (loaded.dynamic(NATURAL).value()
            == compiled.dynamic(NATURAL).value())


def test_loaded_plan_serves_interleaved_writes_like_the_live_one(tmp_path):
    """The state holds the circuit and its inputs, nothing else — and
    that is all a write ever touches: after every step of one
    interleaved ``update_weight``/``set_relation`` stream, a plan that
    crossed the container agrees with the one that never left memory,
    in ``N``, in ``MIN_PLUS`` and answer by answer through an
    enumerator."""
    from repro.logic.fo import Atom as FoAtom
    structure = weighted_structure()
    edges = sorted(structure.relations["E"])
    for edge in edges[::3]:
        structure.add_tuple("F", edge)
    expr = Sum(("x", "y"), Bracket(E("x", "y") & Atom("F", ("x", "y")))
               * w("x", "y"))
    live = compile_structure_query(structure, expr, dynamic_relations=["F"])
    assert sorted(live.to_state()) == [
        "circuit", "decomposition", "dynamic_relations", "format",
        "recorded"]
    loaded = roundtrip(live, structure.copy(), expr)
    for name in ("gates", "colors", "color_subsets", "max_forest_height"):
        assert loaded.stats()[name] == live.stats()[name] > 0
    formula = FoAtom("E", ("x", "y")) & FoAtom("F", ("x", "y"))
    stores = [PlanStore(tmp_path), PlanStore(tmp_path)]
    listed, relisted = (
        enumerator_over(structure.copy(), formula, ("x", "y"),
                        dynamic=["F"], plan_store=store)
        for store in stores)
    assert [store.stats()["hits"] for store in stores] == [0, 1]
    maintained = [plan.dynamic(NATURAL) for plan in (live, loaded)]
    for step, edge in enumerate(edges):
        for handle in maintained:
            handle.update_weight("w", edge, step + 2)
            handle.set_relation("F", edge, bool(step % 2))
        for enumerator in (listed, relisted):
            enumerator.set_relation("F", edge, bool(step % 2))
        assert maintained[1].value() == maintained[0].value()
        for sr in (NATURAL, MIN_PLUS):
            assert loaded.evaluate(sr) == live.evaluate(sr)
            assert (loaded.evaluate_batch(sr, [{}])
                    == live.evaluate_batch(sr, [{}]))
        assert list(relisted) == list(listed)
    assert loaded.recorded == live.recorded
    assert sorted(listed) == sorted(live.structure.relations["F"]) != []
    assert maintained[1].value() == compile_structure_query(
        loaded.structure, expr).evaluate(NATURAL)


def test_roundtrip_preserves_enumeration():
    structure = weighted_structure(side=2)
    free = FreeSemiring()
    # Provenance enumeration needs Free-carrier weights, which cannot
    # serialize — enumerate through the *facade* instead, whose
    # enumerators compile from the (serializable) formula plan side.
    from repro.logic.fo import Atom as FoAtom
    formula = FoAtom("E", ("x", "y"))  # quantifier-free (Theorem 24)
    with Database(structure.copy()) as db:
        plain = sorted(db.prepare(formula, params=("x", "y")).enumerate())
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        with Database(structure.copy(), plan_store=PlanStore(tmp)) as db:
            stored = sorted(db.prepare(formula,
                                       params=("x", "y")).enumerate())
    assert plain == stored
    del free


@given(data=st.data())
def test_random_circuits_roundtrip_byte_identically(data):
    circuit, keys = data.draw(circuits())
    state = circuit_to_state(circuit)
    # Through the container (JSON + zlib), not just the dict.
    rebuilt = circuit_from_state(load_plan_bytes(dump_plan_bytes(state)))
    assert rebuilt.gates == circuit.gates
    assert rebuilt.output == circuit.output
    assert rebuilt.inputs == circuit.inputs
    # And the codec is deterministic: same circuit, same bytes.
    assert (json.dumps(circuit_to_state(rebuilt), sort_keys=True)
            == json.dumps(state, sort_keys=True))
    values = {key: data.draw(st.integers(0, 6)) for key in keys}
    assert (StaticEvaluator(rebuilt, NATURAL, values.get).value()
            == StaticEvaluator(circuit, NATURAL, values.get).value())


@given(data=st.data())
def test_random_schedules_roundtrip(data):
    # No schedule is stored: gate ids cross the codec verbatim, so the
    # schedule a loaded plan builds is the one the compiler built.
    circuit, _ = data.draw(circuits())
    schedule = build_schedule(circuit)
    rebuilt = build_schedule(circuit_from_state(
        load_plan_bytes(dump_plan_bytes(circuit_to_state(circuit)))))
    assert list(rebuilt.layer_of.items()) == list(schedule.layer_of.items())
    assert rebuilt.input_gates == schedule.input_gates
    assert rebuilt.const_gates == schedule.const_gates


# -- the atom codec and the container --------------------------------------------


@pytest.mark.parametrize("value", [
    None, True, False, 0, -7, 3.5, float("inf"), "x", (1, ("a", 2)),
    frozenset({1, 2}), {"k"}, [1, [2]], Fraction(22, 7), b"\x00\xff",
    (frozenset({("n", 1)}), [Fraction(-1, 3)]),
])
def test_atom_codec_roundtrip(value):
    encoded = encode_atom(value)
    json.dumps(encoded)  # must be JSON-expressible
    assert decode_atom(encoded) == value
    assert type(decode_atom(encoded)) is type(value)


def test_atom_codec_rejects_out_of_vocabulary():
    class Opaque:
        pass
    with pytest.raises(PlanNotSerializable):
        encode_atom(Opaque())
    with pytest.raises(PlanStateError):
        decode_atom(["unknown-tag", 1])


def test_plan_codec_refuses_mapping_atoms():
    # The wire codec's "m" tag is not part of the plan vocabulary: plan
    # bytes are untrusted, so a mapping atom is an unknown tag on load
    # and a dict is unserializable on save.
    mapping = ["m", ["k", 1]]
    with pytest.raises(PlanStateError, match="unknown atom tag 'm'"):
        decode_atom(mapping)
    assert atom_codec(mappings=True)[1](mapping) == {"k": 1}
    with pytest.raises(PlanNotSerializable):
        encode_atom({"k": 1})
    structure = weighted_structure()
    state = json.loads(json.dumps(
        compile_structure_query(structure, EDGE_SUM).to_state()))
    state["recorded"][0][2] = mapping
    with pytest.raises(PlanStateError, match="unknown atom tag 'm'"):
        CompiledQuery.from_state(state, structure)


def test_container_rejects_version_skew_and_corruption():
    blob = dump_plan_bytes({"x": 1})
    assert load_plan_bytes(blob) == {"x": 1}
    with pytest.raises(PlanStaleError):
        load_plan_bytes(dump_plan_bytes({"x": 1},
                                        format_version=PLAN_FORMAT_VERSION
                                        + 1))
    with pytest.raises(PlanStaleError):
        load_plan_bytes(dump_plan_bytes({"x": 1}, library_version="0.0.0"))
    with pytest.raises(PlanStateError):
        load_plan_bytes(b"GARBAGE" + blob[7:])  # wrong magic
    with pytest.raises(PlanStateError):
        load_plan_bytes(blob[:-3])  # truncated payload
    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF  # corrupt the compressed payload
    with pytest.raises(PlanStateError):
        load_plan_bytes(bytes(flipped))


def test_from_state_rejects_malformed_plans():
    structure = weighted_structure()
    state = compile_structure_query(structure, EDGE_SUM).to_state()
    with pytest.raises(PlanStateError):
        CompiledQuery.from_state("not-a-dict", structure)
    stale = dict(state, format=PLAN_FORMAT_VERSION + 1)
    with pytest.raises(PlanStateError):
        CompiledQuery.from_state(stale, structure)
    bad = json.loads(json.dumps(state))
    bad["recorded"][0][1] = "?"  # unknown recorded kind
    with pytest.raises(PlanStateError):
        CompiledQuery.from_state(bad, structure)
    cyclic = json.loads(json.dumps(state))
    cyclic["circuit"]["gates"][-1] = ["+", [10 ** 6, 0]]  # dangling child
    with pytest.raises(PlanStateError):
        CompiledQuery.from_state(cyclic, structure)


# -- PlanStore -------------------------------------------------------------------


def store_key(structure, expr=EDGE_SUM):
    return plan_cache_key(structure, expr, frozenset(), True)


def test_store_miss_save_hit(tmp_path):
    structure = weighted_structure()
    store = PlanStore(tmp_path)
    key = store_key(structure)
    assert store.load(key, structure, EDGE_SUM) is None
    compiled = compile_structure_query(structure, EDGE_SUM)
    assert store.save(key, compiled)
    fresh = PlanStore(tmp_path)  # cross-process: no in-memory state
    loaded = fresh.load(key, weighted_structure(), EDGE_SUM)
    assert loaded is not None
    assert loaded.evaluate(NATURAL) == compiled.evaluate(NATURAL)
    assert store.stats()["misses"] == 1 and store.stats()["saves"] == 1
    assert fresh.stats()["hits"] == 1
    assert len(fresh) == 1


def test_store_corrupt_entry_recompiles_not_crashes(tmp_path):
    structure = weighted_structure()
    store = PlanStore(tmp_path)
    key = store_key(structure)
    store.save(key, compile_structure_query(structure, EDGE_SUM))
    (entry,) = list(tmp_path.iterdir())
    entry.write_bytes(b"\x00" * 64)
    assert store.load(key, structure, EDGE_SUM) is None
    assert store.stats()["errors"] == 1
    assert len(store) == 0  # bad entry discarded
    # The compile seam recovers end to end: corrupt entry -> recompile
    # -> the store is healthy again.
    store.save(key, compile_structure_query(structure, EDGE_SUM))
    entry.write_bytes(entry.read_bytes()[:40])  # truncate
    compiled = compile_structure_query(structure, EDGE_SUM,
                                        plan_store=store)
    assert compiled.evaluate(NATURAL) is not None
    assert store.stats()["saves"] == 3  # re-saved after the truncation


def test_store_version_skew_counts_stale(tmp_path):
    structure = weighted_structure()
    store = PlanStore(tmp_path)
    key = store_key(structure)
    store.save(key, compile_structure_query(structure, EDGE_SUM))
    (entry,) = list(tmp_path.iterdir())
    state = load_plan_bytes(entry.read_bytes())
    entry.write_bytes(dump_plan_bytes(state, library_version="0.0.1"))
    assert store.load(key, structure, EDGE_SUM) is None
    assert store.stats()["stale"] == 1
    assert len(store) == 0  # stale entry removed


def test_plan_written_under_the_old_format_is_a_stale_miss(tmp_path):
    """The state layout moved twice (``recorded`` gained the value-less
    selector kind; forests, coloring and the schedule left), and the
    format number with it: an entry a previous build left behind is a
    counted ``stale`` miss followed by a recompile and a rewrite — never
    an error, never a plan decoded under the wrong vocabulary."""
    assert PLAN_FORMAT_VERSION == 3
    deg = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
    with Database(weighted_structure(), plan_store=PlanStore(tmp_path)) as db:
        element = db.structure.domain[0]
        cold = db.prepare(deg, params=("x",)).bind(element).value(NATURAL)
    (entry,) = list(tmp_path.iterdir())
    state = load_plan_bytes(entry.read_bytes())
    # What the previous build wrote: its layout under its format number.
    state["plan"].update(format=PLAN_FORMAT_VERSION - 1, schedule=None,
                         coloring=[], forests=[])
    del state["plan"]["decomposition"]
    old = dump_plan_bytes(state, format_version=PLAN_FORMAT_VERSION - 1)
    entry.write_bytes(old)
    with Database(weighted_structure(), plan_store=PlanStore(tmp_path)) as db:
        query = db.prepare(deg, params=("x",))
        assert query.bind(element).value(NATURAL) == cold
        stats = db.stats()["plan_store"]
        assert (stats["stale"], stats["hits"], stats["errors"],
                stats["rejected"], stats["saves"]) == (1, 0, 0, 0, 1)
        assert query.stats()["compile_stages"]  # compiled here, not loaded
    rewritten = load_plan_bytes(entry.read_bytes())["plan"]
    assert entry.read_bytes() != old
    assert rewritten["format"] == PLAN_FORMAT_VERSION
    assert "forests" not in rewritten and "decomposition" in rewritten


def test_selector_inputs_roundtrip_and_unknown_kinds_are_rejected():
    from repro.analysis import PlanVerifyError, verify_plan_state
    from repro.core import SELECTED, close_over
    structure = weighted_structure()
    closed = close_over(Sum("y", Bracket(E("x", "y")) * w("x", "y")), ("x",))
    compiled = compile_structure_query(structure, closed)
    kinds = {kind for kind, _ in compiled.recorded.values()}
    assert kinds == {"w", SELECTED}
    assert all(raw is None for kind, raw in compiled.recorded.values()
               if kind == SELECTED)
    state = json.loads(json.dumps(compiled.to_state()))
    loaded = verify_plan_state(state)  # verifier + from_state accept "s"
    assert loaded.recorded == compiled.recorded
    probe = next((key[2],) for key, (kind, _) in compiled.recorded.items()
                 if kind == SELECTED)
    for sr in (NATURAL, MIN_PLUS):
        assert loaded.rebind(structure).evaluate_selected(sr, [probe]) \
            == compiled.evaluate_selected(sr, [probe])
    selector = next(row for row in state["recorded"] if row[1] == SELECTED)
    selector[1] = "v"
    with pytest.raises(PlanStateError):
        CompiledQuery.from_state(state, structure)
    with pytest.raises(PlanVerifyError):
        verify_plan_state(state)


def test_store_embedded_key_guards_filename_collisions(tmp_path):
    a, b = weighted_structure(), weighted_structure(side=2)
    store = PlanStore(tmp_path)
    store.save(store_key(a), compile_structure_query(a, EDGE_SUM))
    (entry,) = list(tmp_path.iterdir())
    # Simulate a hash collision: b's key resolves to a's entry file.
    collided = tmp_path / os.path.basename(store._entry_path(store_key(b)))
    collided.write_bytes(entry.read_bytes())
    assert store.load(store_key(b), b, EDGE_SUM) is None
    assert store.stats()["stale"] == 1


def test_store_concurrent_writers_last_wins(tmp_path):
    structure = weighted_structure()
    compiled = compile_structure_query(structure, EDGE_SUM)
    key = store_key(structure)
    stores = [PlanStore(tmp_path) for _ in range(6)]
    barrier = threading.Barrier(len(stores))

    def writer(store):
        barrier.wait()
        for _ in range(5):
            assert store.save(key, compiled)

    threads = [threading.Thread(target=writer, args=(s,)) for s in stores]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(PlanStore(tmp_path)) == 1  # atomic replace, no torn files
    loaded = PlanStore(tmp_path).load(key, structure, EDGE_SUM)
    assert loaded is not None
    assert loaded.evaluate(NATURAL) == compiled.evaluate(NATURAL)
    assert not list(tmp_path.glob("*.tmp"))


def test_store_lru_prunes_oldest(tmp_path):
    store = PlanStore(tmp_path, max_entries=2)
    structures = [weighted_structure(side=side) for side in (2, 3, 4)]
    for structure in structures:
        store.save(store_key(structure),
                   compile_structure_query(structure, EDGE_SUM))
        os.utime(store._entry_path(store_key(structure)))
    assert len(store) == 2
    assert store.stats()["evictions"] == 1
    # The first (oldest) entry was evicted; the last two survive.
    assert store.load(store_key(structures[0]), structures[0],
                      EDGE_SUM) is None
    assert store.load(store_key(structures[2]), structures[2],
                      EDGE_SUM) is not None


def test_store_skips_unserializable_plans(tmp_path):
    free = FreeSemiring()
    structure = weighted_structure(
        conv=lambda v: free.scale(v + 1, free.generator(("g", v))))
    store = PlanStore(tmp_path)
    key = store_key(structure)
    compiled = compile_structure_query(structure, EDGE_SUM,
                                        plan_store=store)
    assert compiled.evaluate(free) is not None  # compile unharmed
    assert store.stats()["skips"] == 1
    assert len(store) == 0
    assert not store.save(key, compiled)


def test_store_stats_shape(tmp_path):
    stats = PlanStore(tmp_path, max_entries=5, max_bytes=1000).stats()
    for field in ("path", "entries", "bytes", "max_entries", "max_bytes",
                  "hits", "misses", "stale", "errors", "skips", "saves",
                  "evictions"):
        assert field in stats
    assert stats["entries"] == 0 and stats["max_entries"] == 5


# -- the facade seam -------------------------------------------------------------


def no_recompile(monkeypatch):
    """Make any fresh Theorem 6 compile explode (load-only mode)."""
    import repro.core.pipeline as pipeline

    def boom(*_args, **_kwargs):
        raise AssertionError("recompiled despite a warm plan store")
    monkeypatch.setattr(pipeline, "low_treedepth_coloring", boom)


def test_fresh_database_serves_without_recompiling(tmp_path, monkeypatch):
    with Database(weighted_structure(), plan_store=PlanStore(tmp_path)) as db:
        cold = db.prepare(TRIANGLE).value(NATURAL)
        assert db.stats()["plan_store"]["saves"] == 1
    no_recompile(monkeypatch)
    with Database(weighted_structure(), plan_store=PlanStore(tmp_path)) as db:
        assert db.prepare(TRIANGLE).value(NATURAL) == cold
        stats = db.stats()["plan_store"]
        assert stats["hits"] == 1 and stats["misses"] == 0


def test_environment_variable_attaches_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLAN_STORE", str(tmp_path))
    with Database(weighted_structure()) as db:
        cold = db.prepare(EDGE_SUM).value(NATURAL)
        assert isinstance(db.plan_store, PlanStore)
        assert db.stats()["plan_store"]["saves"] == 1
    no_recompile(monkeypatch)
    with Database(weighted_structure()) as db:
        assert db.prepare(EDGE_SUM).value(NATURAL) == cold


def test_exec_options_validate_plan_store(tmp_path):
    ExecOptions(plan_store=PlanStore(tmp_path))  # duck-typed: accepted
    with pytest.raises(ValueError):
        ExecOptions(plan_store="not-a-store")


def test_served_engines_share_the_store(tmp_path, monkeypatch):
    deg = Sum(("y",), Bracket(E("x", "y")) * w("x", "y"))
    with Database(weighted_structure(), plan_store=PlanStore(tmp_path)) as db:
        element = sorted(db.structure.domain)[0]
        service = db.serve(deg, NATURAL, params=("x",))
        first = service.query(element)
        assert db.stats()["plan_store"]["saves"] >= 1
    no_recompile(monkeypatch)
    with Database(weighted_structure(), plan_store=PlanStore(tmp_path)) as db:
        service = db.serve(deg, NATURAL, params=("x",))
        assert service.query(element) == first
        assert db.stats()["plan_store"]["hits"] >= 1
