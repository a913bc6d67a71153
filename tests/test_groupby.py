"""Grouped aggregation: ``PreparedQuery.group_by`` and friends.

Five families:

* equivalence — the one-sweep grouped table matches ``k`` independent
  point queries across every shipped semiring (deterministic and
  hypothesis-random weights);
* the ResultTable surface — columns, iteration, lookup, ``to_dicts``,
  ``to_numpy``, HAVING/ROLLUP edge cases and degenerate group sets;
* cache coherence — group entries share the epoch-tagged result cache
  with bound point queries, and a routed ``db.update()`` invalidates
  only the touched groups (weights and dynamic relations);
* the serving seam — ``QueryService.group_by`` — and HAVING/ROLLUP on
  a prepared handle;
* satellites — no ExecOptions group knob, the argument-free
  ``enumerate`` signature, and per-stage compile timings in
  stats/explain.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Database, ExecOptions, ResultTable, TOTAL
from repro.circuits import vector_plan
from repro.core import CompiledQuery
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import BOOLEAN, MIN_PLUS, NATURAL
from repro.structures import Structure, graph_structure
from repro.graphs import triangulated_grid

from tests.test_plan_store import SEMIRING_CASES, weighted_structure
from tests.util import past_the_group_bound

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

#: f(x) = Σ_y [E(x,y)] · w(x,y) — one aggregate per group key x.
NEIGHBOR_SUM = Sum(("y",), Bracket(E("x", "y")) * w("x", "y"))


def path_db(n: int = 4):
    structure = Structure(
        domain=list(range(n)),
        relations={"E": [(i, i + 1) for i in range(n - 1)]},
        weights={"w": {(i,): i + 1 for i in range(n)}})
    expr = Sum(("y",), Bracket(E("x", "y")) * Weight("w", ("y",)))
    db = Database(structure)
    return db, db.prepare(expr, params=("x",))


# -- equivalence across all shipped semirings ------------------------------------


@pytest.mark.parametrize("sr,conv",
                         [(sr, conv) for _, sr, conv in SEMIRING_CASES],
                         ids=[name for name, _, _ in SEMIRING_CASES])
def test_group_by_matches_point_queries_per_semiring(sr, conv):
    structure = weighted_structure(conv, side=3)
    with Database(structure) as db:
        q = db.prepare(NEIGHBOR_SUM, params=("x",))
        table = q.group_by(sr)
        assert table.columns == ("x", "value")
        assert len(table) == len(structure.domain)
        fresh = db.prepare(NEIGHBOR_SUM, params=("x",),
                           result_cache_size=0)
        for x in structure.domain:
            assert table[x] == fresh.bind(x).value(sr)


@pytest.mark.parametrize("sr,conv",
                         [(sr, conv) for _, sr, conv in SEMIRING_CASES],
                         ids=[name for name, _, _ in SEMIRING_CASES])
def test_group_by_python_backend_matches(sr, conv):
    structure = weighted_structure(conv, side=3)
    with Database(structure) as db:
        fast = db.prepare(NEIGHBOR_SUM, params=("x",),
                          result_cache_size=0).group_by(sr)
        slow = db.prepare(NEIGHBOR_SUM, params=("x",), result_cache_size=0,
                          backend="python").group_by(sr)
        assert fast.keys() == slow.keys()
        assert fast.values() == slow.values()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9),
                min_size=16, max_size=16))
def test_group_by_matches_point_queries_random_weights(raw):
    structure = graph_structure(triangulated_grid(2, 2))
    edges = sorted(structure.relations["E"])
    for value, edge in zip(raw, edges):
        structure.set_weight("w", edge, value)
    with Database(structure) as db:
        q = db.prepare(NEIGHBOR_SUM, params=("x",), result_cache_size=0)
        for sr in (NATURAL, MIN_PLUS):
            table = q.group_by(sr)
            for x in structure.domain:
                assert table[x] == q.bind(x).value(sr)


# -- the ResultTable surface ------------------------------------------------------


def test_result_table_surface():
    db, q = path_db()
    try:
        table = q.group_by(NATURAL)
        assert table.columns == ("x", "value")
        assert len(table) == 4
        rows = list(table)
        assert rows[0] == (0, 2)
        assert table.keys() == [(x,) for x in range(4)]
        assert table[2] == table[(2,)]
        assert (3,) in table and 3 in table
        assert (99,) not in table
        with pytest.raises(KeyError):
            table[99]
        dicts = table.to_dicts()
        assert dicts[0] == {"x": 0, "value": 2}
        numpy = pytest.importorskip("numpy")
        column = table.to_numpy()
        assert list(column) == table.values()
        assert table.stats["groups"] == 4
    finally:
        db.close()


def test_result_table_validates_lengths():
    with pytest.raises(ValueError):
        ResultTable(("x", "value"), [(1,)], [])


def test_having_filters_base_rows_only():
    db, q = path_db()
    try:
        table = q.group_by(NATURAL, having=lambda v: v > 2, rollup=True)
        base = [row for row in table if row[0] is not TOTAL]
        # x=0 (value 2) and x=3 (value 0) are filtered out of the base...
        assert base == [(1, 3), (2, 4)]
        # ...but the grand total still aggregates ALL base groups (SQL
        # semantics: HAVING applies after ROLLUP's source rows).
        assert table[(TOTAL,)] == 2 + 3 + 4 + 0
    finally:
        db.close()


def test_rollup_levels_and_total_sentinel():
    structure = Structure(
        domain=["a", "b"],
        relations={"E": [("a", "a"), ("a", "b"), ("b", "b")]},
        weights={"w": {(("a")): 0}})
    structure.set_weight("v", ("a",), 1)
    structure.set_weight("v", ("b",), 10)
    expr = Bracket(E("x", "y")) * Weight("v", ("x",)) * Weight("v", ("y",))
    with Database(structure) as db:
        q = db.prepare(expr, params=("x", "y"))
        table = q.group_by(NATURAL, rollup=True)
        # 4 base groups + 2 level-1 subtotals + 1 grand total.
        assert len(table) == 7
        assert table[("a", "a")] == 1 and table[("a", "b")] == 10
        assert table[("a", TOTAL)] == 11
        assert table[("b", TOTAL)] == 100
        assert table[(TOTAL, TOTAL)] == 111
        assert repr(TOTAL) == "TOTAL"


def test_explicit_keys_dedup_and_degenerate_cases():
    db, q = path_db()
    try:
        # Empty key list: an empty table (and no sweep at all).
        empty = q.group_by([], NATURAL)
        assert len(empty) == 0 and empty.stats["sweeps"] == 0
        # Single group, bare-element spelling for a 1-ary key.
        one = q.group_by([2], NATURAL)
        assert list(one) == [(2, 4)]
        # Duplicates evaluate and appear once.
        deduped = q.group_by([1, (1,), [1], 3], NATURAL)
        assert deduped.keys() == [(1,), (3,)]
        with pytest.raises(ValueError):
            q.group_by([(1, 2)], NATURAL)  # arity mismatch
    finally:
        db.close()


def test_group_by_argument_errors():
    db, q = path_db()
    try:
        with pytest.raises(TypeError):
            q.group_by()  # no semiring
        closed = db.prepare(Sum(("x", "y"),
                                Bracket(E("x", "y")) * Weight("w", ("y",))))
        with pytest.raises(ValueError):
            closed.group_by(NATURAL)  # closed query: no grouping keys
    finally:
        db.close()


def test_enumerated_group_domain_is_bounded_before_any_compile():
    """One group past ``DEFAULT_MAX_GROUPS`` is refused before the plan
    is compiled or swept; explicit keys are how to go past it."""
    structure, pair = past_the_group_bound()
    with Database(structure) as db:
        q = db.prepare(pair, params=("x", "y"))
        with pytest.raises(ValueError, match="66049 groups .* > 65536"):
            q.group_by(NATURAL)
        assert q.stats()["compiled"] is False
        assert db.plan_cache.stats()["misses"] == 0
        assert q.group_by([(0, 1), (1, 0)], NATURAL).values() == [1, 0]


# -- cache coherence --------------------------------------------------------------


def test_group_entries_shared_with_bound_points():
    db, q = path_db()
    try:
        table = q.group_by(NATURAL)
        assert table.stats["cache_misses"] == 4
        # The sweep warmed the point-query cache...
        for x in range(4):
            assert q.bind(x).value(NATURAL) == table[x]
        # ...and the points keep the next sweep entirely warm.
        again = q.group_by(NATURAL)
        assert again.stats["cache_hits"] == 4
        assert again.stats["sweeps"] == 0
    finally:
        db.close()


def test_update_invalidates_only_touched_groups():
    db, q = path_db()
    try:
        before = q.group_by(NATURAL)
        assert before[0] == 2
        with db.update() as tx:
            tx.set_weight("w", (1,), 100)
        after = q.group_by(NATURAL)
        # w(1) only feeds group x=0 (the edge 0->1): one miss, three
        # carried-forward hits.
        assert after[0] == 100
        assert after.stats["cache_misses"] == 1
        assert after.stats["cache_hits"] == 3
        assert [after[x] for x in range(1, 4)] == [3, 4, 0]
    finally:
        db.close()


def test_relation_toggle_invalidates_only_reachable_groups():
    structure = Structure(
        domain=[0, 1, 2, 3],
        relations={"E": [(0, 1), (1, 2), (2, 3)], "S": [(0,), (2,)]},
        weights={"w": {(i,): i + 1 for i in range(4)}})
    expr = Sum(("y",), Bracket(E("x", "y") & Atom("S", ("y",)))
               * Weight("w", ("y",)))
    with Database(structure) as db:
        q = db.prepare(expr, params=("x",), dynamic=("S",))
        before = q.group_by(NATURAL)
        assert before[0] == 0
        with db.update() as tx:
            tx.set_relation("S", (1,), True)
        after = q.group_by(NATURAL)
        assert after[0] == 2
        # Toggling S(1) can only reach groups whose monomials contain
        # y=1 — the co-occurrence analysis keeps the rest warm.
        assert after.stats["cache_misses"] <= 2
        assert after.stats["cache_hits"] >= 2


def test_unrelated_weight_keeps_every_group_warm():
    structure = Structure(
        domain=[0, 1, 2],
        relations={"E": [(0, 1), (1, 2)]},
        weights={"w": {(i,): i + 1 for i in range(3)},
                 "other": {(0,): 5}})
    expr = Sum(("y",), Bracket(E("x", "y")) * Weight("w", ("y",)))
    with Database(structure) as db:
        q = db.prepare(expr, params=("x",))
        q.group_by(NATURAL)
        # A second prepared query *does* read "other": the write is
        # effective database-wide, yet q's groups all stay warm.
        other = db.prepare(Sum(("x",), Weight("other", ("x",))))
        assert other.value(NATURAL) == 5
        with db.update() as tx:
            tx.set_weight("other", (0,), 6)
        again = q.group_by(NATURAL)
        assert again.stats["cache_hits"] == 3
        assert again.stats["sweeps"] == 0
        assert other.value(NATURAL) == 6


# -- serving and sugar seams ------------------------------------------------------


def test_service_group_by():
    db, q = path_db()
    try:
        svc = db.serve(Sum(("y",), Bracket(E("x", "y"))
                           * Weight("w", ("y",))), NATURAL, params=("x",))
        table = svc.group_by()
        assert list(table) == [(0, 2), (1, 3), (2, 4), (3, 0)]
        assert table.columns == ("x", "value")
        with db.update() as tx:
            tx.set_weight("w", (1,), 50)
        after = svc.group_by(having=lambda v: v > 0, rollup=True)
        assert after[0] == 50
        assert after[(TOTAL,)] == 50 + 3 + 4
        stats = svc.stats()
        assert stats["group_tables"] == 2
        assert stats["group_rows"] == 8
        # The untouched groups were carried across the epoch bump.
        assert stats["retagged"] >= 2
    finally:
        db.close()


def test_select_sugar():
    """SQL's ``SELECT x, agg ... GROUP BY x HAVING ... WITH ROLLUP`` is
    one ``group_by`` call on a prepared handle."""
    db, q = path_db()
    try:
        rolled = q.group_by([0, 1], NATURAL, rollup=True)
        assert rolled.stats["cache_hits"] == 0
        assert rolled[(TOTAL,)] == 2 + 3
        # A second run is served from the handle's warm cache.
        again = q.group_by([0, 1], NATURAL, rollup=True)
        assert again.stats["cache_hits"] == 2
        assert list(again) == list(rolled)
        table = q.group_by(None, NATURAL, having=lambda v: v > 2)
        assert isinstance(table, ResultTable)
        assert list(table) == [(1, 3), (2, 4)]
    finally:
        db.close()


# -- satellite: no ExecOptions group knobs ----------------------------------------


def test_exec_options_group_knobs_validated_eagerly():
    # The group bound is a constant, not a knob.
    with pytest.raises(TypeError):
        ExecOptions(max_groups=8)
    with pytest.raises(TypeError):
        ExecOptions().merged(group_size=8)  # typo'd knob fails loudly
    # How many groups one sweep takes is the evaluators' business: the
    # removed chunking knob fails as loudly as a typo.
    with pytest.raises(TypeError):
        ExecOptions().merged(group_batch_size=8)
    db, q = path_db()
    try:
        for removed in ("group_batch_size", "max_groups", "backend"):
            with pytest.raises(TypeError):
                q.group_by(NATURAL, **{removed: 2})
    finally:
        db.close()


# -- satellite: enumerate is keyword-only -----------------------------------------


def enum_db():
    structure = Structure(domain=[0, 1, 2],
                          relations={"E": [(0, 1), (1, 2)],
                                     "S": [(0,), (1,), (2,)]})
    db = Database(structure)
    return db, db.prepare(E("x", "y") & Atom("S", ("x",)), dynamic=("S",))


def test_enumerate_takes_no_arguments():
    """An enumerator is a view of its handle's one plan: there is no
    per-call dynamic set or option override to compile a second one."""
    db, q = enum_db()
    try:
        assert sorted(q.enumerate()) == [(0, 1), (1, 2)]
        with pytest.raises(TypeError):
            q.enumerate(dynamic=["S"])
        with pytest.raises(TypeError):
            q.enumerate(optimize=False)
        with pytest.raises(TypeError):
            q.enumerate(["S"])
    finally:
        db.close()


# -- satellite: per-stage compile timings -----------------------------------------


def test_compile_stage_timings_surface():
    db, q = path_db()
    try:
        closed = db.prepare(Sum(("x", "y"),
                                Bracket(E("x", "y")) * Weight("w", ("y",))))
        stats = closed.stats()
        stages = stats["compile_stages"]
        for stage in ("normalize", "forests", "forest_compiler"):
            assert stages[stage] >= 0.0
        assert "optimize" in stages  # the facade always optimizes
        assert "compile stages:" in closed.explain()
        # Plan-cache hits rebind the original compilation — the stage
        # timings (of the one compile that happened) travel with it.
        twin = db.prepare(Sum(("x", "y"),
                              Bracket(E("x", "y")) * Weight("w", ("y",))))
        assert twin.stats()["compile_stages"] == stages
    finally:
        db.close()


def test_group_by_telemetry_in_stats_and_explain():
    db, q = path_db()
    try:
        q.group_by(NATURAL)
        stats = q.stats()
        assert stats["group_by"]["groups"] == 4
        assert stats["group_by"]["sweeps"] == 1
        group = stats["group_by"]
        assert group["kernel"]
        # The value table the (dense) sweep held: a row per gate on the
        # python backend, per rank of the vectorized plan — partial-sum
        # ranks included — on NumPy.
        plan = q.plan()
        rows = len(plan.circuit.gates) if group["kernel"] == "python" \
            else vector_plan.vector_plan(plan.schedule()).size
        assert group["sweep_shape"] == (rows, 4)
        assert "last group_by: 4 group(s)" in q.explain()
        assert f"shape={(rows, 4)}" in q.explain()
    finally:
        db.close()


def test_group_by_stats_count_only_its_own_sweeps(monkeypatch):
    """A batch another caller lands on the plan between a group_by's
    sweeps stays out of that group_by's stats; the plan's running
    totals count both."""
    structure = graph_structure(triangulated_grid(4, 4))
    for index, edge in enumerate(sorted(structure.relations["E"])):
        structure.set_weight("w", edge, 1 + index % 5)
    with Database(structure, result_cache_size=0) as db:
        q = db.prepare(NEIGHBOR_SUM, params=("x",))
        alone = q.group_by(NATURAL).stats
        swept, landed = CompiledQuery._swept, []

        def interleaved(plan, *args):
            results = swept(plan, *args)
            if not landed:
                landed.append(MIN_PLUS)
                plan.evaluate_selected(MIN_PLUS,
                                       [(x,) for x in structure.domain])
            return results

        monkeypatch.setattr(CompiledQuery, "_swept", interleaved)
        stats = q.group_by(NATURAL).stats
        assert landed
        assert alone["sweeps"] == stats["sweeps"] == 1
        for field in ("cells", "kernel", "pass", "sweep_shape"):
            assert stats[field] == alone[field], field
        assert q.plan().kernel_stats()["batches"] == 3


def test_boolean_group_by_uses_sweep():
    db, q = path_db()
    try:
        table = q.group_by(BOOLEAN)
        assert [table[x] for x in range(4)] == [True, True, True, False]
    finally:
        db.close()
