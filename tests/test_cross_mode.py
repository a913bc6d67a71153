"""Every execution mode against one oracle, under interleaved updates.

A first slice of the differential oracle (ROADMAP item 4), scoped to the
modes that read a handle's one shared plan: a hypothesis state machine
holds a 3×3 :class:`~repro.api.Database` with weights ``w``, a partly
declared unary weight ``u`` and a dynamic unary ``S``, and — all alive
at once —

* a parameterized handle read by ``bind``/``batch``/``group_by`` in
  ``N``, ``MIN_PLUS``, ``Z`` and ``B`` — the last on its generic object
  kernel (one plan, four maintained evaluators, the shared result cache
  and its write eviction);
* an arity-2 handle (the only reader of ``u``) read the same ways over a
  fixed set of pairs — its writes evict a product of two sets, and a
  write to an undeclared ``u`` tuple invalidates it, and only it;
* a closed handle read by ``value``/``maintain``;
* a ``db.serve`` service (a handle of its own behind a dispatcher, with
  its own scope of the cache);
* an :class:`~repro.enumeration.AnswerEnumerator`, a view of a fourth
  handle: ``db.update()`` is its only write route, its answers and its
  maintained ``count()`` are checked after every step, and an iteration
  it opened before a toggle must raise
  :class:`~repro.enumeration.StaleEnumeration` on its next step.

The result cache holds exactly what the consumers re-read after every
step, so a read of anything else makes LRU eviction interleave with
write eviction and with the invalidation's scope drop.  Rules are
``db.update()`` weight writes (declared and brand-new tuples — of ``u``,
and of ``w`` while the service is live — and one that crosses the
overflow certificate of the ``N``/``Z`` int64 kernel and comes back),
``S`` toggles and reads; after every step each consumer must equal
``eval_expression`` over a shadow ``Structure`` kept by plain mutators,
the database's structure must be content-equal to the shadow (no
consumer writes anything of its own), and the plan cache must have
compiled each distinct query once per content it was invalidated into.
No cluster and no fault injection yet.
"""

from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, rule,
                                 run_state_machine_as_test)

from repro.api import Database
from repro.circuits import HAVE_NUMPY
from repro.circuits.vector_plan import input_bound, vector_plan
from repro.enumeration import StaleEnumeration
from repro.graphs import triangulated_grid
from repro.logic import (Atom, Bracket, Sum, Weight, eval_expression,
                         eval_formula, model_for)
from repro.semirings import BOOLEAN, INTEGER, MIN_PLUS, NATURAL

from tests.util import weighted_graph_structure

E = lambda x, y: Atom("E", (x, y))
S = lambda x: Atom("S", (x,))
w = lambda x, y: Weight("w", (x, y))

#: f(x): the weight x sends into S.
PARAM = Sum("y", Bracket(E("x", "y") & S("y")) * w("x", "y"))
CLOSED = Sum(("x", "y"), Bracket(E("x", "y") & S("x")) * w("x", "y"))
#: g(x, y): arity 2, and the only reader of ``u`` — declaring ``u(x)``
#: moves every edge out of x, a toggle of ``S(y)`` every edge into y.
PAIR = Bracket(E("x", "y")) * (w("x", "y") * Weight("u", ("x",))
                               + Bracket(S("y")))
FORMULA = E("x", "y") & S("x") & ~S("y")

SEMIRINGS = (NATURAL, MIN_PLUS, INTEGER, BOOLEAN)
BASE = weighted_graph_structure(triangulated_grid(3, 3), seed=21)
for _vertex in BASE.domain[:3]:
    BASE.add_tuple("S", (_vertex,))
#: ``u`` is declared on five of the nine vertices: a write to one of the
#: other four is a brand-new weight tuple — an invalidate-only update.
for _index, _vertex in enumerate(BASE.domain[::2]):
    BASE.set_weight("u", (_vertex,), _index + 1)
VERTICES = st.sampled_from(BASE.domain)
EDGES = st.sampled_from(sorted(BASE.weights["w"]))
#: Pairs ``w`` is not declared on: a write to one is a brand-new tuple.
UNDECLARED = st.sampled_from(sorted(
    set(itertools.product(BASE.domain, repeat=2)) - set(BASE.weights["w"])))
#: What the arity-2 handle reads: ten edges (at least one out of every
#: vertex ``u`` is not declared on) and two non-edges.
PAIRS = sorted(BASE.weights["w"])[::3][:10] \
    + [(BASE.domain[0], BASE.domain[8]), (BASE.domain[4], BASE.domain[4])]
#: Exactly what the consumers re-read after every step (36 + 48 + 9
#: entries): any pair read from outside ``PAIRS`` makes the LRU drop
#: entries a write has yet to reach, until a write or an invalidation
#: frees the room again.
RESULT_CACHE_SIZE = 93


class CrossMode(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        structure = BASE.copy()
        self.shadow = BASE.copy()
        self.db = Database(structure, result_cache_size=RESULT_CACHE_SIZE)
        self.param = self.db.prepare(PARAM, params=("x",), dynamic=("S",))
        self.pair = self.db.prepare(PAIR, params=("x", "y"),
                                    dynamic=("S",))
        self.declared = 0
        self.closed = self.db.prepare(CLOSED, dynamic=("S",))
        self.service = self.db.serve(PARAM, NATURAL, params=("x",),
                                     dynamic=("S",))
        self.enumerator = self.db.prepare(
            FORMULA, params=("x", "y"), dynamic=("S",)).enumerate()
        self.steps = 0

    def teardown(self):
        self.db.close()

    # -- the oracle ------------------------------------------------------------

    def point(self, sr, vertex):
        return eval_expression(PARAM, model_for(self.shadow, sr.zero), sr,
                               {"x": vertex})

    def pair_value(self, sr, pair):
        return eval_expression(PAIR, model_for(self.shadow, sr.zero), sr,
                               dict(zip("xy", pair)))

    def total(self, sr):
        return eval_expression(CLOSED, model_for(self.shadow, sr.zero), sr)

    # -- rules -----------------------------------------------------------------

    @rule(edge=EDGES, value=st.integers(0, 5))
    def write_weight(self, edge, value):
        with self.db.update() as tx:
            tx.set_weight("w", edge, value)
        self.shadow.set_weight("w", edge, value)

    @rule(edge=EDGES, sr=st.sampled_from((NATURAL, INTEGER)))
    def cross_the_bound(self, edge, sr):
        """Write one weight at M* - 1, M*, M* + 1 and 2^63 and then back,
        through routed writes.  M* is the largest input magnitude the
        parameterized plan certifies for the int64 kernel: each batch
        reads a patched base column whose memoized magnitude is the only
        overflow guard — native up to M*, the object kernel past it, a
        demoted column past int64 — and every read must stay exact."""
        plan = self.param.plan()
        bound = input_bound(vector_plan(plan.schedule()), 2 ** 63 - 1) \
            if HAVE_NUMPY else 2 ** 20
        domain = self.shadow.domain
        for value in (bound - 1, bound, bound + 1, 2 ** 63,
                      self.shadow.weights["w"][edge]):
            self.write_weight(edge, value)
            expected = [self.point(sr, v) for v in domain]
            assert self.param.batch([(v,) for v in domain], sr) == expected
            if HAVE_NUMPY:
                native = value <= bound
                assert plan.kernel_stats()["used"] == \
                    f"{sr.name}-{'int64' if native else 'object'}", value
            assert self.param.group_by(None, sr).values() == expected
            assert self.closed.value(sr) == self.total(sr)

    @rule(vertex=VERTICES, value=st.integers(0, 5))
    def write_unary(self, vertex, value):
        """A routed write where ``u(vertex)`` is declared; where it is
        not, a new weight tuple: the arity-2 handle is invalidated and
        recompiles, every other consumer — none reads ``u`` — stays as
        it is (the service is not even asked to absorb it)."""
        if (vertex,) not in self.shadow.weights["u"]:
            self.declared += 1
        with self.db.update() as tx:
            tx.set_weight("u", (vertex,), value)
        self.shadow.set_weight("u", (vertex,), value)

    @rule(pair=UNDECLARED, value=st.integers(0, 5))
    def write_new_weight(self, pair, value):
        """A routed write of a ``w`` tuple the plans were not compiled
        with, the service live: every reader of ``w`` — the service's
        handle included — is invalidated and recompiles lazily instead
        of refusing the write.  The first such write of a pair costs at
        most one compile for each of the three distinct queries."""
        if pair not in self.shadow.weights["w"]:
            self.declared += 3
        with self.db.update() as tx:
            tx.set_weight("w", pair, value)
        self.shadow.set_weight("w", pair, value)

    @rule(vertex=VERTICES, present=st.booleans())
    def toggle(self, vertex, present):
        with self.db.update() as tx:
            tx.set_relation("S", (vertex,), present)
        (self.shadow.add_tuple if present
         else self.shadow.remove_tuple)("S", (vertex,))

    @rule(vertex=VERTICES, present=st.booleans())
    def toggle_mid_iteration(self, vertex, present):
        """A toggle between two answers of an open iteration: the next
        step is a typed refusal, whichever answer the walk stood on."""
        answers = iter(self.enumerator)
        first = next(answers, None)
        self.toggle(vertex, present)
        if first is not None:
            with pytest.raises(StaleEnumeration):
                next(answers)

    @rule(vertex=VERTICES, sr=st.sampled_from(SEMIRINGS),
          by_name=st.booleans())
    def read_point(self, vertex, sr, by_name):
        bound = (self.param.bind(x=vertex) if by_name
                 else self.param.bind(vertex))
        assert sr.eq(bound.value(sr), self.point(sr, vertex))

    @rule(keys=st.lists(VERTICES, min_size=1, max_size=4),
          sr=st.sampled_from(SEMIRINGS))
    def read_groups(self, keys, sr):
        table = self.param.group_by(keys, sr)
        for (vertex,), value in zip(table.keys(), table.values()):
            assert sr.eq(value, self.point(sr, vertex))

    @rule(pairs=st.lists(st.tuples(VERTICES, VERTICES), min_size=1,
                         max_size=4),
          sr=st.sampled_from(SEMIRINGS), grouped=st.booleans())
    def read_pairs(self, pairs, sr, grouped):
        got = (self.pair.group_by(pairs, sr).values() if grouped
               else [self.pair.bind(*pair).value(sr) for pair in pairs])
        expected = [self.pair_value(sr, pair)
                    for pair in (dict.fromkeys(pairs) if grouped else pairs)]
        assert all(map(sr.eq, got, expected))

    @rule(keys=st.lists(VERTICES, min_size=1, max_size=4))
    def read_served(self, keys):
        values = self.service.query_batch([(v,) for v in keys], 30)
        assert values == [self.point(NATURAL, v) for v in keys]

    # -- after every step ------------------------------------------------------

    @invariant()
    def every_consumer_agrees_with_the_shadow(self):
        self.steps += 1
        domain = self.shadow.domain
        for sr in SEMIRINGS:
            expected = [self.point(sr, v) for v in domain]
            got = self.param.batch([(v,) for v in domain], sr)  # uncached
            assert all(map(sr.eq, got, expected)), (sr.name, "batch")
            # The cached paths, alternately: whichever runs takes the
            # misses a write left behind, the other reads what it cached.
            if self.steps % 2:
                got = [self.param.bind(v).value(sr) for v in domain]
            else:
                got = self.param.group_by(None, sr).values()
            assert all(map(sr.eq, got, expected)), (sr.name, "cached")
            expected = [self.pair_value(sr, pair) for pair in PAIRS]
            got = self.pair.batch(PAIRS, sr)  # uncached
            assert all(map(sr.eq, got, expected)), (sr.name, "pair batch")
            if self.steps % 2:
                got = self.pair.group_by(PAIRS, sr).values()
            else:
                got = [self.pair.bind(*pair).value(sr) for pair in PAIRS]
            assert all(map(sr.eq, got, expected)), (sr.name, "pair cached")
            total = self.total(sr)
            assert sr.eq(self.closed.value(sr), total)
            assert sr.eq(self.closed.maintain(sr).value(), total)
        served = self.service.group_by(timeout=30)
        assert served.values() == [self.point(NATURAL, v) for v in domain]
        model = model_for(self.shadow)
        answers = sorted(
            pair for pair in itertools.product(domain, repeat=2)
            if eval_formula(FORMULA, model, dict(zip("xy", pair))))
        assert sorted(self.enumerator) == answers
        assert self.enumerator.count() == len(answers)

    @invariant()
    def no_consumer_writes_to_the_structure(self):
        structure = self.db.structure
        assert set(structure.weights) == {"w", "u"}
        assert structure.fingerprint() == self.shadow.fingerprint()
        # Four distinct (query, dynamic set) pairs: PARAM (the handle
        # and the service share it), PAIR, CLOSED and the enumerator's
        # FORMULA.  Routed writes to declared tuples never force a
        # recompile; each newly declared ``u`` tuple recompiles PAIR,
        # and only it; a new ``w`` tuple each of the three that read
        # ``w`` (FORMULA reads no weight).
        assert self.db.plan_cache.stats()["misses"] <= 4 + self.declared
        # Only a bind builds a maintained evaluator: at most one per
        # semiring, each over the handle's one plan.
        for handle in (self.param, self.pair):
            assert set(handle.stats()["engines"]) <= {
                sr.name for sr in SEMIRINGS}
            assert all(dynamic.compiled is handle._plan
                       for dynamic in handle._dynamics.values())


def test_every_mode_agrees_under_interleaved_updates():
    run_state_machine_as_test(CrossMode, settings=settings(
        max_examples=30, stateful_step_count=20, deadline=None))


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE") != "nightly",
    reason="minutes of stateful search: the nightly profile's job")
def test_every_mode_agrees_deep_sweep():
    """The nightly-budget version of the same machine."""
    run_state_machine_as_test(CrossMode, settings=settings(
        max_examples=200, stateful_step_count=50, deadline=None))
