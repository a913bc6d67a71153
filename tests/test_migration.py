"""Layer ≡ facade equivalence: the layers under the repro.api facade.

For every shipped semiring, driving the layers directly
(``repro.core.compile_structure_query`` over ``close_over(...)``, then
``plan.dynamic(sr).point(...)`` or ``plan.evaluate_selected(...)``) and
going through ``Database``/``PreparedQuery``/``Database.serve`` must
return identical results.  (The
module keeps its historical name: the layers were deprecated shims
until their twins were collapsed into these plain spellings.)
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.api import Database
from repro.core import close_over, compile_structure_query
from repro.graphs import triangulated_grid
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import (BOOLEAN, FLOAT, INTEGER, MAX_PLUS, MIN_PLUS,
                             NATURAL, RATIONAL, ModularRing)

from tests.util import weighted_graph_structure

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

EDGE_SUM = Sum(("x", "y"), Bracket(E("x", "y")) * w("x", "y"))
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))

#: Every shipped semiring, with a converter from small positive ints.
SHIPPED = [
    ("N", NATURAL, lambda v: v),
    ("Z", INTEGER, lambda v: v - 2),
    ("Q", RATIONAL, lambda v: Fraction(v, 3)),
    ("float", FLOAT, lambda v: v / 2.0),
    ("min-plus", MIN_PLUS, lambda v: v),
    ("max-plus", MAX_PLUS, lambda v: v),
    ("B", BOOLEAN, lambda v: v > 1),
    ("Z7", ModularRing(7), lambda v: v % 7),
]


def shipped_params():
    return pytest.mark.parametrize(
        "sr,conv", [(sr, conv) for _, sr, conv in SHIPPED],
        ids=[name for name, _, _ in SHIPPED])


def point_layer(structure, sr, probes):
    """``DEGREE`` at each probe through the layers: the closed form's
    plan, point by point (selector toggles on its maintained evaluator)
    and as one batch of selector columns."""
    plan = compile_structure_query(structure, close_over(DEGREE, ("x",)))
    dynamic = plan.dynamic(sr)
    points = [dynamic.point((v,)) for v in probes]
    batch = plan.evaluate_selected(sr, [(v,) for v in probes])
    return points, batch


def build(conv, side=3, seed=5):
    return weighted_graph_structure(triangulated_grid(side, side),
                                    seed=seed, conv=conv, wmax=6)


class TestResultEquivalence:
    @shipped_params()
    def test_closed_value_and_batch(self, sr, conv):
        structure = build(conv)
        edges = sorted(structure.relations["E"])[:3]
        scenarios = [{}] + [{("w", "w", edge): sr.zero} for edge in edges]

        compiled = compile_structure_query(structure.copy(), EDGE_SUM)
        layer_value = compiled.evaluate(sr)
        layer_batch = compiled.evaluate_batch(sr, scenarios)

        with Database(structure.copy()) as db:
            prepared = db.prepare(EDGE_SUM)
            assert sr.eq(prepared.value(sr), layer_value)
            for mine, theirs in zip(prepared.batch(scenarios, sr), layer_batch):
                assert sr.eq(mine, theirs)

    @shipped_params()
    def test_point_queries_engine_vs_bind(self, sr, conv):
        structure = build(conv)
        probes = structure.domain[::3]

        layer_points, layer_batch = point_layer(structure.copy(), sr, probes)

        with Database(structure.copy()) as db:
            prepared = db.prepare(DEGREE)
            for probe, theirs in zip(probes, layer_points):
                assert sr.eq(prepared.bind(probe).value(sr), theirs)
            for mine, theirs in zip(
                    prepared.batch([(v,) for v in probes], sr), layer_batch):
                assert sr.eq(mine, theirs)

    @shipped_params()
    def test_maintained_updates_dynamic_vs_maintain(self, sr, conv):
        structure = build(conv)
        edge = sorted(structure.relations["E"])[0]
        new_value = conv(6)

        compiled = compile_structure_query(structure.copy(), EDGE_SUM)
        dynamic = compiled.dynamic(sr)
        dynamic.update_weight("w", edge, new_value)
        layer_after = dynamic.value()

        with Database(structure.copy()) as db:
            maintained = db.prepare(EDGE_SUM).maintain(sr)
            maintained.update_weight("w", edge, new_value)
            assert sr.eq(maintained.value(), layer_after)

    @shipped_params()
    def test_service_vs_db_serve(self, sr, conv):
        structure = build(conv)
        probes = structure.domain[:4]

        # The served path's layer is the plan's batched point query.
        _, layer_results = point_layer(structure.copy(), sr, probes)

        with Database(structure.copy()) as db:
            with db.serve(DEGREE, sr) as service:
                for probe, theirs in zip(probes, layer_results):
                    assert sr.eq(service.query(probe), theirs)
