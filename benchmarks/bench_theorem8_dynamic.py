"""E-A2 (Theorem 8): dynamic update & point-query latency per semiring."""

import os
import random

import pytest

# Internal entries: this bench measures the Theorem 8 machinery
# itself, below the repro.api facade seam.
from repro.core import close_over, compile_structure_query
from repro.logic import Atom, Bracket, Sum, Weight
from repro.semirings import INTEGER, MIN_PLUS

from common import TRIANGLE, report, timed, triangle_workload

SEMIRING_CASES = [("Z(ring:O(1))", INTEGER),
                  ("minplus(general:O(log))", MIN_PLUS)]

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))


@pytest.mark.parametrize("name,sr", SEMIRING_CASES,
                         ids=[n for n, _ in SEMIRING_CASES])
@pytest.mark.parametrize("side", [4] if FAST else [4, 6])
def test_weight_update(benchmark, name, sr, side):
    structure = triangle_workload(side)
    compiled = compile_structure_query(structure, TRIANGLE)
    dynamic = compiled.dynamic(sr)
    edges = sorted(structure.relations["E"])
    rng = random.Random(1)

    def one_update():
        dynamic.update_weight("w", rng.choice(edges), rng.randint(1, 9))
        return dynamic.value()

    benchmark(one_update)


@pytest.mark.parametrize("side", [4] if FAST else [4, 6])
def test_point_query_via_selectors(benchmark, side):
    structure = triangle_workload(side)
    E = lambda x, y: Atom("E", (x, y))
    w = lambda x, y: Weight("w", (x, y))
    per_vertex = Sum(("y", "z"),
                     Bracket(E("x", "y") & E("y", "z") & E("z", "x"))
                     * w("x", "y") * w("y", "z") * w("z", "x"))
    dynamic = compile_structure_query(
        structure, close_over(per_vertex, ("x",))).dynamic(INTEGER)
    rng = random.Random(2)
    domain = structure.domain

    benchmark(lambda: dynamic.point((rng.choice(domain),)))


def test_update_vs_recompute_table(capsys):
    rows = []
    for side in (4, 6) if FAST else (4, 6, 8):
        structure = triangle_workload(side)
        compiled = compile_structure_query(structure, TRIANGLE)
        dynamic = compiled.dynamic(INTEGER)
        edges = sorted(structure.relations["E"])
        rng = random.Random(3)

        def storm():
            for _ in range(100):
                dynamic.update_weight("w", rng.choice(edges),
                                      rng.randint(1, 9))

        _, update_time = timed(storm)
        _, recompute_time = timed(compiled.evaluate, INTEGER)
        rows.append([len(structure.domain), update_time / 100,
                     recompute_time])
    with capsys.disabled():
        report("E-A2: per-update maintained vs full re-evaluation (s)",
               ["n", "update", "recompute"], rows)
