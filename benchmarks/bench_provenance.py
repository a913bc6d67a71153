"""E-C1 (Theorem 22): provenance enumerators with constant access time."""

import pytest

from repro import Database
from repro.logic import Sum, Weight
from repro.structures import graph_structure
from repro.graphs import triangulated_grid

from common import report, timed

w = lambda x, y: Weight("w", (x, y))
TRIANGLE_PROV = Sum(("x", "y", "z"), w("x", "y") * w("y", "z") * w("z", "x"))


def provenance_workload(side):
    structure = graph_structure(triangulated_grid(side, side))
    for (a, b) in sorted(structure.relations["E"]):
        structure.set_weight("w", (a, b), ("e", a, b))
    return structure


def triangle_provenance(structure):
    """TRIANGLE_PROV's enumerator, preprocessed: the handle's plan and
    context are built and the output's support is read."""
    prov = Database(structure).prepare(TRIANGLE_PROV).enumerate()
    prov.is_zero()
    return prov


@pytest.mark.parametrize("side", [4, 6])
def test_provenance_build(benchmark, side):
    structure = provenance_workload(side)
    benchmark.pedantic(lambda: triangle_provenance(structure),
                       rounds=1, iterations=1)


@pytest.mark.parametrize("side", [4, 6])
def test_provenance_delay(benchmark, side):
    prov = triangle_provenance(provenance_workload(side))
    cursor = prov.cursor()

    def one_step():
        cursor.advance()
        return cursor.current()

    benchmark(one_step)


def test_provenance_shape_table(capsys):
    rows = []
    for side in (3, 4, 6):
        structure = provenance_workload(side)
        prov, build = timed(triangle_provenance, structure)
        monomials, walk = timed(lambda: sum(1 for _ in prov.monomials()))
        rows.append([len(structure.domain), round(build, 3), monomials,
                     round(walk / max(monomials, 1), 6)])
    with capsys.disabled():
        report("E-C1: provenance build time and per-monomial delay (s)",
               ["n", "build", "monomials", "per_monomial"], rows)
