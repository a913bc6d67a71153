"""E-D1 (Theorem 24): linear preprocessing, constant delay, O(1) updates."""

import os
import random

import pytest

from repro import Database
from repro.logic import Atom
from repro.structures import graph_structure
from repro.graphs import triangulated_grid

from common import report, timed

E = lambda x, y: Atom("E", (x, y))
TRIANGLE_F = E("x", "y") & E("y", "z") & E("z", "x")

#: CI smoke mode (see benchmarks/ci_smoke.py): shrink every workload.
FAST = bool(os.environ.get("REPRO_BENCH_FAST"))


def triangles(structure):
    """TRIANGLE_F's enumerator, preprocessed: the handle's plan and
    context are built and the first answer is known to exist."""
    enumerator = Database(structure).prepare(
        TRIANGLE_F, params=("x", "y", "z")).enumerate()
    enumerator.has_answers()
    return enumerator


@pytest.mark.parametrize("side", [4] if FAST else [4, 6])
def test_preprocessing(benchmark, side):
    structure = graph_structure(triangulated_grid(side, side))
    benchmark.pedantic(lambda: triangles(structure), rounds=1, iterations=1)


@pytest.mark.parametrize("side", [4] if FAST else [4, 6, 8])
def test_delay_per_answer(benchmark, side):
    structure = graph_structure(triangulated_grid(side, side))
    cursor = triangles(structure).cursor()

    def one_step():
        cursor.advance()
        return cursor.current()

    benchmark(one_step)


def test_delay_stays_flat_table(capsys):
    """Max/mean delay between outputs must not grow with n (E-D1)."""
    rows = []
    for side in (4,) if FAST else (4, 6, 8):
        structure = graph_structure(triangulated_grid(side, side))
        enumerator, preprocess = timed(triangles, structure)
        cursor = enumerator.cursor()
        import time
        delays = []
        for _ in range(enumerator.count()):
            start = time.perf_counter()
            cursor.advance()
            delays.append(time.perf_counter() - start)
        rows.append([len(structure.domain), round(preprocess, 3),
                     len(delays), max(delays), sum(delays) / len(delays)])
    with capsys.disabled():
        report("E-D1: enumeration preprocessing and delay (s)",
               ["n", "preprocess", "answers", "max_delay", "mean_delay"],
               rows)


def test_dynamic_update_cost(benchmark):
    structure = graph_structure(triangulated_grid(4 if FAST else 6,
                                                  4 if FAST else 6))
    for v in structure.domain[::2]:
        structure.add_tuple("S", (v,))
    formula = E("x", "y") & Atom("S", ("x",)) & ~Atom("S", ("y",))
    enumerator = Database(structure).prepare(
        formula, params=("x", "y"), dynamic=("S",)).enumerate()
    rng = random.Random(1)
    domain = structure.domain

    def one_toggle():
        enumerator.set_relation("S", (rng.choice(domain),),
                                rng.random() < 0.5)

    benchmark(one_toggle)


def test_vs_naive_materialization_table(capsys):
    """Naive materialization scans n^3 tuples; Theorem 24 pays ~linear."""
    import itertools
    from repro.logic import StructureModel, eval_formula
    rows = []
    for side in (3,) if FAST else (3, 4):
        structure = graph_structure(triangulated_grid(side, side))
        model = StructureModel(structure)

        def materialize():
            return [t for t in itertools.product(structure.domain, repeat=3)
                    if eval_formula(TRIANGLE_F, model,
                                    dict(zip(("x", "y", "z"), t)))]

        naive_answers, naive_time = timed(materialize)
        enumerator, build_time = timed(triangles, structure)
        fast_answers, enum_time = timed(lambda: list(enumerator))
        assert sorted(fast_answers) == sorted(naive_answers)
        rows.append([len(structure.domain), round(naive_time, 4),
                     round(build_time, 4), round(enum_time, 4)])
    with capsys.disabled():
        report("E-D1b: naive materialization vs Thm 24 (s)",
               ["n", "naive", "preprocess", "enumerate"], rows)
