"""E-EX25 (Example 25): local-search independent set via Theorem 24."""

import pytest

from repro import Database
from repro.logic import Atom
from repro.structures import graph_structure
from repro.graphs import triangulated_grid

from common import report, timed

E = lambda x, y: Atom("E", (x, y))
S = lambda x: Atom("S", (x,))


def improvement_enumerator(side):
    """Answers = vertices addable to the independent set S (lambda = 1)."""
    structure = graph_structure(triangulated_grid(side, side))
    structure.relations.setdefault("S", set())
    structure._arity.setdefault("S", 1)
    # x is free, not in S, and has no neighbor in S:
    # encoded quantifier-free via a dynamic 'blocked' count is avoided —
    # we enumerate violating PAIRS instead: x not in S with S-neighbor y.
    addable = ~S("x") & ~Atom("T", ("x",))
    structure.relations.setdefault("T", set())   # T = "has S-neighbor"
    structure._arity.setdefault("T", 1)
    return structure, Database(structure).prepare(
        addable, params=("x",), dynamic=("S", "T")).enumerate()


def run_local_search(side):
    """Greedy maximal independent set, each round O(1)-ish via enumeration."""
    structure, enumerator = improvement_enumerator(side)
    gaifman = structure.gaifman()
    chosen = []
    rounds = 0
    while enumerator.has_answers():
        (v,) = next(iter(enumerator))
        chosen.append(v)
        enumerator.set_relation("S", (v,), True)
        for u in gaifman.neighbors(v):
            enumerator.set_relation("T", (u,), True)
        rounds += 1
    # Verify independence and maximality.
    chosen_set = set(chosen)
    for v in chosen:
        assert not (set(gaifman.neighbors(v)) & chosen_set)
    for v in structure.domain:
        if v not in chosen_set:
            assert set(gaifman.neighbors(v)) & chosen_set
    return len(chosen)


@pytest.mark.parametrize("side", [4, 6])
def test_local_search_mis(benchmark, side):
    benchmark.pedantic(lambda: run_local_search(side), rounds=1,
                       iterations=1)


def test_local_search_linear_table(capsys):
    rows = []
    for side in (4, 6, 8):
        size, elapsed = timed(run_local_search, side)
        rows.append([side * side, round(elapsed, 3), size])
    with capsys.disabled():
        report("E-EX25: local-search MIS (total seconds, set size)",
               ["n", "total", "|MIS|"], rows)
