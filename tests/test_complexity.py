"""The paper's complexity claims as counted guards, not wall-clock floors.

Each guard counts the units of work a claim bounds — with hooks the test
installs, never a counter on the hot path — at two sizes where the
constants have saturated, and fails on a named mutant that adds one
linear walk.  A count does not move with the host's load, so the guards
run in tier-1 in seconds.
"""

from __future__ import annotations

import random

import pytest

from repro.enumeration import AnswerEnumerator, EnumerationContext
from repro.graphs import triangulated_grid
from repro.logic import Atom
from repro.structures import graph_structure

E = lambda x, y: Atom("E", (x, y))
EDGE_F = E("x", "y") & Atom("S", ("x",)) & ~Atom("S", ("y",))


class CountingLinks(dict):
    """A :class:`~repro.enumeration.LinkedSet`'s successor map that counts
    every read: each is one linked-set step, whichever method takes it."""

    reads = 0

    def __getitem__(self, key):
        CountingLinks.reads += 1
        return dict.__getitem__(self, key)


@pytest.fixture
def subtree_opens(monkeypatch):
    """Counts every subtree a walk or a cursor opens."""
    opened = [0]
    for name in ("_walk", "_cursor"):
        method = getattr(EnumerationContext, name)

        def counted(self, gate_id, _method=method):
            opened[0] += 1
            return _method(self, gate_id)

        monkeypatch.setattr(EnumerationContext, name, counted)
    return opened


def edge_enumerator(side: int) -> AnswerEnumerator:
    structure = graph_structure(triangulated_grid(side, side))
    rng = random.Random(side)
    for vertex in structure.domain:
        if rng.random() < 0.5:
            structure.add_tuple("S", (vertex,))
    return AnswerEnumerator(structure, EDGE_F, free_order=("x", "y"),
                            dynamic_relations=("S",))


#: Subtree opens plus linked-set steps per answer.  EDGE_F reads ~7 on
#: average: each answer is one supported child of the root sum — a
#: product of two inputs and a small sum or product — opened leaf by
#: leaf, plus one step along the root's linked set.
WORK_PER_ANSWER = 8
#: The most work between two answers (or before the first).
WORK_PER_DELAY = 12


def test_theorem24_work_per_answer_is_flat(subtree_opens):
    """Theorem 24: constant delay.  Over a full forward pass of EDGE_F,
    count the subtrees opened plus the linked-set steps taken.  Per
    answer on average, and before each answer at most, that work stays
    under a fixed constant, and the average agrees within 10 % between
    grid sides 12 and 24 (4× the answers).

    Fails on the mutant that rewrites ``LinkedSet.after`` as a scan
    from the head (``item = self.next[HEAD]`` until the successor of
    ``item`` is found): each step of the root sum then costs its
    position, and the work per answer grows with the grid.  Fails too
    on a walk that materialises an enumeration before its first answer
    (``list(self._walk(gate_id))`` in ``EnumerationContext.walk``): the
    first answer then waits for the whole pass.
    """
    def work():
        return subtree_opens[0] + CountingLinks.reads

    average = {}
    for side in (12, 24):
        enumerator = edge_enumerator(side)
        for linked in enumerator.context.add_children.values():
            linked.next = CountingLinks(linked.next)
        subtree_opens[0] = CountingLinks.reads = 0
        delays, before = [], 0
        for _answer in enumerator:
            delays.append(work() - before)
            before = work()
        assert len(delays) == enumerator.count() > 0
        assert max(delays) <= WORK_PER_DELAY, (side, max(delays))
        average[side] = work() / len(delays)
    assert max(average.values()) < WORK_PER_ANSWER, average
    assert average[24] <= 1.1 * average[12], average
    assert average[12] <= 1.1 * average[24], average
