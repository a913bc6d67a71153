"""Degeneracy orderings and bounded-out-degree acyclic orientations.

A graph is *d-degenerate* when its edges admit an acyclic orientation with
out-degree at most ``d``; classes of bounded expansion have bounded
degeneracy (paper §A.5).  The Matula–Beck bucket algorithm below computes a
degeneracy ordering in linear time.  The orientation drives linear-time
clique enumeration and the augmentation steps of the low-treedepth
coloring.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Tuple

from .graph import Graph, Vertex


def degeneracy_ordering(graph: Graph) -> Tuple[List[Vertex], int]:
    """Return ``(ordering, degeneracy)`` via Matula–Beck bucket queues.

    Repeatedly removes a minimum-degree vertex; the ordering lists vertices
    in removal order, and each vertex has at most ``degeneracy`` neighbors
    *later* in the ordering.
    """
    degrees: Dict[Vertex, int] = {v: graph.degree(v) for v in graph.vertices()}
    max_degree = max(degrees.values(), default=0)
    buckets: List[List[Vertex]] = [[] for _ in range(max_degree + 1)]
    for vertex, degree in degrees.items():
        buckets[degree].append(vertex)
    removed: Dict[Vertex, bool] = {v: False for v in degrees}
    ordering: List[Vertex] = []
    degeneracy = 0
    cursor = 0
    for _ in range(len(degrees)):
        # Buckets may contain stale entries (vertices whose degree dropped
        # after insertion); skip them, advancing past emptied buckets.
        while True:
            while cursor <= max_degree and not buckets[cursor]:
                cursor += 1
            vertex = buckets[cursor].pop()
            if not removed[vertex] and degrees[vertex] == cursor:
                break
        removed[vertex] = True
        degeneracy = max(degeneracy, cursor)
        ordering.append(vertex)
        for nbr in graph.neighbors(vertex):
            if not removed[nbr]:
                degrees[nbr] -= 1
                buckets[degrees[nbr]].append(nbr)
                if degrees[nbr] < cursor:
                    cursor = degrees[nbr]
    return ordering, degeneracy


class Orientation:
    """An acyclic orientation with bounded out-degree.

    ``out[v]`` lists the out-neighbors of ``v`` in degeneracy order;
    ``position[v]`` is ``v``'s place in that order and ``out_degree`` the
    largest out-neighborhood.
    """

    def __init__(self, graph: Graph, ordering: List[Vertex] = None):
        if ordering is None:
            ordering, _ = degeneracy_ordering(graph)
        self.graph = graph
        self.position: Dict[Vertex, int] = {v: i for i, v in enumerate(ordering)}
        self.out: Dict[Vertex, List[Vertex]] = {}
        for vertex in ordering:
            later = [n for n in graph.neighbors(vertex)
                     if self.position[n] > self.position[vertex]]
            later.sort(key=lambda n: self.position[n])
            self.out[vertex] = later
        self.out_degree = max((len(nbrs) for nbrs in self.out.values()),
                              default=0)


def enumerate_cliques(graph: Graph, size: int,
                      orientation: Orientation = None) -> Iterator[Tuple[Vertex, ...]]:
    """Enumerate all cliques of exactly ``size`` distinct vertices.

    Uses the orientation: every clique has a unique source whose
    out-neighborhood contains the rest, so the work per vertex is
    ``O(out_degree^(size-1))`` — linear total on degenerate graphs.
    Cliques are yielded once, as tuples sorted by orientation position.
    """
    if orientation is None:
        orientation = Orientation(graph)
    if size == 1:
        for vertex in graph.vertices():
            yield (vertex,)
        return
    for vertex in graph.vertices():
        candidates = orientation.out[vertex]
        for combo in itertools.combinations(candidates, size - 1):
            if graph.is_clique(combo):
                yield (vertex,) + combo
