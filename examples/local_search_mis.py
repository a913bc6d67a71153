"""Example 25 from the paper: local search via dynamic enumeration.

The current independent set S is a unary predicate; the improvement rule
"x can join S" is a quantifier-free condition maintained under the unary
updates of Theorem 24.  Each round costs constant time: pull one witness
from the enumerator (obtained from the facade via
``db.prepare(formula, ...).enumerate()``), flip S(x), update the
neighborhood markers.  The whole search is linear — the observation that
(with larger radius) yields the EPTAS of Har-Peled & Quanrud on
polynomial-expansion classes.

Run: PYTHONPATH=src python examples/local_search_mis.py
"""

from repro import Atom, Database, graph_structure, triangulated_grid


def main():
    graph = triangulated_grid(8, 8)
    structure = graph_structure(graph)
    # S: the independent set; T: "has a neighbor in S" (maintained marker).
    for name in ("S", "T"):
        structure.relations.setdefault(name, set())
        structure._arity.setdefault(name, 1)
    addable = ~Atom("S", ("x",)) & ~Atom("T", ("x",))

    with Database(structure) as db:
        # The enumerator is a live view of the handle: its writes go
        # through db.update() into the handle's one plan, as the
        # constant-time support flips of Theorem 24.
        enumerator = db.prepare(addable, params=("x",),
                                dynamic=("S", "T")).enumerate()

        independent = []
        while enumerator.has_answers():
            (vertex,) = next(iter(enumerator))
            independent.append(vertex)
            enumerator.set_relation("S", (vertex,), True)
            for neighbor in graph.neighbors(vertex):
                enumerator.set_relation("T", (neighbor,), True)

    chosen = set(independent)
    assert all(not (set(graph.neighbors(v)) & chosen) for v in chosen)
    assert all(v in chosen or (set(graph.neighbors(v)) & chosen)
               for v in graph.vertices())
    print(f"maximal independent set of size {len(chosen)} on "
          f"{len(graph)} vertices ({len(chosen)/len(graph):.1%})")


if __name__ == "__main__":
    main()
