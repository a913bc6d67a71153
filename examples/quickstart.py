"""Quickstart: one circuit, many semirings (the paper's core idea).

Compiles the triangle query

    f = Σ_{x,y,z} [E(x,y) ∧ E(y,z) ∧ E(z,x)] · w(x,y) · w(y,z) · w(z,x)

over a sparse planar graph once through the unified ``repro.api``
facade, then evaluates the same prepared circuit in (N, +, ·) for bag
counting, (N∪{∞}, min, +) for the cheapest triangle, and B for
existence — followed by a dynamic weight update maintained in
constant/logarithmic time (Theorem 8) and a batched what-if sweep.

Run: PYTHONPATH=src python examples/quickstart.py
"""

import random

from repro import (Atom, Bracket, BOOLEAN, Database, INTEGER, MIN_PLUS,
                   NATURAL, Sum, Weight, graph_structure, triangulated_grid)


def main():
    graph = triangulated_grid(6, 6)
    structure = graph_structure(graph)          # directed edge relation E
    rng = random.Random(0)
    for edge in sorted(structure.relations["E"]):
        structure.set_weight("w", edge, rng.randint(1, 9))

    E = lambda x, y: Atom("E", (x, y))
    w = lambda x, y: Weight("w", (x, y))
    triangle = Sum(("x", "y", "z"),
                   Bracket(E("x", "y") & E("y", "z") & E("z", "x"))
                   * w("x", "y") * w("y", "z") * w("z", "x"))

    with Database(structure) as db:
        query = db.prepare(triangle)
        stats = query.stats()
        print(f"compiled circuit: {stats['gates']} gates, depth "
              f"{stats['depth']}, {stats['colors']} colors, forests of "
              f"height <= {stats['max_forest_height']}")

        print("bag-semantics weight sum (N):   ", query.value(NATURAL))
        print("cheapest directed triangle:     ", query.value(MIN_PLUS))

        # Existence: the same query without weights, evaluated in B.
        counter = db.prepare(Sum(("x", "y", "z"),
                             Bracket(E("x", "y") & E("y", "z")
                                     & E("z", "x"))))
        print("a triangle exists (B):          ", counter.value(BOOLEAN))
        print("number of directed triangles (N):", counter.value(NATURAL))

        # A maintained handle plus a routed update: every consumer of the
        # database (including the caches) sees it — nothing can go stale.
        maintained = query.maintain(INTEGER)
        edge = sorted(structure.relations["E"])[0]
        print(f"\nmaintained value: {maintained.value()}; "
              f"updating w{edge} -> 100 ...")
        with db.update() as tx:
            touched = tx.set_weight("w", edge, 100)
        print(f"maintained value: {maintained.value()} "
              f"({touched} gates touched)")

        # The circuit above was already optimized (every handle is).
        # The raw Theorem 6 circuit is bigger; the optimizer's flatten
        # rebuild (fan-in flattening, CSE/DCE) shrinks it
        # value-preservingly.
        from repro.circuits import describe_optimization, optimize_circuit
        from repro.core import compile_structure_query
        raw = compile_structure_query(db.structure, triangle, optimize=False)
        print("\n" + describe_optimization(optimize_circuit(raw.circuit)))

        # Batched evaluation: N what-if scenarios in one bottom-up sweep.
        edges = sorted(structure.relations["E"])[:4]
        scenarios = [{}] + [{("w", "w", e): 0} for e in edges]
        values = query.batch(scenarios, NATURAL)
        print(f"batched what-ifs (drop one edge each): {values}")


if __name__ == "__main__":
    main()
