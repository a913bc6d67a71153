"""Grouped aggregation (OLAP) demo: one sweep, HAVING, ROLLUP, updates.

Compiles the weighted out-degree query f(x) = Σ_y [E(x,y)] * w(x,y)
over a triangulated grid once, then answers it *for every group at
once*: ``PreparedQuery.group_by`` binds each group key as one column of
a single vectorized sweep over the shared circuit (Theorem 8's selector
protocol amortized across the whole group domain) and returns a
:class:`repro.ResultTable`:

* ``q.group_by(NATURAL)`` — the full domain in one sweep;
* ``q.group_by(None, NATURAL, having=...)`` — SQL's HAVING, a filter
  on the aggregates;
* a 2-ary grouping with ``rollup=True`` — subtotal rows per prefix and
  a grand total, the rolled-up positions marked ``TOTAL``;
* ``db.update()`` after the sweep — the result cache loses only the
  groups the update can reach, so the next sweep recomputes only the
  touched groups.

Run with:  PYTHONPATH=src python examples/groupby_olap.py
"""

import random

from repro import Atom, Bracket, Database, NATURAL, Sum, Weight, \
    graph_structure, triangulated_grid

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

#: f(x) = Σ_y [E(x, y)] * w(x, y) — one aggregate per group key x.
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))

#: g(x, y) = [E(x, y)] * w(x, y) — the 2-ary detail cell for ROLLUP.
CELL = Bracket(E("x", "y")) * w("x", "y")


def build_structure(side=6, seed=11):
    structure = graph_structure(triangulated_grid(side, side))
    rng = random.Random(seed)
    for edge in sorted(structure.relations["E"]):
        structure.set_weight("w", edge, rng.randint(1, 9))
    return structure


def main():
    structure = build_structure()

    with Database(structure) as db:
        # -- the whole domain, one sweep --------------------------------
        query = db.prepare(DEGREE, params=("x",))
        table = query.group_by(NATURAL)
        stats = table.stats
        print(f"group_by over {stats['groups']} groups: "
              f"{stats['sweeps']} sweep(s), {stats['pass']} pass over "
              f"{stats['cells']} cells, kernel {stats['kernel']}")
        top = sorted(table, key=lambda row: row[-1], reverse=True)[:3]
        for *key, value in top:
            print(f"  heaviest: f{tuple(key)} = {value}")

        # -- SQL-ish: SELECT ... GROUP BY x HAVING sum > 25 -------------
        heavy = query.group_by(None, NATURAL,
                               having=lambda value: value > 25)
        print(f"\nHAVING > 25 keeps {len(heavy)} of {stats['groups']} "
              f"groups: {sorted(heavy.values(), reverse=True)}")

        # -- 2-ary ROLLUP: detail rows, per-x subtotals, grand total ----
        cells = db.prepare(CELL, params=("x", "y"))
        edges = sorted(structure.relations["E"])[:6]
        cube = cells.group_by(edges, NATURAL, rollup=True)
        print(f"\nROLLUP over {len(edges)} edge cells "
              f"({len(cube)} rows incl. subtotals):")
        for *key, value in cube:
            print(f"  {tuple(key)!r:>28} -> {value}")

        # -- fine-grained invalidation ----------------------------------
        # A weight update evicts the groups it can reach and no others:
        # the next sweep recomputes only the touched groups.
        edge = edges[0]
        with db.update() as tx:
            tx.set_weight("w", edge, 100)
        rerun = query.group_by(NATURAL)
        print(f"\nafter set_weight w{edge}=100: "
              f"{rerun.stats['cache_hits']} groups stayed warm, "
              f"{rerun.stats['cache_misses']} recomputed")
        print(f"f({edge[0]}) = {rerun[edge[0]]}  (was {table[edge[0]]})")


if __name__ == "__main__":
    main()
