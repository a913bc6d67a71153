"""Sharded serving demo: one query, four worker processes, one answer.

The paper's algebraic framing makes scale-out principled: a query's
value over a disjoint union of structures is the semiring ``⊕`` of the
per-shard values, so :meth:`repro.api.Database.serve_sharded` can
partition a structure along its Gaifman components, give each shard to
its own worker process (shared-nothing: one ``Database`` per worker,
built from the handle's ``ExecOptions``), and let the asyncio gateway
merge partial results with ``⊕``:

* point queries route to the single shard that owns the bound element
  (arguments spanning components answer ``sr.zero`` at the gateway —
  no connected witness can exist);
* ``group_by`` routes each group key to the shard that owns it, one
  batched sweep per shard;
* writes go through ``db.update()`` as usual and are routed to the
  owning shard's worker;
* admission control sheds load with a typed ``Overloaded`` error
  instead of queueing without bound, and a killed worker is respawned
  from its shard (warm-started through the shared plan store).

Run with:  PYTHONPATH=src python examples/cluster_demo.py
"""

import asyncio
import random

from repro import Atom, Bracket, Database, FLOAT, Sum, Weight, \
    graph_structure
from repro.graphs import Graph

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))


def build_structure(components=32, chain=4, seed=7):
    """A disjoint union of weighted chains — many Gaifman components,
    so the sharder has fine-grained placement units."""
    graph = Graph()
    for c in range(components):
        for i in range(chain):
            graph.add_vertex(f"c{c}n{i}")
        for i in range(chain - 1):
            graph.add_edge(f"c{c}n{i}", f"c{c}n{i + 1}")
    structure = graph_structure(graph)
    rng = random.Random(seed)
    for edge in sorted(structure.relations["E"]):
        structure.set_weight("w", edge, float(rng.randint(1, 9)))
    return structure


async def async_clients(service, probes):
    """The gateway is asyncio-native: awaitable queries, no threads."""
    values = await asyncio.gather(
        *(service.query(probe) for probe in probes))
    batch = await service.query_batch([(probe,) for probe in probes])
    assert batch == list(values)
    return values


def main():
    structure = build_structure()

    with Database(structure) as db:
        with db.serve_sharded(DEGREE, FLOAT, shards=4) as service:
            stats = service.stats()
            print(f"{stats['components']} components over "
                  f"{stats['shards']} shard workers "
                  f"(policy={stats['policy']}), domain elements per "
                  f"shard: {[entry['domain'] for entry in stats['workers']]}")

            probe = structure.domain[1]
            print(f"f({probe}) = {service.query_sync(probe)}  "
                  f"(routed to the owning shard)")

            probes = structure.domain[:8]
            values = asyncio.run(async_clients(service, probes))
            print(f"asyncio clients: f over {len(probes)} probes = "
                  f"{[round(v, 1) for v in values]}")

            # Grouped sweep: the gateway enumerates the group keys and
            # sends each to its owning shard, one batch per shard.
            table = service.group_by_sync()
            heavy = max(table, key=lambda row: row[-1])
            print(f"group_by: {len(list(table))} groups, "
                  f"heaviest {heavy[0]} -> {heavy[-1]}")

            # Writes route to the owning worker through the facade.
            edge = sorted(structure.relations["E"])[0]
            with db.update() as tx:
                tx.set_weight("w", edge, 100.0)
            print(f"after update_weight{edge}: "
                  f"f({edge[0]}) = {service.query_sync(edge[0])}")

            stats = service.stats()
            print(f"gateway stats: requests={stats['requests']} "
                  f"sheds={stats['sheds']} respawns={stats['respawns']} "
                  f"merge={stats['merge_seconds']:.4f}s")


if __name__ == "__main__":
    main()
