"""Serving demo: concurrent point queries, micro-batched and cached.

Compiles the weighted out-degree query f(x) = Σ_y [E(x,y)] * w(x,y)
over a triangulated grid once, then serves it to 16 concurrent client
threads through the unified facade's :meth:`repro.api.Database.serve`:

* concurrent ``service.query(v)`` calls coalesce into micro-batches
  evaluated by one vectorized sweep each (group commit: whatever
  arrives while one sweep runs ships as the next batch, no timer);
* repeated probes hit the database's shared result cache until an
  update with observable effect (touched gates > 0) evicts them;
* a second service over the same data reuses the compiled plan from
  the database's shared plan cache instead of recompiling;
* updates go through ``db.update()``, which routes them into every
  live service and cache — the stale-cache bug class is structurally
  impossible.

Run with:  PYTHONPATH=src python examples/serve_demo.py
"""

import random
import threading
import time

from repro import Atom, Bracket, Database, FLOAT, Sum, Weight, \
    graph_structure, triangulated_grid

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))


def build_structure(side=12, seed=7):
    structure = graph_structure(triangulated_grid(side, side))
    rng = random.Random(seed)
    for edge in sorted(structure.relations["E"]):
        structure.set_weight("w", edge, float(rng.randint(1, 9)))
    return structure


def drive(service, structure, threads=16, queries=200):
    def client(thread_id):
        rng = random.Random(thread_id)
        for _ in range(queries):
            service.query(rng.choice(structure.domain))

    workers = [threading.Thread(target=client, args=(thread_id,))
               for thread_id in range(threads)]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - start
    return threads * queries / elapsed


def main():
    structure = build_structure()

    with Database(structure, max_batch_size=128) as db:
        with db.serve(DEGREE, FLOAT) as service:
            probe = structure.domain[5]
            print(f"f({probe}) = {service.query(probe)}")

            qps = drive(service, structure)
            stats = service.stats()
            print(f"\n16 concurrent clients: {qps:,.0f} queries/sec")
            print(f"micro-batches: {stats['batches']} "
                  f"(mean size {stats['mean_batch']}, "
                  f"largest {stats['largest_batch']}, "
                  f"{stats['deduped_queries']} deduplicated)")
            print(f"result cache: {stats['result_cache']}")

        # The plan survives the service: as long as the data content is
        # unchanged, a new service skips compilation entirely (the
        # database's plan cache is shared across everything it creates).
        start = time.perf_counter()
        with db.serve(DEGREE, FLOAT) as service:
            service.query(probe)
        print(f"\nsecond service start+first query: "
              f"{time.perf_counter() - start:.3f}s "
              f"(plan cache: {db.plan_cache.stats()})")

        with db.serve(DEGREE, FLOAT) as service:
            # A routed weight update invalidates results precisely: the
            # epoch only advances because the update actually recomputed
            # gates inside the service's engine.
            edge = sorted(structure.relations["E"])[0]
            with db.update() as tx:
                touched = tx.set_weight("w", edge, 100.0)
            print(f"\nupdate_weight{edge} touched {touched} gates "
                  f"-> service epoch {service.epoch}")
            print(f"f({edge[0]}) = {service.query(edge[0])}  (recomputed)")

            # A write of the same value touches nothing, keeps the cache.
            with db.update() as tx:
                touched = tx.set_weight("w", edge, 100.0)
            print(f"same-value update touched {touched} gates "
                  f"-> service epoch {service.epoch} (cache kept)")


if __name__ == "__main__":
    main()
