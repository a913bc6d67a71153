"""E-G1: grouped aggregation — one batched sweep vs k point queries.

``PreparedQuery.group_by`` evaluates every group as one column of a
single vectorized sweep over the shared compiled circuit (Theorem 8's
selector protocol amortized across the whole group domain, the selector
edits collapsed into one scatter on the memoized base column).  The
baseline is the same k groups answered by k independent
``bind(...).value(...)`` point queries — one selector dance and one
circuit walk each — with result caching disabled on both paths.
Acceptance: the one-sweep path sustains >= 3x the point-query loop at
k=64 on the numpy backend at full size.

Backend axis: each CI leg sweeps on its own backend
(``REPRO_BACKEND=python`` runs the pure-Python sweep, the default leg
the vectorized one), so the two legs' artifacts compare the same
grouped workload across backends without either leg paying for the
other's rows.

``REPRO_BENCH_FAST=1`` shrinks the workload (assertions are skipped).
"""

from __future__ import annotations

import os

from repro import NATURAL, Atom, Bracket, Database, Sum, Weight
from repro.circuits import HAVE_NUMPY

from common import report, timed, triangle_workload

E = lambda x, y: Atom("E", (x, y))
w = lambda x, y: Weight("w", (x, y))

#: f(x) = Σ_y [E(x, y)] * w(x, y) — one aggregate per group key x.
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
NUMPY_OK = HAVE_NUMPY and os.environ.get("REPRO_BACKEND") != "python"
SIDE = 6 if FAST else 12
GROUPS = 16 if FAST else 64
ROUNDS = 1 if FAST else 10


def grouped_workload(side: int, k: int):
    """Integer-weighted triangulated grid (int64 exact kernel) and the
    first ``k`` domain elements as the explicit group keys."""
    structure = triangle_workload(side)
    keys = list(structure.domain)[:k]
    assert len(keys) == k, "grid too small for the requested group count"
    return structure, keys


def run_point_loop(query, keys):
    """The baseline: one selector-protocol point query per group."""
    return [query.bind(key).value(NATURAL) for key in keys]


def best_rate(fn, count):
    """Best-of-N groups/sec plus the last elapsed seconds."""
    best = float("inf")
    for _ in range(ROUNDS):
        _, elapsed = timed(fn)
        best = min(best, elapsed)
    return count / best, best


def test_group_sweep_vs_point_queries(capsys):
    structure, keys = grouped_workload(SIDE, GROUPS)

    # result_cache_size=0 on both paths: the comparison is sweep vs
    # selector protocol, not cache hits vs cache misses.
    with Database(structure.copy(), result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",))
        expected = run_point_loop(query, keys)  # warm + reference
        point_rate, point_time = best_rate(
            lambda: run_point_loop(query, keys), GROUPS)

    rows = [["bind().value() loop", round(point_time, 4),
             int(point_rate), 1.0]]
    rates = {}
    # One sweep backend per CI leg: the python leg measures the
    # pure-Python sweep, the numpy leg the vectorized one, and the two
    # artifacts together give the cross-backend picture.
    backends = ["numpy"] if NUMPY_OK else ["python"]
    for backend in backends:
        with Database(structure.copy(), result_cache_size=0) as db:
            query = db.prepare(DEGREE, params=("x",), backend=backend)
            table = query.group_by(keys, NATURAL)  # warm + correctness
            assert table.values() == expected
            assert table.stats["sweeps"] == 1
            rate, elapsed = best_rate(
                lambda: query.group_by(keys, NATURAL), GROUPS)
        rates[backend] = rate
        rows.append([f"group_by ({backend})", round(elapsed, 4), int(rate),
                     round(rate / point_rate, 2)])

    with capsys.disabled():
        report(f"E-G1: grouped aggregation, k={GROUPS} groups "
               f"(side={SIDE}, seconds)",
               ["path", "time", "groups/s", "speedup"], rows)
    if not FAST and NUMPY_OK:
        speedup = rates["numpy"] / point_rate
        assert speedup >= 3.0, (
            f"one-sweep group_by only {speedup:.2f}x the point-query loop "
            f"at k={GROUPS} on the numpy backend (target: 3x)")


def test_group_sweep(benchmark):
    structure, keys = grouped_workload(SIDE, GROUPS)
    with Database(structure, result_cache_size=0) as db:
        query = db.prepare(DEGREE, params=("x",),
                           backend="auto" if NUMPY_OK else "python")
        query.group_by(keys, NATURAL)  # warm the memoized base column
        benchmark(lambda: query.group_by(keys, NATURAL))
