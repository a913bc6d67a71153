"""E-A6: batched evaluation backends vs the seed StaticEvaluator loop.

The seed engine answered an N-valuation workload by running
:class:`StaticEvaluator` N times over the raw Theorem 6 circuit.  The
optimized path runs ``repro.circuits.optimize_circuit`` once and
then a single :class:`BatchedEvaluator` sweep.  The acceptance target:
>= 2x on the triangle workload at side >= 20 *including* the one-time
optimization cost (excluding it, the sweep alone is typically >= 5x).

The *backend axis* compares the two batched substrates on one compiled
query: ``backend="python"`` (the PR 1 :class:`BatchedEvaluator`) vs
``backend="numpy"`` (the layered :class:`VectorizedEvaluator`).  Target:
the numpy backend >= 2x over the python batched sweep on the side-20
triangle workload in the numeric semiring; the pure-Python fallback
results are asserted unchanged.

The *counting-semiring axis* compares the exact kernels on the same
compiled query: ``exact_mode="object"`` (exact Python ints on object
dtype) vs ``exact_mode="auto"`` (the guarded native kernel, which runs
a batch natively only when its overflow certificate holds).  Target:
>= 3x at side 20, results identical, every in-range batch certified
(zero fallbacks) — and the chosen kernel + fallback count are
printed as a ``KERNEL-REPORT`` line that ``ci_smoke`` lifts into
``BENCH_ci.json``.

``REPRO_BENCH_FAST=1`` shrinks the workload for CI smoke runs (the 2x
assertions only apply at full size, where amortization is realistic);
``REPRO_BACKEND=python`` disables the numpy axis (the no-numpy CI leg).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.circuits import (HAVE_NUMPY, BatchedEvaluator, StaticEvaluator,
                            optimize_circuit)
# The internal compile entry: these benches measure the compiler and the
# evaluator substrates themselves, below the repro.api facade seam.
from repro.core import compile_structure_query
from repro.semirings import BOOLEAN, NATURAL

from common import TRIANGLE, report, timed, triangle_workload

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
SIDE = 8 if FAST else 20
BATCH = 8 if FAST else 64
ROUNDS = 1 if FAST else 3
NUMPY_OK = HAVE_NUMPY and os.environ.get("REPRO_BACKEND") != "python"


def best_of(fn, rounds=None):
    """Best-of-N wall clock (the standard noise shield for a one-shot
    assertion): returns (last result, min elapsed)."""
    result, best = None, float("inf")
    for _ in range(ROUNDS if rounds is None else rounds):
        result, elapsed = timed(fn)
        best = min(best, elapsed)
    return result, best


def _workload(side, batch):
    """Raw compiled triangle query + a batch of weight-override valuations."""
    structure = triangle_workload(side)
    compiled = compile_structure_query(structure, TRIANGLE, optimize=False)
    base = compiled.input_valuation(NATURAL)
    rng = random.Random(1)
    edges = sorted(structure.relations["E"])
    zero = NATURAL.zero
    valuations = []
    for _ in range(batch):
        overlay = dict(base)
        for edge in rng.sample(edges, min(5, len(edges))):
            overlay[("w", "w", edge)] = rng.randint(1, 9)
        valuations.append(lambda key, _o=overlay: _o.get(key, zero))
    return compiled, valuations


def test_optimized_batched_beats_seed_loop(capsys):
    compiled, valuations = _workload(SIDE, BATCH)

    def seed_loop():
        return [StaticEvaluator(compiled.circuit, NATURAL, fn).value()
                for fn in valuations]

    seed_values, seed_time = best_of(seed_loop)
    optimized_result, opt_time = best_of(
        lambda: optimize_circuit(compiled.circuit))
    batch_values, batch_time = best_of(
        lambda: BatchedEvaluator(optimized_result.circuit, NATURAL,
                                 valuations).results())
    assert batch_values == seed_values

    total = opt_time + batch_time
    speedup = seed_time / total if total else float("inf")
    sweep_speedup = seed_time / batch_time if batch_time else float("inf")
    with capsys.disabled():
        report(f"E-A6: seed StaticEvaluator loop vs optimize+batched "
               f"(side={SIDE}, batch={BATCH}, seconds)",
               ["path", "time", "speedup"],
               [["seed loop", round(seed_time, 4), 1.0],
                ["optimize (once)", round(opt_time, 4), ""],
                ["batched sweep", round(batch_time, 4),
                 round(sweep_speedup, 2)],
                ["optimize+batched", round(total, 4), round(speedup, 2)]])
        print(f"gates: {optimized_result.gates_before} -> "
              f"{optimized_result.gates_after}")
    if not FAST:
        assert speedup >= 2.0, (
            f"optimized+batched path only {speedup:.2f}x faster than the "
            f"seed StaticEvaluator loop (target: 2x)")


def _override_workload(side, batch):
    """Optimized compiled triangle query + sparse weight-override batch
    (the mapping form both backends of ``evaluate_batch`` accept)."""
    structure = triangle_workload(side)
    compiled = compile_structure_query(structure, TRIANGLE)
    rng = random.Random(1)
    edges = sorted(structure.relations["E"])
    overrides = [{("w", "w", edge): rng.randint(1, 9)
                  for edge in rng.sample(edges, min(5, len(edges)))}
                 for _ in range(batch)]
    return compiled, overrides


@pytest.mark.skipif(not NUMPY_OK, reason="numpy unavailable or disabled")
def test_numpy_backend_beats_python_batched(capsys):
    compiled, overrides = _override_workload(SIDE, BATCH)
    python_values, python_time = best_of(
        lambda: compiled.evaluate_batch(NATURAL, overrides,
                                        backend="python"))
    numpy_values, numpy_time = best_of(
        lambda: compiled.evaluate_batch(NATURAL, overrides,
                                        backend="numpy"))
    assert numpy_values == python_values
    speedup = python_time / numpy_time if numpy_time else float("inf")
    with capsys.disabled():
        report(f"E-A6b: batched-sweep backend axis "
               f"(side={SIDE}, batch={BATCH}, semiring=N, seconds)",
               ["backend", "time", "speedup"],
               [["python", round(python_time, 4), 1.0],
                ["numpy", round(numpy_time, 4), round(speedup, 2)]])
        print(f"schedule: {compiled.schedule().stats()}")
    if not FAST:
        assert speedup >= 2.0, (
            f"numpy backend only {speedup:.2f}x over the python "
            f"BatchedEvaluator sweep (target: 2x)")


@pytest.mark.skipif(not NUMPY_OK, reason="numpy unavailable or disabled")
def test_int64_kernel_beats_object_dtype_on_counting_sweep(capsys):
    """E-A6d: the counting-semiring kernel axis.  The same compiled
    triangle query and override batch, evaluated once on the exact
    object-dtype kernel and once on the guarded int64 kernel.  In-range
    counting weights keep every batch within the certificate's bound M*
    (no fallback), and the native kernel must still be >= 3x faster at
    full size."""
    import json

    compiled, overrides = _override_workload(SIDE, BATCH)
    object_values, object_time = best_of(
        lambda: compiled.evaluate_batch(NATURAL, overrides,
                                        backend="numpy",
                                        exact_mode="object"))
    int64_values, int64_time = best_of(
        lambda: compiled.evaluate_batch(NATURAL, overrides,
                                        backend="numpy",
                                        exact_mode="auto"))
    assert int64_values == object_values
    kernel = compiled.stats()["exact_kernel"]
    assert kernel["used"] == "N-int64"
    assert kernel["fallbacks"] == 0
    speedup = object_time / int64_time if int64_time else float("inf")
    with capsys.disabled():
        report(f"E-A6d: exact-kernel axis, counting semiring "
               f"(side={SIDE}, batch={BATCH}, semiring=N, seconds)",
               ["exact_mode", "time", "speedup"],
               [["object", round(object_time, 4), 1.0],
                ["int64", round(int64_time, 4), round(speedup, 2)]])
        print("KERNEL-REPORT " + json.dumps({
            "axis": "counting-int64", "side": SIDE, "batch": BATCH,
            "kernel": kernel["used"], "fallbacks": kernel["fallbacks"],
            "speedup_vs_object": round(speedup, 2)}))
    if not FAST:
        assert speedup >= 3.0, (
            f"int64 kernel only {speedup:.2f}x over the object-dtype "
            f"kernel on the counting sweep (target: 3x)")


@pytest.mark.skipif(not NUMPY_OK, reason="numpy unavailable or disabled")
def test_overflowing_counting_sweep_stays_exact(capsys):
    """The guarded kernel's other side: weights near the int64 boundary
    are far past M*, so the batch runs on the object kernel (a counted
    fallback) and must equal it exactly (the safety half of the E-A6d
    axis)."""
    import json

    compiled, overrides = _override_workload(8 if FAST else 12, BATCH)
    hot = [{key: value * 2 ** 58 for key, value in override.items()}
           for override in overrides]
    object_values = compiled.evaluate_batch(NATURAL, hot,
                                            backend="numpy",
                                            exact_mode="object")
    int64_values = compiled.evaluate_batch(NATURAL, hot,
                                           backend="numpy",
                                           exact_mode="auto")
    assert int64_values == object_values
    kernel = compiled.stats()["exact_kernel"]
    assert kernel["fallbacks"] >= 1
    assert kernel["used"] == "N-object"
    with capsys.disabled():
        print("KERNEL-REPORT " + json.dumps({
            "axis": "counting-overflow", "kernel": kernel["used"],
            "fallbacks": kernel["fallbacks"]}))


def test_python_fallback_results_unchanged_by_backend_axis():
    """The backend axis must not perturb the pure-Python path: explicit
    ``backend="python"`` agrees with a direct BatchedEvaluator run, and
    ``backend="auto"`` for a kernel-less semiring (boolean) matches its
    explicit-python result.  Runs on the no-numpy leg too — that is the
    configuration these assertions exist to protect."""
    compiled, overrides = _override_workload(8 if FAST else 12, BATCH)
    base = compiled.input_valuation(NATURAL)
    zero = NATURAL.zero
    fns = [lambda key, _o={**base, **ov}: _o.get(key, zero)
           for ov in overrides]
    direct = BatchedEvaluator(compiled.circuit, NATURAL, fns).results()
    assert compiled.evaluate_batch(NATURAL, overrides,
                                   backend="python") == direct
    bool_overrides = [{key: value > 0 for key, value in ov.items()}
                      for ov in overrides]
    assert compiled.evaluate_batch(BOOLEAN, bool_overrides) \
        == compiled.evaluate_batch(BOOLEAN, bool_overrides,
                                   backend="python")


BACKENDS = ["python", "numpy"] if NUMPY_OK else ["python"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("side", [4, 6] if FAST else [6, 10])
def test_backend_sweep(benchmark, side, backend):
    compiled, overrides = _override_workload(side, BATCH)
    compiled.evaluate_batch(NATURAL, overrides, backend=backend)  # warm
    benchmark(lambda: compiled.evaluate_batch(NATURAL, overrides,
                                              backend=backend))


@pytest.mark.parametrize("side", [4, 6] if FAST else [6, 10])
def test_batched_eval(benchmark, side):
    compiled, valuations = _workload(side, BATCH)
    optimized = optimize_circuit(compiled.circuit).circuit
    benchmark(lambda: BatchedEvaluator(optimized, NATURAL,
                                       valuations).results())


@pytest.mark.parametrize("side", [4, 6] if FAST else [6, 10])
def test_seed_eval_loop(benchmark, side):
    compiled, valuations = _workload(side, BATCH)
    benchmark.pedantic(
        lambda: [StaticEvaluator(compiled.circuit, NATURAL, fn).value()
                 for fn in valuations],
        rounds=1, iterations=1)
