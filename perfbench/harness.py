"""One run of one workload: rounds, blocks, estimators, the traced run.

The untraced run gives the end-to-end metrics.  It splits ``--seconds``
into ``ROUNDS`` equal slices; a slice holds one fresh, timed set-up, an
untimed warm-up and as many fixed-size blocks of operations as still fit,
so a run takes the same wall time on a slow host and a fast one.  Every
estimator is a median (see README.md for the host-noise study behind
that choice).

The traced run gives the per-layer metrics: it builds all four fixtures,
runs a fixed number of operations on each with spans on, runs each
workload's layer probes, and takes the exact counts from the selected
workload only (so a bypassed layer reads zero).
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from .stats import (CALIB_REF_NS, calibrate, host_factor, median,
                    timer_cost_ns, vm_hwm_mb)
from .trace import NullTracer, Tracer
from .workloads import FULL, SMOKE, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Fresh set-ups per run: five samples of ``setup_s`` spread over the run.
ROUNDS = 5
#: A round measures at least this many blocks however slow its set-up was.
MIN_BLOCKS = 2
#: nanoseconds -> the unit a span-derived metric is reported in.
SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3, "ns": 1.0}
#: Units of exact counts: absent means the layer was bypassed, so 0.
COUNT_UNITS = ("count", "ratio", "bytes")

clock = time.perf_counter_ns


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def park_heap() -> None:
    """Move everything alive into the permanent generation.  Between
    rounds only the harness's own inputs and shadows are alive; parked,
    they no longer make the program's collections (and so its set-up
    time) depend on how much the harness holds."""
    gc.collect()
    gc.freeze()


def make(name: str, seed: int, smoke: bool) -> Workload:
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, SMOKE if smoke else FULL, OUT_DIR)
    park_heap()
    return workload


def end_round(workload: Workload, tr: Any) -> None:
    """Tear the fixture down; always runs, so no service, worker process
    or parked fixture outlives its round."""
    gc.unfreeze()
    workload.close(tr)
    park_heap()


def measure(name: str, seed: int, seconds: float,
            smoke: bool) -> Tuple[Dict[str, float], Workload, str]:
    """The untraced run: end-to-end metric values, the workload (for its
    failure counts) and a summary line for people.

    Every time is scaled by the calibration kernel run right next to it
    (see ``stats.host_factor``): this host's speed drifts by 10-20 % over
    minutes, and unscaled medians of identical runs drift with it."""
    workload = make(name, seed, smoke)
    sizes = workload.sizes
    tr = NullTracer()
    rounds = 1 if smoke else ROUNDS
    slice_ns = seconds * 1e9 / rounds
    setups: List[float] = []
    rates: List[float] = []
    block_p50: List[float] = []
    raw_p50: List[float] = []
    calib: List[int] = []
    ops = 0
    for _ in range(rounds):
        round_start = clock()
        try:
            around = [calibrate(), calibrate()]
            setup_ns = workload.setup(tr)
            around += [calibrate(), calibrate()]
            setups.append(setup_ns * host_factor(around))
            workload.run_block(tr, sizes["warm_ops"][name])  # warm-up
            # The fixture is not garbage either: keep the collector
            # from walking the compiled circuits during the timed ops.
            park_heap()
            blocks, block_wall = 0, 0
            before = calibrate()
            while blocks < MIN_BLOCKS or \
                    clock() - round_start + block_wall <= slice_ns:
                block_start = clock()
                elapsed, taken = workload.run_block(
                    tr, sizes["block_ops"][name])
                after = calibrate()
                factor = host_factor((before, after))
                rates.append(taken.size / (elapsed * factor / 1e9))
                block_p50.append(float(np.median(taken)) * factor)
                raw_p50.append(float(np.median(taken)))
                calib.append(after)
                ops += taken.size
                before = after
                blocks += 1
                block_wall = clock() - block_start
            workload.verify()
        finally:
            end_round(workload, tr)
    metrics = {
        "setup_s": median(setups) / 1e9,
        "ops_per_s": median(rates),
        "op_p50_ms": median(block_p50) / 1e6,
        "peak_rss_mb": vm_hwm_mb() + workload.peak_rss_mb(),
    }
    summary = (f"{name}: {ops} ops in {len(rates)} blocks, {len(setups)} "
               f"set-ups; unscaled op_p50_ms={median(raw_p50) / 1e6:.5g}, "
               f"host.calib_ms={median(calib) / 1e6:.4g} (reference "
               f"{CALIB_REF_NS / 1e6:g})")
    return metrics, workload, summary


def traced_ops(workload: Workload, tr: Tracer, name: str) -> None:
    """The selected workload's operations: blocks alternate between
    spans off and spans on, so the two medians see the same fixture age
    and their difference is the tracing overhead."""
    sizes = workload.sizes
    block_ops = sizes["block_ops"][name]
    taken: Tuple[List[np.ndarray], List[np.ndarray]] = ([], [])
    elapsed_ns = 0
    calib: List[int] = []
    gen2 = gc.get_stats()[2]["collections"]
    for block in range(2 * -(-sizes["trace_ops"][name] // block_ops)):
        elapsed, latencies = workload.run_block(
            tr if block % 2 else NullTracer(), block_ops)
        taken[block % 2].append(latencies)
        elapsed_ns += elapsed
        calib.append(calibrate())
    tr.count("host.gc_gen2", gc.get_stats()[2]["collections"] - gen2)
    plain, spanned = (np.concatenate(part) for part in taken)
    both = np.concatenate((plain, spanned))
    tr.value("host.trace_overhead_pct",
             100.0 * float(np.median(spanned) / np.median(plain) - 1.0))
    tr.value("host.calib_ms", median(calib) / 1e6)
    tr.value("host.calib_cv", float(np.std(calib) / np.mean(calib)))
    tr.value("tail.op_p95_ms", float(np.percentile(both, 95)) / 1e6)
    tr.value("tail.op_p99_ms", float(np.percentile(both, 99)) / 1e6)
    tr.value("tail.mean_ops_per_s", both.size / (elapsed_ns / 1e9))


def trace(name: str, seed: int, smoke: bool
          ) -> Tuple[Tracer, List[Workload]]:
    """The traced run: the tracer holding every span, sample and count,
    and the workloads that ran."""
    tr = Tracer()
    tr.value("host.timer_ns", timer_cost_ns())
    ran: List[Workload] = []
    for current in [name] + [other for other in WORKLOADS if other != name]:
        workload = make(current, seed, smoke)
        sizes = workload.sizes
        ran.append(workload)
        with tr.span(f"round:{current}"):
            try:
                with tr.span(f"setup:{current}"):
                    workload.setup(tr)
                workload.run_block(NullTracer(),
                                   sizes["warm_ops"][current])  # warm-up
                park_heap()
                if current == name:
                    traced_ops(workload, tr, current)
                    workload.counters(tr)
                else:
                    workload.run_block(tr, sizes["side_ops"][current])
                workload.verify()
                # Last: a probe may close what the round served from.
                workload.probe(tr)
            finally:
                end_round(workload, tr)
    return tr, ran


def layer_metrics(tr: Tracer) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Every per-layer metric of BENCHMARK.json from the tracer, with its
    sample count: an exact count, the median of directly measured
    samples, or the median duration of the spans carrying its name."""
    durations = tr.durations()
    metrics: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    for entry in load_spec()["per_layer"]:
        metric, unit = entry["name"], entry["unit"]
        if metric in tr.counts:
            metrics[metric], samples[metric] = tr.counts[metric], 1
        elif metric in tr.values:
            metrics[metric] = median(tr.values[metric])
            samples[metric] = len(tr.values[metric])
        elif metric in durations:
            metrics[metric] = median(durations[metric]) * SCALE[unit]
            samples[metric] = len(durations[metric])
        elif unit in COUNT_UNITS:
            metrics[metric], samples[metric] = 0, 0
        else:
            raise RuntimeError(f"no span or sample feeds {metric}")
    return metrics, samples


def run(name: str, seed: int, seconds: float, traced: bool,
        smoke: bool = False) -> Dict[str, Any]:
    """One run; returns the result object the command prints last."""
    spec = load_spec()
    if traced:
        tr, ran = trace(name, seed, smoke)
        values, samples = layer_metrics(tr)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tr.dump(OUT_DIR / f"trace-{name}.json",
                {"workload": name, "seed": seed, "smoke": smoke})
        for metric, value in values.items():
            print(f"{metric:42s} {value:14.6g} {units[metric]:6s} "
                  f"n={samples[metric]}")
    else:
        values, workload, summary = measure(name, seed, seconds, smoke)
        ran = [workload]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(summary)
    attempted = sum(workload.attempted for workload in ran)
    failed = sum(workload.failed for workload in ran)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in values.items()}}
