"""Tools around single runs: every workload as a table, the two-set
agreement check, and the host-noise study the estimators were picked by.

Each run is its own process (peak RSS is a per-process high-water mark),
started the way the driver starts it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Any, Dict, List

import numpy as np

from .harness import ROOT, load_spec
from .stats import calibrate, host_factor, quartiles
from .workloads import WORKLOADS


def run_child(workload: str, seed: int, seconds: float, traced: bool,
              smoke: bool = False) -> Dict[str, Any]:
    """One run in a fresh process; returns its result object."""
    command = [sys.executable, "-m", "perfbench", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced))] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float, traced: bool, smoke: bool) -> int:
    """Every workload once; prints each metric with its unit."""
    failed = 0
    for workload in WORKLOADS:
        for with_trace in (False, True) if traced else (False,):
            result = run_child(workload, seed, seconds, with_trace, smoke)
            failed += result["failed"]
            print(f"{workload} trace={int(with_trace)}: "
                  f"{result['attempted']} ops attempted, "
                  f"{result['failed']} failed")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:42s} {entry['value']:14.6g} "
                      f"{entry['unit']}")
    return 1 if failed else 0


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    low, mid, high = quartiles(values)
    return (high - low) / mid


def agree(workloads: List[str], runs: int, seconds: float) -> int:
    """Two alternating sets of ``runs`` runs of the working tree, each
    run on its own seed.  Fails when a set's spread or the shift between
    the set medians, in the worse direction, exceeds the metric's bound
    (``setup_s`` is exempt from the spread rule, as in the driver)."""
    spec = load_spec()["end_to_end"]
    status = 0
    print(f"{'workload':18s} {'metric':12s} {'median A':>11s} "
          f"{'median B':>11s} {'iqr A':>7s} {'iqr B':>7s} {'B vs A':>8s} "
          f"{'bound':>6s}")
    for workload in workloads:
        sets: List[Dict[str, List[float]]] = [{}, {}]
        for index in range(runs):
            for which in (0, 1):
                result = run_child(workload, 1 + index + which * runs,
                                   seconds, False)
                if not result["correct"]:
                    status = 1
                for metric, entry in result["metrics"].items():
                    sets[which].setdefault(metric, []).append(entry["value"])
        for entry in spec:
            metric, bound = entry["name"], entry["bound"]
            first, second = sets[0][metric], sets[1][metric]
            mid_a, mid_b = quartiles(first)[1], quartiles(second)[1]
            shift = (mid_b - mid_a) / mid_a
            worse = shift if entry["better"] == "lower" else -shift
            noisy = metric != "setup_s" and max(
                spread(first), spread(second)) > bound
            verdict = "FAIL" if worse > bound or noisy else ""
            if verdict:
                status = 1
            print(f"{workload:18s} {metric:12s} {mid_a:11.5g} {mid_b:11.5g} "
                  f"{spread(first):7.2%} {spread(second):7.2%} "
                  f"{shift:+8.2%} {bound:6.0%} {verdict}")
    return status


def noise_study(runs: int = 12, run_seconds: float = 15.0) -> int:
    """Constant work, cut into runs: how much each estimator moves from
    run to run on this host.  Nothing here touches the program, so every
    percent printed is the host's.  The work (dict updates and a sort,
    plus NumPy cumulative sums) is deliberately not the calibration
    kernel's, as the program's is not."""
    table = np.arange(500_000, dtype=np.float64)

    def work() -> None:
        counts: Dict[int, int] = {}
        for i in range(12_000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        sorted(counts.values())
        np.cumsum(table).max()

    clock = time.perf_counter_ns
    rows: Dict[str, List[float]] = {}
    for _ in range(runs):
        samples: List[int] = []
        calibrations: List[int] = []
        scaled_p50: List[float] = []
        scaled_rate: List[float] = []
        stop = clock() + run_seconds * 1e9
        before = calibrate()
        while clock() < stop:
            block = []
            for _ in range(100):
                start = clock()
                work()
                block.append(clock() - start)
            after = calibrate()
            factor = host_factor((before, after))
            scaled_p50.append(float(np.median(block)) * factor)
            scaled_rate.append(len(block) / (sum(block) * factor))
            samples += block
            calibrations.append(after)
            before = after
        sample = np.asarray(samples, dtype=float)
        blocks = np.array_split(sample, 30)
        # Five spaced samples of a fixed amount of work (300 units).
        chunks = [part[:300] for part in np.array_split(sample, 5)]
        estimates = {
            "p95 latency": np.percentile(sample, 95),
            "mean rate": len(sample) / sample.sum(),
            "p50 latency": np.median(sample),
            "median of 30 block rates": np.median(
                [len(part) / part.sum() for part in blocks]),
            "one sample of 300 units": chunks[0].sum(),
            "median of five such samples": np.median(
                [chunk.sum() for chunk in chunks]),
            "calibration kernel, median": np.median(calibrations),
            "scaled: median of block p50s": np.median(scaled_p50),
            "scaled: median of block rates": np.median(scaled_rate),
        }
        for label, value in estimates.items():
            rows.setdefault(label, []).append(float(value))
    print(f"{runs} runs of {run_seconds:g} s of constant work")
    print(f"{'estimator':32s} {'CV':>7s} {'IQR/med':>8s} {'range':>7s}")
    for label, values in rows.items():
        data = np.asarray(values)
        print(f"{label:32s} {data.std() / data.mean():7.2%} "
              f"{spread(values):8.2%} "
              f"{(data.max() - data.min()) / np.median(data):7.2%}")
    return 0
