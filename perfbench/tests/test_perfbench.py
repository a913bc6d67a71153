"""The benchmark's own tests: ``pytest perfbench/tests`` (under a minute).

They run the command the driver runs, in ``--smoke`` mode: one round on
toy inputs through exactly the code of the measured run.
"""

from __future__ import annotations

import gc
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
COUNT_UNITS = ("count", "ratio", "bytes")

_cache: dict = {}


def run(workload: str, trace: int, seed: int = 1, fresh: bool = False):
    """One smoke run of the command; results are shared between tests."""
    key = (workload, trace, seed)
    if fresh or key not in _cache:
        done = subprocess.run(
            [sys.executable, "-m", "perfbench", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--smoke"], cwd=ROOT, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if fresh:
            return result
        _cache[key] = result
    return _cache[key]


def counts(result: dict) -> dict:
    return {name: entry["value"] for name, entry in result["metrics"].items()
            if entry["unit"] in COUNT_UNITS and not name.startswith("host.")
            and name != "core.compile_growth"}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_declared_metric_is_emitted(workload, trace, section):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    emitted = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    assert emitted == declared
    for name, entry in result["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", name)
        assert isinstance(entry["value"], (int, float))
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_counts_repeat_for_a_seed_and_inputs_follow_the_seed():
    first = counts(run("serve_update", 1))
    again = counts(run("serve_update", 1, fresh=True))
    other = counts(run("serve_update", 1, seed=2))
    assert first == again
    assert first != other


def test_bypassed_layers_count_nothing():
    for workload in WORKLOADS:
        metrics = run(workload, 1)["metrics"]
        served = [metrics[name]["value"] for name in (
            "serve.hit_ratio", "serve.mean_batch",
            "serve.batches_per_window", "serve.retagged_per_write")]
        sharded = [metrics[name]["value"] for name in (
            "cluster.sheds", "cluster.respawns", "cluster.request_skew")]
        if workload == "serve_update":
            assert all(value > 0 for value in served)
        else:
            assert served == [0, 0, 0, 0]
        if workload == "sharded_serve":
            assert metrics["cluster.request_skew"]["value"] >= 1
        else:
            assert sharded == [0, 0, 0]


def test_a_wrong_answer_is_a_failed_operation(monkeypatch):
    for entry in (ROOT, ROOT / "src"):
        monkeypatch.syspath_prepend(str(entry))
    from perfbench import harness, workloads

    def wrong_total(self):
        edge, value = original(self)
        self.total += 1.0  # the shadow now disagrees with the program
        return edge, value

    original = workloads.ServeUpdate.write
    monkeypatch.setattr(workloads.ServeUpdate, "write", wrong_total)
    try:
        result = harness.run("serve_update", 1, 0.5, traced=False,
                             smoke=True)
    finally:
        gc.unfreeze()  # the harness parks the heap; pytest's is not its
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def _session_of(pid: str):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[3])
    except (OSError, ValueError, IndexError):
        return None  # gone while we looked


@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_a_run(trace):
    """Neither a cluster worker nor multiprocessing's resource tracker:
    the run's session is empty the moment the command has exited."""
    command = subprocess.Popen(
        [sys.executable, "-m", "perfbench", "--workload", "sharded_serve",
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    output, _ = command.communicate(timeout=120)
    left = [pid for pid in os.listdir("/proc")
            if pid.isdigit() and _session_of(pid) == command.pid]
    assert command.returncode == 0, output
    assert left == []


def test_empty_checkout_exits_nonzero_without_a_result():
    """Only BENCHMARK.json and perfbench/: nothing to measure."""
    checkout = ROOT / "perfbench" / "out" / "empty-checkout"
    shutil.rmtree(checkout, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", checkout / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(ROOT / "BENCHMARK.json", checkout)
        done = subprocess.run(
            [sys.executable, "-m", "perfbench", "--workload", "olap_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(checkout, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
