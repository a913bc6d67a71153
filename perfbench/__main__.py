"""``python3 -m perfbench``: the benchmark's command line.

    python3 -m perfbench --workload W --seed N --seconds S --trace 0|1
    python3 -m perfbench [--trace 1]        every workload, as a table
    python3 -m perfbench --agree [N]        two sets of N runs must agree
    python3 -m perfbench --noise-study      what this host does to estimators

Cluster workers are spawned processes that re-import this module, so
everything here runs under the ``__main__`` check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Switches of the program that would change what is measured.
SCRUBBED = ("REPRO_PLAN_STORE", "REPRO_VERIFY_PLANS",
            "REPRO_VERIFY_FINGERPRINT", "REPRO_BACKEND", "REPRO_BENCH_FAST")


def clean_environment() -> None:
    """Re-exec once under a fixed hash seed, without the program's
    environment switches, with the checkout's sources importable (the
    spawned cluster workers inherit all three)."""
    wanted = {key: value for key, value in os.environ.items()
              if key not in SCRUBBED}
    wanted["PYTHONHASHSEED"] = "0"
    wanted["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    if wanted != dict(os.environ):
        os.execve(sys.executable,
                  [sys.executable, "-m", "perfbench", *sys.argv[1:]], wanted)


def parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of a run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round on toy inputs (the package's tests)")
    parser.add_argument("--agree", type=int, nargs="?", const=5, default=None,
                        metavar="N")
    parser.add_argument("--noise-study", action="store_true")
    return parser.parse_args(argv)


def stop_children() -> None:
    """End and reap every process this one started, so that none outlives
    the run.  The cluster's workers are joined when their round closes;
    what is left is multiprocessing's resource tracker, which the
    ``spawn`` start method launches beside the first worker and which
    would otherwise exit only *after* this process has."""
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit
    # Whatever else still has this process as its parent.
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
            if parent == me:
                os.kill(int(entry), signal.SIGKILL)
                os.waitpid(int(entry), 0)
        except (OSError, ValueError, IndexError):
            continue  # gone already, or reaped by its owner


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    clean_environment()
    # A polite kill takes the same way out as everything else.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return measure()
    finally:
        stop_children()


def measure() -> int:
    try:
        import numpy  # noqa: F401 - the workloads need the array kernels
    except ImportError:
        print("perfbench: NumPy is required", file=sys.stderr)
        return 2
    # The benchmark must survive the deletion of the deprecated seams.
    warnings.filterwarnings("error", category=DeprecationWarning,
                            message=r".*is deprecated; use ")
    warnings.filterwarnings("error", category=DeprecationWarning,
                            module=r"repro(\.|$)")
    args = parse(sys.argv[1:])
    from . import harness, tools
    from .workloads import WORKLOADS
    seconds = (args.seconds if args.seconds is not None
               else float(harness.load_spec()["run_seconds"]))
    if args.noise_study:
        return tools.noise_study()
    if args.agree is not None:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        return tools.agree(names, args.agree, seconds)
    if args.workload == "all":
        return tools.run_all(args.seed, seconds, bool(args.trace),
                             args.smoke)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, seconds,
                         bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
