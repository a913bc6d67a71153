"""perfbench: the repo's operation-level benchmark.

Four closed-loop workloads over the public ``repro.api`` surface, four
median-based end-to-end metrics, and a traced run that gives every
``src/repro`` layer its own numbers.  Run from the repo root::

    python3 -m perfbench --workload serve_update --seed 1 --seconds 27 --trace 0

``README.md`` in this directory explains the workloads, the metric to
layer map and why the estimators are medians.
"""
