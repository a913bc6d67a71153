"""Build a plan-store corpus for the CI ``analysis`` job.

Compiles the plan-store test queries (triangle count and edge sum over
a triangulated grid, a star query whose compiled circuit retains real
multi-row ``PermGate``s, and a parameterized degree query closed
through :func:`repro.core.close_over`, whose plan carries value-less
selector inputs) once per shipped semiring — every entry of
``SEMIRING_CASES`` from ``tests/test_plan_store.py``, i.e. every
semiring with a serializable carrier — and persists each compiled plan
into a :class:`repro.serve.PlanStore` directory.  ``python -m
repro.analysis verify-store`` then audits the whole corpus: the IR
verifier must accept every plan the real pipeline produces.

Usage: ``python .github/scripts/build_plan_corpus.py [STORE_DIR]``
(default ``.plan-corpus``).  Prints one line per plan and the corpus'
total and per-entry bytes under the current plan format (so the
format's size shows in the job log next to ``verify-store``'s verdict).
Exits non-zero if any compilation fails to persist.
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)

from repro.circuits import PLAN_FORMAT_VERSION  # noqa: E402
from repro.core import close_over, compile_structure_query  # noqa: E402
from repro.logic import Atom, Bracket, Sum, Weight  # noqa: E402
from repro.serve import PlanStore  # noqa: E402

from tests.test_plan_store import (EDGE_SUM, SEMIRING_CASES,  # noqa: E402
                                   TRIANGLE, weighted_structure)


def _star():
    def edge(x, y):
        return Atom("E", (x, y))

    def weight(x, y):
        return Weight("w", (x, y))

    return Sum(("x", "y", "z"),
               Bracket(edge("x", "y") & edge("x", "z"))
               * weight("x", "y") * weight("x", "z"))


def _degree():
    """What an engine or a prepared handle compiles for ``f(x)``."""
    return close_over(
        Sum("y", Bracket(Atom("E", ("x", "y"))) * Weight("w", ("x", "y"))),
        ("x",))


QUERIES = [("triangle", TRIANGLE), ("edge-sum", EDGE_SUM),
           ("star", _star()), ("degree", _degree())]


def main(argv):
    directory = argv[1] if len(argv) > 1 else ".plan-corpus"
    store = PlanStore(directory, max_entries=4096)
    failures = 0
    for name, _semiring, conv in SEMIRING_CASES:
        structure = weighted_structure(conv)
        for query_name, expr in QUERIES:
            # Plan keys are semiring-free: semirings that map the test
            # weights to identical carrier values (e.g. Z_7 and N agree
            # on 0..4) share a store entry, so a hit is as good as a
            # save.
            before = store.saves + store.hits
            compile_structure_query(structure, expr, plan_store=store)
            if store.saves + store.hits == before:
                failures += 1
                print(f"FAIL {name}/{query_name}: plan was not persisted")
            else:
                print(f"ok   {name}/{query_name}")
    stats = store.stats()
    print(f"plan corpus: {stats['entries']} entries, {stats['bytes']} "
          f"bytes total ({stats['bytes'] // max(stats['entries'], 1)} per "
          f"entry, plan format {PLAN_FORMAT_VERSION}) in {directory}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
