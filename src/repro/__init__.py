"""repro: semiring circuits for aggregate queries on sparse databases.

A from-scratch implementation of S. Torunczyk, "Aggregate Queries on
Sparse Databases" (PODS 2020): circuits with permanent gates compiled from
weighted queries over bounded-expansion structures, with applications to
evaluation (Thm 8), provenance (Thm 22), constant-delay enumeration
(Thm 24) and nested multi-semiring aggregation (Thm 26).

Quickstart (the unified ``repro.api`` facade)::

    from repro import *
    s = graph_structure(triangulated_grid(8, 8))
    for edge in list(s.relations["E"]):
        s.set_weight("w", edge, 1)
    E, w = Atom, Weight
    tri = Sum(("x", "y", "z"),
              Bracket(E("E", ("x","y")) & E("E", ("y","z")) & E("E", ("z","x")))
              * w("w", ("x","y")) * w("w", ("y","z")) * w("w", ("z","x")))
    with Database(s) as db:
        print(db.prepare(tri).value(NATURAL))
"""

from . import (algebra, api, circuits, cluster, core, enumeration, fog,
               graphs, logic, qe, semirings, serve, structures)
from .api import (TOTAL, BoundQuery, Database, ExecOptions, MaintainedQuery,
                  PreparedQuery, ResultTable, UpdateContext)
from .cluster import (ClusterService, Overloaded, ShardingError,
                      WorkerCrashed, shard_structure)
from .circuits import (HAVE_NUMPY, BatchedEvaluator, LayerSchedule,
                       OptimizeResult, StaticEvaluator, VectorizedEvaluator,
                       build_schedule, optimize_circuit)
from .core import CompiledQuery, plan_cache_key
from .enumeration import AnswerEnumerator, ProvenanceEnumerator
from .fog import evaluate_fog
from .graphs import (grid_graph, path_graph, random_bounded_degree,
                     random_tree, sparse_binomial, triangulated_grid)
from .logic import (Atom, Bracket, Eq, Sum, WConst, Weight, exists, forall,
                    neq)
from .qe import eliminate_quantifiers
from .serve import PlanCache, PlanStore, ResultCache
from .semirings import (BOOLEAN, FLOAT, INTEGER, MAX_PLUS, MIN_PLUS, NATURAL,
                        RATIONAL, FreeSemiring, ModularRing, Semiring)
from .structures import LabeledForest, Signature, Structure, graph_structure

from ._version import __version__  # noqa: F401 - re-export

__all__ = [
    "Database", "PreparedQuery", "BoundQuery", "MaintainedQuery",
    "UpdateContext", "ExecOptions", "ResultTable", "TOTAL",
    "CompiledQuery", "plan_cache_key",
    "PlanCache", "PlanStore", "ResultCache",
    "ClusterService", "Overloaded", "ShardingError", "WorkerCrashed",
    "shard_structure",
    "optimize_circuit", "OptimizeResult", "BatchedEvaluator",
    "StaticEvaluator", "VectorizedEvaluator", "LayerSchedule",
    "build_schedule", "HAVE_NUMPY",
    "AnswerEnumerator", "ProvenanceEnumerator",
    "evaluate_fog", "eliminate_quantifiers",
    "Structure", "graph_structure", "LabeledForest", "Signature",
    "Atom", "Eq", "Sum", "Bracket", "Weight", "WConst", "neq", "exists",
    "forall",
    "Semiring", "BOOLEAN", "NATURAL", "INTEGER", "RATIONAL", "FLOAT",
    "MIN_PLUS", "MAX_PLUS", "ModularRing", "FreeSemiring",
    "grid_graph", "triangulated_grid", "path_graph", "random_tree",
    "random_bounded_degree", "sparse_binomial",
]
