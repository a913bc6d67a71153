"""repro.api: the unified query facade.

One :class:`Database` handle over a structure is the entry point to
every execution mode; the layers under it are the plan
(``compile_structure_query``/``CompiledQuery``) and its maintained
evaluator (``DynamicQuery``, whose ``point`` is Theorem 8's point
query)::

    from repro.api import Database

    with Database(structure) as db:
        q = db.prepare(expr)                 # weighted expr or FO formula
        q.value(NATURAL)                     # static value (closed)
        q.batch(valuations, NATURAL)         # batched what-ifs
        q.bind(x=a).value(NATURAL)           # cached point query
        q.group_by(NATURAL)                  # grouped aggregation (OLAP)
        q.group_by(None, NATURAL, having=pred, rollup=True)  # HAVING, ROLLUP
        m = q.maintain(NATURAL); m.value()   # maintained under updates
        q.enumerate()                        # constant-delay enumeration
        svc = db.serve(expr, NATURAL)        # micro-batched service
        with db.update() as tx:              # routed, cache-coherent
            tx.set_weight("w", edge, 3)

All execution knobs live in one :class:`ExecOptions`; compilations are
shared through the database's plan cache and point-query results
through its result cache.
"""

from .database import Database, UpdateContext
from .options import ExecOptions
from .prepared import BoundQuery, MaintainedQuery, PreparedQuery
from .table import TOTAL, ResultTable

__all__ = ["Database", "PreparedQuery", "BoundQuery", "MaintainedQuery",
           "UpdateContext", "ExecOptions", "ResultTable", "TOTAL"]
