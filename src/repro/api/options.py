"""ExecOptions: every execution knob of the stack, resolved once.

Before the facade, each entry point grew its own kwargs — ``backend``
on the batched evaluators, ``optimize`` / ``plan_cache`` on the
compiler, batching/cache knobs on the serving layer — with
validation scattered (or missing) per seam.  :class:`ExecOptions`
consolidates them into one frozen dataclass validated eagerly at
construction; a :class:`~repro.api.Database` resolves one instance as
its default, and every ``prepare``/``serve`` call may derive a variant
with :meth:`ExecOptions.merged`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Optional

from ..circuits import validate_backend


@dataclass(frozen=True)
class ExecOptions:
    """Execution options shared by every mode of the unified query API.

    ``backend``
        Batched-evaluation substrate: ``"auto"`` (numpy when it is
        installed), ``"python"``, or ``"numpy"``.
        Validated here — eagerly — with the one shared error message.
    ``max_batch_size``
        The most point requests one serving micro-batch takes, for
        :meth:`repro.api.Database.serve` and ``serve_sharded`` alike.
        (How long a batch waits for company is not a knob: batching is
        group commit — whatever arrives while one batch is being served
        ships as the next, see :mod:`repro.serve.dispatch`.)
    ``result_cache_size``
        Capacity of the database-owned result cache (0 disables result
        caching).
    ``plan_store``
        An optional :class:`repro.serve.PlanStore` — the persistent
        on-disk tier under the in-memory plan cache.  Compilations
        check it before compiling and write their plans back, so fresh
        processes load instead of recompiling.  ``None`` (default)
        disables persistence unless ``REPRO_PLAN_STORE`` names a
        directory; ``Database(s, plan_store=PlanStore(path))`` sets it
        as an override like any other option.
    ``shard_policy``
        How :meth:`repro.api.Database.serve_sharded` assigns Gaifman
        components to worker shards: ``"hash"`` (stable content hash of
        each component's representative — balanced in expectation,
        placement survives domain reordering) or ``"contiguous"``
        (components packed into domain-order runs — locality-preserving
        for range-shaped workloads).
    ``max_pending`` / ``max_inflight_per_client``
        Gateway admission control: the total queued+in-flight request
        cap (submissions beyond it are shed with
        :class:`repro.cluster.Overloaded`) and one client's share of it
        (per-client fairness under overload).
    ``request_timeout``
        Default per-request deadline, in seconds, for gateway queries
        (``None`` waits indefinitely); individual calls may override.

    What is not a knob: the exact kernel (the overflow certificate
    picks it per batch; ``CompiledQuery.evaluate_batch(exact_mode=)``
    forces one), the optimizer (always on; ``compile_structure_query(
    optimize=False)`` keeps the raw circuit), plan verification
    (``REPRO_VERIFY_PLANS``), the plan cache's size
    (``Database(plan_cache=PlanCache(n))``) and the bound on an
    enumerated group domain (:data:`repro.api.table.DEFAULT_MAX_GROUPS`;
    pass explicit keys beyond it).
    """

    backend: str = "auto"
    max_batch_size: int = 64
    result_cache_size: int = 1024
    plan_store: Optional[Any] = None
    shard_policy: str = "hash"
    max_pending: int = 1024
    max_inflight_per_client: int = 256
    request_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        # Lazy import, as in Database.serve_sharded: the knobs are
        # checked by the code that consumes them.
        from ..cluster import validate_admission, validate_shard_policy
        validate_shard_policy(self.shard_policy)
        validate_admission(self.max_pending, self.max_inflight_per_client,
                           self.request_timeout)
        if self.result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        if self.plan_store is not None and not (
                callable(getattr(self.plan_store, "load", None))
                and callable(getattr(self.plan_store, "save", None))):
            raise ValueError(
                "plan_store must provide load(key, structure, expr) and "
                "save(key, plan) (e.g. repro.serve.PlanStore)")

    def __new__(cls, *args: Any, **options: Any) -> "ExecOptions":
        # Unknown option names fail loudly, listing the known ones — a
        # typo'd (or removed) knob must not be silently ignored.
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(options) - known)
        if unknown:
            raise TypeError(f"unknown execution option(s): "
                            f"{', '.join(unknown)}; known options: "
                            f"{', '.join(sorted(known))}")
        return super().__new__(cls)

    def merged(self, **overrides) -> "ExecOptions":
        """A copy with ``overrides`` applied (and re-validated)."""
        return replace(self, **overrides) if overrides else self
