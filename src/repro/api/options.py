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

from ..circuits import validate_backend, validate_exact_mode
from .table import DEFAULT_MAX_GROUPS


@dataclass(frozen=True)
class ExecOptions:
    """Execution options shared by every mode of the unified query API.

    ``backend``
        Batched-evaluation substrate: ``"auto"`` (numpy when the
        semiring has an array kernel), ``"python"``, or ``"numpy"``.
        Validated here — eagerly — with the one shared error message.
    ``exact_mode``
        Vectorized kernel for the exact carriers (``N``/``Z``/``Q``):
        ``"auto"``/``"int64"`` select the guarded native kernel (a batch
        certified unable to overflow runs natively, every other one on
        the exact object kernel, so results stay exact), ``"object"``
        forces the exact object-dtype kernel.  ``"int64"`` requires NumPy and is
        rejected here — eagerly, through the same
        :mod:`repro.circuits.backends` seam as ``backend`` — on
        NumPy-less installs.
    ``optimize``
        Run the circuit-optimizer pass pipeline after compilation.
    ``max_batch_size``
        The most point requests one serving micro-batch takes, for
        :meth:`repro.api.Database.serve` and ``serve_sharded`` alike.
        (How long a batch waits for company is not a knob: batching is
        group commit — whatever arrives while one batch is being served
        ships as the next, see :mod:`repro.serve.dispatch`.)
    ``max_groups``
        Ceiling on an *enumerated* group domain: ``group_by`` without
        explicit keys takes the cartesian product of the domain over
        the query parameters (``|A|^k`` groups) and refuses beyond this
        bound instead of silently allocating.  (How many groups one
        sweep takes is not a knob: every batch runs in as many sweeps
        as the evaluators' fixed memory bound asks for.)
    ``plan_cache_size`` / ``result_cache_size``
        Capacities of the database-owned shared caches (a
        ``result_cache_size`` of 0 disables result caching).
    ``plan_store``
        An optional :class:`repro.serve.PlanStore` — the persistent
        on-disk tier under the in-memory plan cache.  Compilations
        check it before compiling and write their plans back, so fresh
        processes load instead of recompiling.  ``None`` (default)
        disables persistence; see ``Database(plan_store_path=...)`` for
        the path-based convenience spelling.
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
    ``verify``
        Run the IR verifier (:func:`repro.analysis.verify_plan`) over
        every plan the compile pipeline produces, post-compile.
        ``True``/``False`` force it on/off; ``None`` (default) defers
        to the ``REPRO_VERIFY_PLANS`` environment variable — how CI and
        debugging sessions opt whole processes in without code changes.
        Plans loaded from a :class:`~repro.serve.PlanStore` are always
        verified regardless (disk bytes are untrusted).
    """

    backend: str = "auto"
    exact_mode: str = "auto"
    optimize: bool = True
    max_batch_size: int = 64
    max_groups: int = DEFAULT_MAX_GROUPS
    plan_cache_size: int = 32
    result_cache_size: int = 1024
    plan_store: Optional[Any] = None
    shard_policy: str = "hash"
    max_pending: int = 1024
    max_inflight_per_client: int = 256
    request_timeout: Optional[float] = None
    verify: Optional[bool] = None

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        validate_exact_mode(self.exact_mode)
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_groups < 1:
            raise ValueError("max_groups must be >= 1")
        # Lazy import, as in Database.serve_sharded: the knobs are
        # checked by the code that consumes them.
        from ..cluster import validate_admission, validate_shard_policy
        validate_shard_policy(self.shard_policy)
        validate_admission(self.max_pending, self.max_inflight_per_client,
                           self.request_timeout)
        if self.plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        if self.result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        if self.plan_store is not None and not (
                callable(getattr(self.plan_store, "load", None))
                and callable(getattr(self.plan_store, "save", None))):
            raise ValueError(
                "plan_store must provide load(key, structure, expr) and "
                "save(key, plan) (e.g. repro.serve.PlanStore)")

    def merged(self, **overrides) -> "ExecOptions":
        """A copy with ``overrides`` applied (and re-validated).

        Unknown option names fail loudly — a typo'd knob must not be
        silently ignored.
        """
        if not overrides:
            return self
        known = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise TypeError(f"unknown execution option(s): "
                            f"{', '.join(unknown)}; known options: "
                            f"{', '.join(sorted(known))}")
        return replace(self, **overrides)
