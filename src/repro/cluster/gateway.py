"""ClusterService: the asyncio-native gateway over shard workers.

The serving contract of :class:`~repro.serve.QueryService`, scaled out:
one gateway owns k shared-nothing worker *processes* (one shard
structure + one Database each, see :mod:`repro.cluster.worker`) and
serves

* ``await query(a)`` — routed to the shard owning ``a``'s component;
  arguments spanning shards resolve to ``sr.zero`` without touching a
  worker (no Gaifman-connected witness can exist, which
  :func:`~repro.cluster.sharding.check_shardable` guaranteed at
  construction);
* closed queries — fanned out to every shard and folded with the
  semiring ``⊕`` (the disjoint-union identity that makes sharding
  exact);
* ``await group_by(...)`` — each worker sweeps its own slice of the
  group domain in one batched evaluation; the gateway ``⊕``-merges the
  partial tables, zero-fills the cross-shard key combinations, and
  applies HAVING/ROLLUP exactly like the single-process table;
* ``update_weight``/``set_relation`` — routed to the owning shard *and*
  applied to the gateway's authoritative shard copies, so a respawned
  worker reloads post-update state.

Every public query has an ``await``-able form and a ``*_sync`` facade
(plain blocking on the same futures) — the gateway itself owns no event
loop; its async methods await loop-agnostic futures resolved by
per-worker dispatcher threads, so it embeds in any host loop without a
thread hop.

**Admission control**: a gateway-wide pending cap and a per-client
in-flight cap, both enforced at submit; exceeding either sheds the
request with a typed :class:`~repro.cluster.Overloaded` instead of
queueing without bound.  **Robustness**: per-request deadlines with
cancellation (a timed-out request still in a queue is skipped, never
evaluated), worker-death detection on every pipe round trip with
automatic respawn (plan-store warm restart: the replacement loads its
shard's compiled plan from disk) and retry of the interrupted batch,
and drain-on-close (accepted requests are served; the workers then shut
down cleanly).

Micro-batching is the group commit of :mod:`repro.serve.dispatch`, one
dispatcher per worker: while it waits out one round trip, new requests
pile into its buffer and ship as the next batch — the IPC latency *is*
the coalescing window.  Only a run of point requests coalesces; every
other kind ships alone, in FIFO order.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import threading
import time
from concurrent.futures import Future
from functools import partial
# Distinct from the builtin before Python 3.11 (an alias from 3.11 on);
# bound here so _wait re-raises the uniform builtin TimeoutError.
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Any, Callable, Dict, Hashable, List, Optional, \
    Sequence, Tuple

from ..circuits import validate_backend, validate_exact_mode
from ..core import normalize_arguments
from ..logic import Bracket
from ..logic.fo import Formula
from ..logic.weighted import WExpr
from ..semirings import Semiring, ensure_mergeable
from ..serve.dispatch import (Dispatcher, Request, fail, resolve,
                              serve_unique)
from ..structures import Structure
from .protocol import (Overloaded, ShardingError, WorkerCrashed,
                       check_wire_roundtrip, encode_structure,
                       raise_reply_error, read_frame, write_frame)
from .sharding import (ShardPlan, check_shardable, shard_structure,
                       validate_shard_policy)
from .worker import worker_main

__all__ = ["ClusterService", "validate_admission"]

#: Sentinel distinguishing "no timeout argument" from "timeout=None".
_UNSET = object()


def validate_admission(max_pending: int, max_inflight_per_client: int,
                       request_timeout: Optional[float]) -> None:
    """Validate the gateway's admission knobs, eagerly: ``max_pending``
    caps the gateway-wide queued+in-flight request count (load shedding
    beyond it), ``max_inflight_per_client`` one client's share of that
    queue (per-client fairness), ``request_timeout`` is the default
    per-request deadline in seconds (``None`` = wait indefinitely)."""
    if max_pending < 1:
        raise ValueError("max_pending must be >= 1")
    if max_inflight_per_client < 1:
        raise ValueError("max_inflight_per_client must be >= 1")
    if request_timeout is not None and request_timeout <= 0:
        raise ValueError("request_timeout must be > 0 seconds (or None "
                         "to wait indefinitely)")


class _WorkerHandle:
    """The gateway-side state of one shard worker."""

    def __init__(self, index: int):
        self.index = index
        self.process: Optional[Any] = None
        self.conn: Optional[Any] = None
        #: Serves this worker's requests; set once the worker is loaded.
        self.dispatcher: Optional[Dispatcher] = None
        self.ids = itertools.count(1)
        self.respawns = 0
        self.dead = False


class ClusterService:
    """Sharded serving of one weighted query across worker processes.

    Construct through :meth:`repro.api.Database.serve_sharded`; the
    direct constructor is for tests and embedding.  ``shards`` asks for
    k shards (the plan may hold fewer when the structure has fewer
    Gaifman components); ``policy``/``assign`` pick the placement (see
    :func:`~repro.cluster.shard_structure`).  ``max_pending`` /
    ``max_inflight_per_client`` / ``request_timeout`` are the admission
    knobs; ``plan_store_path`` gives every worker its persistent plan
    tier (and makes respawns warm).  The semiring must declare its
    ``⊕`` mergeable and its carrier must survive the data-only wire
    codec — both refused eagerly here.
    """

    def __init__(self, structure: Structure, expr: Any, sr: Semiring, *,
                 shards: int = 2,
                 params: Optional[Sequence[str]] = None,
                 dynamic: Sequence[str] = (),
                 policy: str = "hash",
                 assign: Optional[Dict[Any, int]] = None,
                 backend: str = "auto",
                 exact_mode: str = "auto",
                 optimize: bool = True,
                 max_batch_size: int = 64,
                 max_pending: int = 1024,
                 max_inflight_per_client: int = 256,
                 request_timeout: Optional[float] = None,
                 max_groups: Optional[int] = None,
                 plan_store_path: Optional[Any] = None,
                 verify: Optional[bool] = None,
                 max_respawns: int = 5,
                 start_method: str = "spawn"):
        validate_backend(backend)
        validate_exact_mode(exact_mode)
        if assign is None:
            validate_shard_policy(policy)
        validate_admission(max_pending, max_inflight_per_client,
                           request_timeout)
        ensure_mergeable(sr, "cross-shard ⊕-merge")
        # The carrier must cross the pipe: refuse un-servable semirings
        # (e.g. provenance polynomials) at construction, not mid-query.
        check_wire_roundtrip((sr.zero, sr.one))
        if isinstance(expr, Formula):
            expr = Bracket(expr)
        if not isinstance(expr, WExpr):
            raise TypeError(f"expected a weighted expression or formula, "
                            f"got {type(expr).__name__}")
        check_shardable(expr)
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.sr = sr
        self.expr = expr
        self.free: Tuple[str, ...] = (tuple(params) if params is not None
                                      else tuple(sorted(expr.free_vars())))
        unknown = set(self.free) ^ set(expr.free_vars())
        if unknown:
            raise ValueError(f"params {self.free} do not match the free "
                             f"variables {sorted(expr.free_vars())}")
        self.max_batch_size = int(max_batch_size)
        self.max_pending = int(max_pending)
        self.max_inflight_per_client = int(max_inflight_per_client)
        self.request_timeout = request_timeout
        if max_groups is None:
            # Lazy import: repro.api pulls in repro.serve at import time —
            # same cycle-dodge as QueryService.group_by.
            from ..api.table import DEFAULT_MAX_GROUPS as max_groups
        self.max_groups = int(max_groups)
        self.max_respawns = int(max_respawns)
        self._domain = frozenset(structure.domain)
        self._domain_order = tuple(structure.domain)
        # The authoritative shard copies: updates land here first, so a
        # respawned worker reloads post-update state.
        self._plan: ShardPlan = shard_structure(structure, shards,
                                                policy=policy, assign=assign)
        self._state_lock = threading.Lock()
        self._worker_config = {
            "expr": expr, "sr": sr, "params": tuple(self.free),
            "dynamic": tuple(dynamic), "backend": backend,
            "exact_mode": exact_mode, "optimize": optimize,
            "verify": verify, "max_groups": self.max_groups,
            "plan_store_path": (str(plan_store_path)
                                if plan_store_path is not None else None),
        }
        self._mp = multiprocessing.get_context(start_method)
        self._admission_lock = threading.Lock()
        self._pending = 0
        self._client_inflight: Dict[Hashable, int] = {}
        self._stats_lock = threading.Lock()
        self._sheds = 0
        self._zero_routed = 0
        self._requests = 0
        self._merge_seconds = 0.0
        self._closed = False
        self._lifecycle = threading.Lock()
        self._facade_weight_names: Optional[Any] = None
        self._facade_relation_names: Optional[Any] = None
        self.handles: List[_WorkerHandle] = [
            _WorkerHandle(index) for index in range(len(self._plan.shards))]
        try:
            # Every worker imports, loads and compiles its shard at the
            # same time: spawn all, send every load, then collect.
            for handle in self.handles:
                self._spawn(handle)
            sent = [self._send_load(handle) for handle in self.handles]
            for handle, message_id in zip(self.handles, sent):
                self._await_load(handle, message_id)
        except BaseException:
            for handle in self.handles:
                self._kill(handle)
            raise
        for handle in self.handles:
            handle.dispatcher = Dispatcher(
                partial(self._serve, handle),
                lambda request: request.tag == "point",
                max_batch_size=self.max_batch_size,
                name=f"ClusterService-dispatch-{handle.index}",
                closed_message="cluster service is closed")

    # -- worker lifecycle --------------------------------------------------------

    def _spawn(self, handle: _WorkerHandle) -> None:
        parent, child = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=worker_main, args=(child, self._worker_config),
            name=f"repro-cluster-shard-{handle.index}", daemon=True)
        process.start()
        # Close the parent's copy of the child end: worker death must
        # surface as EOF/broken pipe, not a silently-buffered write.
        child.close()
        handle.process = process
        handle.conn = parent

    def _send_load(self, handle: _WorkerHandle) -> int:
        """Send ``handle``'s worker its (current) shard; returns the
        frame id :meth:`_await_load` waits on."""
        with self._state_lock:
            payload = encode_structure(self._plan.shards[handle.index])
        message = {"op": "load", "id": next(handle.ids),
                   "structure": payload, "warm": True}
        write_frame(handle.conn, message)
        return message["id"]

    def _await_load(self, handle: _WorkerHandle, message_id: int) -> None:
        while True:
            reply = read_frame(handle.conn)
            if reply.get("id") == message_id:
                break
        if not reply.get("ok"):
            raise_reply_error(reply)

    def _kill(self, handle: _WorkerHandle) -> None:
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            handle.conn = None
        process = handle.process
        if process is not None:
            process.join(timeout=0.5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2)
            handle.process = None

    def _respawn(self, handle: _WorkerHandle,
                 cause: BaseException) -> None:
        """Replace a dead worker and reload its (current) shard state."""
        handle.respawns += 1
        if handle.respawns > self.max_respawns:
            handle.dead = True
            raise WorkerCrashed(
                f"shard {handle.index} worker died {handle.respawns} "
                f"times (last: {type(cause).__name__}: {cause}); giving "
                f"up after max_respawns={self.max_respawns}")
        self._kill(handle)
        self._spawn(handle)
        # The plan-store warm restart happens inside the worker's load.
        self._await_load(handle, self._send_load(handle))

    def _shutdown_worker(self, handle: _WorkerHandle) -> None:
        """Ask the worker to exit and wait for its acknowledgement; the
        caller reaps the process (:meth:`_kill`)."""
        if handle.conn is not None and not handle.dead:
            try:
                write_frame(handle.conn,
                            {"op": "shutdown", "id": next(handle.ids)})
                read_frame(handle.conn)
            except (EOFError, OSError):
                pass

    # -- dispatch ----------------------------------------------------------------

    def _serve(self, handle: _WorkerHandle, batch: List[Request]) -> None:
        """One batch on ``handle``'s dispatcher thread: a run of point
        requests as one frame (each distinct argument tuple evaluated
        once), or a single request of any other kind.  An error raised
        here fails the whole batch."""
        if handle.dead:
            raise WorkerCrashed(f"shard {handle.index} worker is gone "
                                f"(exceeded max_respawns)")
        request = batch[0]
        kind = request.tag
        if kind == "point":
            serve_unique(
                batch,
                lambda unique: self._roundtrip(
                    handle, {"op": "batch", "args": unique})["values"],
                lambda waiter, value: resolve(waiter.future, value))
        elif kind == "bulk":
            reply = self._roundtrip(
                handle, {"op": "batch", "args": list(request.payload)})
            resolve(request.future, reply["values"])
        elif kind == "group":
            reply = self._roundtrip(
                handle, {"op": "group_by", "max_groups": request.payload})
            resolve(request.future, (reply["keys"], reply["values"]))
        elif kind == "update":
            reply = self._roundtrip(
                handle, {"op": "update",
                         "writes": [list(request.payload)]})
            resolve(request.future, reply["touched"])
        elif kind == "stats":
            resolve(request.future, self._roundtrip(handle, {"op": "stats"}))
        else:  # pragma: no cover - internal invariant
            raise RuntimeError(f"unknown request kind {kind!r}")

    def _roundtrip(self, handle: _WorkerHandle,
                   message: Dict[str, Any]) -> Dict[str, Any]:
        """One framed request/response, respawning through worker death.

        Reads are idempotent and updates land on the authoritative copy
        before they are enqueued, so retrying the message against the
        freshly-reloaded worker is always safe.
        """
        message = dict(message)
        while True:
            message["id"] = next(handle.ids)
            try:
                write_frame(handle.conn, message)
                while True:
                    reply = read_frame(handle.conn)
                    if reply.get("id") == message["id"]:
                        break
                    # A stale reply to a request interrupted by a prior
                    # respawn; skip it and keep reading.
            except (EOFError, OSError, BrokenPipeError) as error:
                self._respawn(handle, error)
                continue
            if not reply.get("ok"):
                raise_reply_error(reply)
            return reply

    # -- admission ---------------------------------------------------------------

    def _admit(self, client: Hashable) -> None:
        with self._admission_lock:
            if self._pending >= self.max_pending:
                with self._stats_lock:
                    self._sheds += 1
                raise Overloaded(
                    f"gateway queue is full ({self._pending} pending >= "
                    f"max_pending={self.max_pending}); back off and retry",
                    scope="gateway", limit=self.max_pending)
            inflight = self._client_inflight.get(client, 0)
            if inflight >= self.max_inflight_per_client:
                with self._stats_lock:
                    self._sheds += 1
                raise Overloaded(
                    f"client {client!r} already has {inflight} requests "
                    f"in flight (max_inflight_per_client="
                    f"{self.max_inflight_per_client})",
                    scope="client", limit=self.max_inflight_per_client)
            self._pending += 1
            self._client_inflight[client] = inflight + 1

    def _release(self, client: Hashable) -> Callable[["Future"], None]:
        def release(_future: "Future") -> None:
            with self._admission_lock:
                self._pending -= 1
                remaining = self._client_inflight.get(client, 1) - 1
                if remaining > 0:
                    self._client_inflight[client] = remaining
                else:
                    self._client_inflight.pop(client, None)
        return release

    # -- submission --------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("cluster service is closed")

    def _normalize(self, arguments: Tuple) -> Tuple:
        return normalize_arguments(arguments, self.free, self._domain)

    def _enqueue(self, shard: int, kind: str, payload: Any,
                 future: Optional["Future"] = None) -> "Future":
        """Queue one request (``kind``: point, bulk, group, update or
        stats) on ``shard``'s dispatcher; raises once the service is
        closing (the check is made under the buffer lock)."""
        if future is None:
            future = Future()
        self.handles[shard].dispatcher.put(Request(payload, future, kind))
        return future

    def submit(self, *arguments,
               client: Hashable = "default") -> "Future":
        """Enqueue one point query; returns a future for its value.

        Admission control runs here: beyond ``max_pending`` gateway-wide
        or ``max_inflight_per_client`` for this ``client``, the request
        is shed with :class:`~repro.cluster.Overloaded` instead of
        queued.  Arguments spanning shards resolve to ``sr.zero``
        immediately (no connected witness exists); closed queries fan
        out to every shard and fold with ``⊕``.
        """
        self._check_open()
        arguments = self._normalize(arguments)
        self._admit(client)
        future: "Future" = Future()
        future.add_done_callback(self._release(client))
        with self._stats_lock:
            self._requests += 1
        try:
            if not self.free:
                self._fan_out_closed(future)
                return future
            owners = {self._plan.owner_of(element)
                      for element in arguments}
            if len(owners) == 1:
                self._enqueue(owners.pop(), "point", arguments, future)
            else:
                # The bound elements live in different Gaifman
                # components: no connected witness can exist, so the
                # value is the semiring zero — answered at the gateway,
                # no worker I/O.
                with self._stats_lock:
                    self._zero_routed += 1
                resolve(future, self.sr.zero)
        except BaseException as error:  # noqa: BLE001 - typed to caller
            # E.g. a close() that landed after the check above: failing
            # the admitted future releases its admission slot.
            fail(future, error)
            raise
        return future

    def _fan_out_closed(self, parent: "Future") -> None:
        shard_futures = [self._enqueue(index, "point", ())
                         for index in range(len(self.handles))]
        add = self.sr.add

        def combine(values: List[Any]) -> Any:
            total = self.sr.zero
            for value in values:
                total = add(total, value)
            return total

        self._merge_into(parent, shard_futures, combine)

    def _merge_into(self, parent: "Future", futures: List["Future"],
                    combine: Callable[[List[Any]], Any]) -> None:
        """Resolve ``parent`` with ``combine`` of all shard results.

        Callback-driven countdown (no waiting thread): the last shard's
        dispatcher performs the ``⊕``-merge.  The first error wins and
        fails the parent.
        """
        remaining = [len(futures)]
        results: List[Any] = [None] * len(futures)
        lock = threading.Lock()

        def arm(index: int) -> Callable[["Future"], None]:
            def on_done(fut: "Future") -> None:
                try:
                    results[index] = fut.result(0)
                except BaseException as error:  # noqa: BLE001
                    fail(parent, error)
                    return
                with lock:
                    remaining[0] -= 1
                    last = remaining[0] == 0
                if last:
                    started = time.perf_counter()
                    try:
                        merged = combine(results)
                    except BaseException as error:  # noqa: BLE001
                        fail(parent, error)
                        return
                    with self._stats_lock:
                        self._merge_seconds += time.perf_counter() - started
                    resolve(parent, merged)
            return on_done

        for index, future in enumerate(futures):
            future.add_done_callback(arm(index))

    # -- queries (async + sync facade) -------------------------------------------

    async def query(self, *arguments, client: Hashable = "default",
                    timeout: Any = _UNSET) -> Any:
        """``f(a)``, awaitable; sheds/fails with the typed errors."""
        return await self._awaited(
            self.submit(*arguments, client=client), timeout)

    async def query_batch(self, argument_tuples: Sequence[Sequence],
                          client: Hashable = "default",
                          timeout: Any = _UNSET) -> List[Any]:
        """Submit all, await all, in order (one admission unit each)."""
        futures = [self.submit(*arguments, client=client)
                   for arguments in argument_tuples]
        return [await self._awaited(future, timeout) for future in futures]

    async def group_by(self, keys: Optional[Sequence[Any]] = None, *,
                       having: Optional[Callable[[Any], bool]] = None,
                       rollup: bool = False,
                       max_groups: Optional[int] = None,
                       client: Hashable = "default",
                       timeout: Any = _UNSET) -> Any:
        """All group aggregates, merged across shards, awaitable."""
        return await self._awaited(
            self.submit_group_by(keys, having=having, rollup=rollup,
                                 max_groups=max_groups, client=client),
            timeout)

    def query_sync(self, *arguments, client: Hashable = "default",
                   timeout: Any = _UNSET) -> Any:
        """The blocking facade of :meth:`query`."""
        return self._wait(self.submit(*arguments, client=client), timeout)

    def query_batch_sync(self, argument_tuples: Sequence[Sequence],
                         client: Hashable = "default",
                         timeout: Any = _UNSET) -> List[Any]:
        futures = [self.submit(*arguments, client=client)
                   for arguments in argument_tuples]
        return [self._wait(future, timeout) for future in futures]

    def group_by_sync(self, keys: Optional[Sequence[Any]] = None, *,
                      having: Optional[Callable[[Any], bool]] = None,
                      rollup: bool = False,
                      max_groups: Optional[int] = None,
                      client: Hashable = "default",
                      timeout: Any = _UNSET) -> Any:
        return self._wait(
            self.submit_group_by(keys, having=having, rollup=rollup,
                                 max_groups=max_groups, client=client),
            timeout)

    async def _awaited(self, future: "Future", timeout: Any) -> Any:
        deadline = self.request_timeout if timeout is _UNSET else timeout
        try:
            return await asyncio.wait_for(asyncio.wrap_future(future),
                                          deadline)
        except asyncio.TimeoutError:
            future.cancel()  # still-queued work is skipped at dispatch
            raise TimeoutError(f"cluster request timed out after "
                               f"{deadline}s") from None

    def _wait(self, future: "Future", timeout: Any) -> Any:
        deadline = self.request_timeout if timeout is _UNSET else timeout
        try:
            return future.result(deadline)
        except FuturesTimeout:
            future.cancel()
            raise TimeoutError(f"cluster request timed out after "
                               f"{deadline}s") from None

    # -- grouped aggregation -----------------------------------------------------

    def submit_group_by(self, keys: Optional[Sequence[Any]] = None, *,
                        having: Optional[Callable[[Any], bool]] = None,
                        rollup: bool = False,
                        max_groups: Optional[int] = None,
                        client: Hashable = "default") -> "Future":
        """Enqueue a grouped sweep; returns a future for its table.

        One admission unit regardless of group count: the group domain
        is bounded by ``max_groups``, not by the request caps.  With
        ``keys=None`` each worker enumerates its own domain slice (one
        batched sweep per shard); explicit keys are routed to their
        owning shards in bulk.  The merge ``⊕``-folds duplicate keys,
        zero-fills cross-shard combinations, preserves the canonical
        enumeration order, and applies HAVING/ROLLUP at the gateway.
        """
        from ..api.table import group_key_tuples  # lazy, see __init__
        self._check_open()
        if not self.free:
            raise ValueError("group_by() needs a parameterized query "
                             "(the free variables are the grouping keys)")
        bound = self.max_groups if max_groups is None else max_groups
        self._admit(client)
        parent: "Future" = Future()
        parent.add_done_callback(self._release(client))
        with self._stats_lock:
            self._requests += 1
        try:
            group_keys = group_key_tuples(
                keys, self.free, self._domain_order, bound,
                noun="free variables", check=self._normalize)
            if keys is None:
                shard_futures = [self._enqueue(index, "group", bound)
                                 for index in range(len(self.handles))]
                combine = self._combine_enumerated(group_keys, having,
                                                   rollup)
            else:
                shard_futures, routed, fills = \
                    self._route_explicit_keys(group_keys)
                combine = self._combine_explicit(group_keys, routed,
                                                 fills, having, rollup)
            if not shard_futures:
                # Every key was cross-shard: the table is all zeros.
                started = time.perf_counter()
                table = combine([])
                with self._stats_lock:
                    self._merge_seconds += time.perf_counter() - started
                resolve(parent, table)
                return parent
            self._merge_into(parent, shard_futures, combine)
        except BaseException as error:  # noqa: BLE001 - typed to caller
            fail(parent, error)
            raise
        return parent

    def _route_explicit_keys(
            self, group_keys: List[Tuple]
    ) -> Tuple[List["Future"], List[List[Tuple]], Dict[Tuple, int]]:
        by_shard: Dict[int, List[Tuple]] = {}
        fills: Dict[Tuple, int] = {}
        for key in group_keys:
            owners = {self._plan.owner_of(element) for element in key}
            if len(owners) == 1:
                by_shard.setdefault(owners.pop(), []).append(key)
            else:
                fills[key] = 1  # cross-shard: provably sr.zero
        futures: List["Future"] = []
        routed: List[List[Tuple]] = []  # aligned with futures
        for shard, shard_keys in sorted(by_shard.items()):
            futures.append(self._enqueue(shard, "bulk", shard_keys))
            routed.append(shard_keys)
        return futures, routed, fills

    def _combine_enumerated(self, group_keys: List[Tuple],
                            having: Optional[Callable[[Any], bool]],
                            rollup: bool) -> Callable[[List[Any]], Any]:
        def combine(shard_results: List[Tuple[List, List]]) -> Any:
            merged: Dict[Tuple, Any] = {}
            add = self.sr.add
            for keys_part, values_part in shard_results:
                for key, value in zip(keys_part, values_part):
                    key = tuple(key)
                    if key in merged:
                        merged[key] = add(merged[key], value)
                    else:
                        merged[key] = value
            zero = self.sr.zero
            return self._build_table(
                group_keys, [merged.get(key, zero) for key in group_keys],
                having, rollup)
        return combine

    def _combine_explicit(self, group_keys: List[Tuple],
                          routed: List[List[Tuple]],
                          fills: Dict[Tuple, int],
                          having: Optional[Callable[[Any], bool]],
                          rollup: bool) -> Callable[[List[Any]], Any]:
        def combine(shard_results: List[List[Any]]) -> Any:
            merged: Dict[Tuple, Any] = {}
            for shard_keys, shard_values in zip(routed, shard_results):
                for key, value in zip(shard_keys, shard_values):
                    merged[key] = value
            zero = self.sr.zero
            values = [zero if key in fills else merged[key]
                      for key in group_keys]
            return self._build_table(group_keys, values, having, rollup)
        return combine

    def _build_table(self, group_keys: List[Tuple], values: List[Any],
                     having: Optional[Callable[[Any], bool]],
                     rollup: bool) -> Any:
        from ..api.table import build_table  # lazy, see __init__
        return build_table(self.free, group_keys, values, self.sr, having,
                           rollup, {"groups": len(group_keys),
                                    "shards": len(self.handles)})

    # -- updates -----------------------------------------------------------------

    def can_absorb_weight(self, name: str, tup: Tuple) -> bool:
        """Whether the routed write stays inside one shard.  A worker's
        prepared query absorbs any local write (recompiling lazily when
        it must); only a tuple *spanning shards* is refused — it would
        create a cross-shard Gaifman edge and break the ⊕-merge."""
        try:
            self._plan.shard_of_tuple(tuple(tup))
        except (KeyError, ShardingError):
            return False
        return True

    def can_absorb_relation(self, name: str, tup: Tuple = ()) -> bool:
        return self.can_absorb_weight(name, tup)

    def update_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """Route ``name(tup) = value`` to the owning shard; returns the
        worker's touched-gate count.  The authoritative shard copy is
        updated first, so a crash-then-respawn never loses the write."""
        self._check_open()
        tup = tuple(tup)
        shard = self._plan.shard_of_tuple(tup)
        check_wire_roundtrip(value)
        with self._state_lock:
            self._plan.shards[shard].set_weight(name, tup, value)
        future = self._enqueue(shard, "update", ("w", name, tup, value))
        return future.result()

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Route a relation toggle to the owning shard (refused for
        cross-shard tuples, which would merge two shards' components)."""
        self._check_open()
        tup = tuple(tup)
        shard = self._plan.shard_of_tuple(tup)
        with self._state_lock:
            if present:
                self._plan.shards[shard].add_tuple(name, tup)
            else:
                structure = self._plan.shards[shard]
                if name in structure.relations:
                    structure.remove_tuple(name, tup)
        future = self._enqueue(shard, "update", ("r", name, tup, present))
        return future.result()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drain accepted requests, stop dispatchers, shut workers down.

        New submissions raise once closing begins; requests already in
        the buffers are served first (the dispatchers exit only on
        empty), then every worker gets a clean ``shutdown`` and the
        processes are joined.  Idempotent.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
        for handle in self.handles:
            handle.dispatcher.stop()
        for handle in self.handles:
            handle.dispatcher.join()  # everything accepted is served
            self._shutdown_worker(handle)
        for handle in self.handles:
            self._kill(handle)  # the workers exit side by side

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    async def __aenter__(self) -> "ClusterService":
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        # close() joins threads and processes; never block the host loop.
        await asyncio.to_thread(self.close)

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Gateway counters: per-shard depths, sheds, respawns, merge
        time.  Local bookkeeping only — no worker round trips; see
        :meth:`worker_stats` for the workers' own view."""
        with self._stats_lock:
            info: Dict[str, Any] = {
                "shards": len(self.handles),
                "requested_shards": self._plan.requested,
                "policy": self._plan.policy,
                "components": self._plan.components,
                "requests": self._requests,
                "sheds": self._sheds,
                "zero_routed": self._zero_routed,
                "merge_seconds": round(self._merge_seconds, 6),
            }
        with self._admission_lock:
            info["pending"] = self._pending
            info["clients"] = len(self._client_inflight)
        workers = []
        respawns = 0
        for handle in self.handles:
            process = handle.process
            dispatched = handle.dispatcher.stats()
            workers.append({
                "shard": handle.index,
                "pid": process.pid if process is not None else None,
                "alive": (process.is_alive()
                          if process is not None else False),
                "depth": dispatched["depth"],
                "requests": dispatched["requests"],
                "batches": dispatched["batches"],
                "respawns": handle.respawns,
                "dead": handle.dead,
                "domain": len(self._plan.shards[handle.index].domain),
            })
            respawns += handle.respawns
        info["respawns"] = respawns
        info["workers"] = workers
        return info

    def worker_stats(self, timeout: Optional[float] = 30.0
                     ) -> List[Dict[str, Any]]:
        """Each worker's own Database statistics (one round trip per
        shard) — how tests observe plan-store warm restarts."""
        futures = [self._enqueue(index, "stats", None)
                   for index in range(len(self.handles))]
        return [future.result(timeout) for future in futures]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ClusterService free={self.free} "
                f"shards={len(self.handles)} policy={self._plan.policy} "
                f"pending={self._pending}>")
