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
* ``await group_by(...)`` — the gateway enumerates (or normalizes) the
  group keys and routes each to the shard owning its elements, one
  batched sweep per shard; a cross-shard key is ``sr.zero`` without a
  round trip, and HAVING/ROLLUP apply exactly like the single-process
  table;
* ``update_weight``/``set_relation`` — routed to the owning shard *and*
  applied to the gateway's authoritative shard copies, so a respawned
  worker reloads post-update state.  :meth:`ClusterService.absorbs` is
  the facade's pre-check: any write inside one shard is absorbed, one
  the query never reads is skipped, and a tuple spanning shards is
  refused.

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

from ..api.options import ExecOptions
from ..api.prepared import query_footprint
from ..api.table import build_table, group_key_tuples
from ..core import arguments_of, normalize_arguments
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
from .sharding import ShardPlan, check_shardable, shard_structure
from .worker import worker_main

__all__ = ["ClusterService", "validate_admission"]

#: Sentinel distinguishing "no timeout argument" from "timeout=None".
_UNSET = object()

#: How many times one shard's worker may die before its requests fail
#: with :class:`~repro.cluster.WorkerCrashed` instead of respawning it.
MAX_RESPAWNS = 5

#: Worker start method: ``spawn``, never ``fork`` — forking a process
#: that already runs dispatcher threads is a deadlock lottery, and
#: respawn must work long after the gateway became multi-threaded.
START_METHOD = "spawn"


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
    Gaifman components); ``assign`` or ``options.shard_policy`` picks
    the placement (see :func:`~repro.cluster.shard_structure`).
    ``options`` (an :class:`~repro.api.ExecOptions`, already validated)
    is the handle's: its admission knobs and ``max_batch_size``
    govern the gateway, and each worker builds its
    Database from the same options, reopening ``options.plan_store``
    by path (which makes respawns warm).  The semiring must declare
    its ``⊕`` mergeable and its carrier must survive the data-only
    wire codec — both refused eagerly here.
    """

    def __init__(self, structure: Structure, expr: Any, sr: Semiring, *,
                 shards: int = 2,
                 params: Optional[Sequence[str]] = None,
                 dynamic: Sequence[str] = (),
                 assign: Optional[Dict[Any, int]] = None,
                 options: Optional[ExecOptions] = None):
        options = ExecOptions() if options is None else options
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
        self.sr = sr
        self.expr = expr
        self.options = options
        self.free: Tuple[str, ...] = (tuple(params) if params is not None
                                      else tuple(sorted(expr.free_vars())))
        unknown = set(self.free) ^ set(expr.free_vars())
        if unknown:
            raise ValueError(f"params {self.free} do not match the free "
                             f"variables {sorted(expr.free_vars())}")
        self._footprint = query_footprint(expr)
        self._domain = frozenset(structure.domain)
        self._domain_order = tuple(structure.domain)
        # The authoritative shard copies: updates land here first, so a
        # respawned worker reloads post-update state.
        self._plan: ShardPlan = shard_structure(
            structure, shards, policy=options.shard_policy, assign=assign)
        self._state_lock = threading.Lock()
        # The in-memory store does not cross the spawn: each worker
        # reopens it by path.
        store = options.plan_store
        self._worker_config = {
            "expr": expr, "sr": sr, "params": self.free,
            "dynamic": tuple(dynamic),
            "options": options.merged(plan_store=None),
            "plan_store_path": str(store.path) if store is not None else None,
        }
        self._mp = multiprocessing.get_context(START_METHOD)
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
                max_batch_size=options.max_batch_size,
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
        if handle.respawns > MAX_RESPAWNS:
            handle.dead = True
            raise WorkerCrashed(
                f"shard {handle.index} worker died {handle.respawns} "
                f"times (last: {type(cause).__name__}: {cause}); giving "
                f"up after {MAX_RESPAWNS} respawns")
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
                                f"(exceeded {MAX_RESPAWNS} respawns)")
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
            max_pending = self.options.max_pending
            if self._pending >= max_pending:
                with self._stats_lock:
                    self._sheds += 1
                raise Overloaded(
                    f"gateway queue is full ({self._pending} pending >= "
                    f"max_pending={max_pending}); back off and retry",
                    scope="gateway", limit=max_pending)
            inflight = self._client_inflight.get(client, 0)
            max_inflight = self.options.max_inflight_per_client
            if inflight >= max_inflight:
                with self._stats_lock:
                    self._sheds += 1
                raise Overloaded(
                    f"client {client!r} already has {inflight} requests "
                    f"in flight (max_inflight_per_client={max_inflight})",
                    scope="client", limit=max_inflight)
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
        """Queue one request (``kind``: point, bulk, update or stats) on
        ``shard``'s dispatcher; raises once the service is closing (the
        check is made under the buffer lock)."""
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
        futures = [self.submit(*arguments_of(arguments), client=client)
                   for arguments in argument_tuples]
        return [await self._awaited(future, timeout) for future in futures]

    async def group_by(self, keys: Optional[Sequence[Any]] = None, *,
                       having: Optional[Callable[[Any], bool]] = None,
                       rollup: bool = False,
                       client: Hashable = "default",
                       timeout: Any = _UNSET) -> Any:
        """All group aggregates, merged across shards, awaitable."""
        return await self._awaited(
            self.submit_group_by(keys, having=having, rollup=rollup,
                                 client=client), timeout)

    def query_sync(self, *arguments, client: Hashable = "default",
                   timeout: Any = _UNSET) -> Any:
        """The blocking facade of :meth:`query`."""
        return self._wait(self.submit(*arguments, client=client), timeout)

    def query_batch_sync(self, argument_tuples: Sequence[Sequence],
                         client: Hashable = "default",
                         timeout: Any = _UNSET) -> List[Any]:
        futures = [self.submit(*arguments_of(arguments), client=client)
                   for arguments in argument_tuples]
        return [self._wait(future, timeout) for future in futures]

    def group_by_sync(self, keys: Optional[Sequence[Any]] = None, *,
                      having: Optional[Callable[[Any], bool]] = None,
                      rollup: bool = False,
                      client: Hashable = "default",
                      timeout: Any = _UNSET) -> Any:
        return self._wait(
            self.submit_group_by(keys, having=having, rollup=rollup,
                                 client=client), timeout)

    async def _awaited(self, future: "Future", timeout: Any) -> Any:
        deadline = (self.options.request_timeout if timeout is _UNSET
                    else timeout)
        try:
            return await asyncio.wait_for(asyncio.wrap_future(future),
                                          deadline)
        except asyncio.TimeoutError:
            future.cancel()  # still-queued work is skipped at dispatch
            raise TimeoutError(f"cluster request timed out after "
                               f"{deadline}s") from None

    def _wait(self, future: "Future", timeout: Any) -> Any:
        deadline = (self.options.request_timeout if timeout is _UNSET
                    else timeout)
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
                        client: Hashable = "default") -> "Future":
        """Enqueue a grouped sweep; returns a future for its table.

        One admission unit regardless of group count: the group domain
        is bounded by :data:`~repro.api.table.DEFAULT_MAX_GROUPS` (refused
        before any shard is asked), not by the request caps.  The
        keys (``keys=None`` enumerates the whole group domain here) are
        routed to their owning shards, one bulk sweep per shard; the
        merge zero-fills cross-shard keys, preserves the canonical
        enumeration order, and applies HAVING/ROLLUP at the gateway.
        """
        self._check_open()
        if not self.free:
            raise ValueError("group_by() needs a parameterized query "
                             "(the free variables are the grouping keys)")
        self._admit(client)
        parent: "Future" = Future()
        parent.add_done_callback(self._release(client))
        with self._stats_lock:
            self._requests += 1
        try:
            group_keys = group_key_tuples(
                keys, self.free, self._domain_order, noun="free variables",
                check=self._normalize)
            shard_futures, combine = self._route_keys(group_keys, having,
                                                      rollup)
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

    def _route_keys(self, group_keys: List[Tuple],
                    having: Optional[Callable[[Any], bool]],
                    rollup: bool
                    ) -> Tuple[List["Future"], Callable[[List[Any]], Any]]:
        """Send each key to the shard owning all its elements, in one
        bulk request per shard; returns the shard futures and the merge
        that assembles their values into the table (a cross-shard key
        is provably ``sr.zero`` and never leaves the gateway)."""
        by_shard: Dict[int, List[Tuple]] = {}
        for key in group_keys:
            owners = {self._plan.owner_of(element) for element in key}
            if len(owners) == 1:
                by_shard.setdefault(owners.pop(), []).append(key)
        routed = sorted(by_shard.items())
        futures = [self._enqueue(shard, "bulk", shard_keys)
                   for shard, shard_keys in routed]

        def combine(shard_results: List[List[Any]]) -> Any:
            merged: Dict[Tuple, Any] = {}
            for (_, shard_keys), shard_values in zip(routed, shard_results):
                merged.update(zip(shard_keys, shard_values))
            zero = self.sr.zero
            values = [merged.get(key, zero) for key in group_keys]
            return build_table(self.free, group_keys, values, self.sr,
                               having, rollup,
                               {"groups": len(group_keys),
                                "shards": len(self.handles)})
        return futures, combine

    # -- updates -----------------------------------------------------------------

    def absorbs(self, kind: str, name: str, tup: Tuple) -> bool:
        """The routed-write pre-check for ``name(tup)`` (``kind`` ``"w"``
        for a weight, ``"r"`` for a relation toggle), made before
        anything is written: ``True`` when the owning worker absorbs it,
        ``False`` when the gateway can skip it (its query never reads
        ``name``).  A worker's prepared query absorbs any write inside
        its shard, a brand-new tuple through a lazy recompile.  It
        refuses only a tuple with no single owner — one spanning shards
        (it would join two shards' components and break the ⊕-merge),
        naming an element no shard owns, or empty — with ``KeyError``
        for a weight and ``ValueError`` for a toggle."""
        try:
            self._plan.shard_of_tuple(tup)
            return True
        except (KeyError, ShardingError) as error:
            reason = error.args[0]
        weights, relations = self._footprint
        names = weights if kind == "w" else relations
        if names is not None and name not in names:
            return False
        what, refusal = (("write of weight", KeyError) if kind == "w"
                         else ("toggle of", ValueError))
        raise refusal(
            f"a live sharded service cannot absorb the {what} {name}{tup}: "
            f"the tuple spans shards or names an element no shard owns "
            f"({reason}); close and re-serve to change it")

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
