"""The shard worker: one process, one Database, one prepared query.

Workers are **shared-nothing**: each owns its shard structure and its
own :class:`~repro.api.Database` (plan cache, result cache, epoch
machinery), built from the gateway handle's ``ExecOptions``, and — when
those options carry a plan store — its own handle on the same store,
reopened by path, which is what makes a *respawned* worker warm-start:
the replacement process loads its shard's compiled plan from disk
instead of re-running the Theorem 6 pipeline.  A worker answers point
batches (grouped reads included: the gateway routes each group key to
its owner), routed writes and stats requests; that is the whole
protocol.

The process entry point is :func:`worker_main`, a module-level function
so it survives the ``spawn`` start method's pickling of the target (the
gateway uses ``spawn``, not ``fork``: forking a process that already
runs gateway dispatcher threads is a deadlock lottery, and respawn
must work long after the parent became multi-threaded).

The loop is deliberately single-threaded request/response: the gateway
pipelines at the *batch* level (one micro-batch per round trip), so a
worker never needs internal concurrency — the paper's economics live in
the batched sweep, not in worker threads.  Shard state arrives through
the ``load`` message (not the spawn arguments): the gateway keeps the
authoritative copy of every shard, so a respawned worker reloads the
*current* state, routed updates included.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .protocol import (ClusterCodecError, decode_structure, encode_value,
                       error_reply, read_frame, write_frame)

__all__ = ["worker_main"]


class _WorkerState:
    """The live objects of one worker process."""

    def __init__(self, config: Dict[str, Any]):
        self.config = config
        self.db: Optional[Any] = None
        self.prepared: Optional[Any] = None
        self.loads = 0

    # -- operations ------------------------------------------------------------

    def load(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """(Re)load the shard structure and prepare the served query."""
        from ..api import Database
        from ..serve import PlanStore
        structure = decode_structure(message["structure"])
        if self.db is not None:
            self.db.close()
        config = self.config
        path = config["plan_store_path"]
        store = None if path is None else PlanStore(path)
        self.db = Database(structure, config["options"], plan_store=store)
        self.prepared = self.db.prepare(
            config["expr"], params=config["params"] or None,
            dynamic=tuple(config["dynamic"]))
        self.loads += 1
        if message.get("warm") and structure.domain:
            # Compile now (plan-store load when warm), not on the first
            # query: a respawned worker rejoins the pool ready to serve.
            if self.prepared.params:
                probe = (structure.domain[0],) * len(self.prepared.params)
                self.prepared.batch([probe], config["sr"])
            else:
                self.prepared.value(config["sr"])
        return {"loads": self.loads, "stats": self._safe_stats()}

    def batch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Point values for a list of argument tuples, batched."""
        sr = self.config["sr"]
        args = [tuple(item) for item in message["args"]]
        if self.prepared.params:
            values = self.prepared.batch(args, sr)
        else:
            # A closed query has one value per epoch; every "argument"
            # (an empty tuple) maps to it.
            value = self.prepared.value(sr)
            values = [value for _ in args]
        return {"values": values}

    def update(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Apply routed writes through the worker's own update router.

        The whole batch is one ``db.update()`` transaction, so it costs
        one O(1) fingerprint reconcile at exit (none at all when every
        write was a no-op — the structure's mutation counter did not
        move).  ``effective`` reports how many writes actually changed
        shard content; the gateway and benches use it to distinguish
        no-op traffic from real deltas."""
        touched = 0
        before = self.db.structure._mutations
        with self.db.update() as tx:
            for write in message["writes"]:
                kind, name, tup = write[0], write[1], tuple(write[2])
                if kind == "w":
                    touched = max(touched,
                                  tx.set_weight(name, tup, write[3]))
                elif kind == "r":
                    touched = max(touched,
                                  tx.set_relation(name, tup, write[3]))
                else:
                    raise ValueError(f"unknown write kind {kind!r}")
        return {"touched": touched,
                "effective": self.db.structure._mutations - before}

    def stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"stats": self._safe_stats(), "loads": self.loads}

    def _safe_stats(self) -> Dict[str, Any]:
        """Database stats restricted to wire-codec-safe entries."""
        if self.db is None:
            return {}
        out: Dict[str, Any] = {}
        for key, value in self.db.stats().items():
            try:
                encode_value(value)
            except ClusterCodecError:
                continue
            out[key] = value
        return out

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None


#: op name -> handler method name (the closed protocol surface).
_OPS = {"load": "load", "batch": "batch", "update": "update",
        "stats": "stats"}


def worker_main(conn: Any, config: Dict[str, Any]) -> None:
    """The worker process body: framed request/response until shutdown.

    ``config`` rides the spawn arguments (multiprocessing's own
    transport) and holds the query expression, semiring, parameter
    order, dynamic relations, the handle's ``ExecOptions`` (without
    its in-memory plan store) and the store's path; shard *state*
    arrives via ``load`` messages so respawns see routed updates.  Every request gets exactly one reply — results
    on success, a typed :func:`~repro.cluster.protocol.error_reply`
    otherwise — and a closed pipe (gateway death) ends the process.
    """
    state = _WorkerState(config)
    try:
        while True:
            try:
                message = read_frame(conn)
            except (EOFError, OSError):
                break  # gateway gone; nothing to reply to
            request_id = message.get("id")
            op = message.get("op")
            if op == "shutdown":
                write_frame(conn, {"id": request_id, "ok": True})
                break
            try:
                handler = _OPS[op]
            except KeyError:
                write_frame(conn, error_reply(
                    request_id, ValueError(f"unknown op {op!r}")))
                continue
            try:
                if op != "load" and state.prepared is None:
                    raise RuntimeError("worker has no structure loaded")
                reply = getattr(state, handler)(message)
            except BaseException as error:  # noqa: BLE001 - wire it back
                try:
                    write_frame(conn, error_reply(request_id, error))
                except (OSError, ValueError, TypeError):
                    break  # cannot even report; let the gateway respawn
            else:
                reply["id"] = request_id
                reply["ok"] = True
                write_frame(conn, reply)
    finally:
        state.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
