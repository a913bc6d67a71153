"""Dispatcher: group commit, the repo's one batching policy.

A dispatcher is a buffer, a condition and one thread.  Clients
:meth:`~Dispatcher.put` requests from anywhere; the thread takes the
oldest live request — and, if that one ``joins`` a batch, the run of
joining requests behind it, up to ``max_batch_size`` — and hands the
batch to ``serve``.  There is no timer: while one batch is being served,
new requests pile into the buffer and ship together as the next batch,
so the service time *is* the coalescing window.  A lone client waits for
nothing; concurrent clients coalesce exactly as much as the server is
busy.  :class:`~repro.serve.QueryService` runs one dispatcher over its
engine, the cluster gateway one per shard worker.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, InvalidStateError
from typing import Any, Callable, Deque, Dict, List, Sequence

__all__ = ["Dispatcher", "Request", "fail", "resolve", "serve_unique"]


def resolve(future: "Future[Any]", value: Any) -> None:
    """Resolve a future its waiter may have cancelled (a timeout)."""
    try:
        future.set_result(value)
    except InvalidStateError:
        pass


def fail(future: "Future[Any]", error: BaseException) -> None:
    """Fail a future its waiter may have cancelled (a timeout)."""
    try:
        future.set_exception(error)
    except InvalidStateError:
        pass


class Request:
    """One queued unit of work: ``payload`` is what to evaluate (hashable
    when the request joins batches — it is the dedupe key), ``future``
    is who waits for it, and ``tag`` belongs to the server (the submit
    epoch in ``QueryService``, the request kind in the gateway)."""

    __slots__ = ("payload", "future", "tag")

    def __init__(self, payload: Any, future: "Future[Any]",
                 tag: Any) -> None:
        self.payload = payload
        self.future = future
        self.tag = tag


def serve_unique(batch: Sequence[Request],
                 evaluate: Callable[[List[Any]], Sequence[Any]],
                 deliver: Callable[[Request, Any], None]) -> int:
    """Evaluate each distinct payload of ``batch`` once and ``deliver``
    its value to every request that asked for it — concurrent clients
    often probe the same hot keys.  Returns the number of distinct
    payloads evaluated."""
    waiters: Dict[Any, List[Request]] = {}
    for request in batch:
        waiters.setdefault(request.payload, []).append(request)
    for waiting, value in zip(waiters.values(), evaluate(list(waiters))):
        for request in waiting:
            deliver(request, value)
    return len(waiters)


class Dispatcher:
    """Serve queued requests in group-committed batches on one thread.

    ``serve(batch)`` runs on the dispatcher thread and resolves the
    batch's futures; an exception it raises fails every future of the
    batch instead.  ``joins(request)`` says whether a request may share
    a batch (a request that may not ships alone).  ``closed_message`` is
    the ``RuntimeError`` text of a :meth:`put` after :meth:`stop`.
    """

    def __init__(self, serve: Callable[[List[Request]], None],
                 joins: Callable[[Request], bool], *,
                 max_batch_size: int, name: str,
                 closed_message: str) -> None:
        self._serve = serve
        self._joins = joins
        self._max_batch_size = int(max_batch_size)
        self._closed_message = closed_message
        # One lock-append-notify per put, one lock round per batch:
        # per-request synchronization is what a serving hot path cannot
        # afford.
        self._cond = threading.Condition()
        self._buffer: Deque[Request] = deque()
        #: True once :meth:`stop` was called: puts raise, while requests
        #: accepted before it are still served.
        self.closed = False
        self._inflight = 0
        self._batches = 0
        self._requests = 0
        self._largest_batch = 0
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._thread.start()

    def put(self, request: Request) -> None:
        """Queue ``request``.  The closed check happens under the buffer
        lock, so a request is either refused here or served before
        :meth:`join` returns — never parked."""
        with self._cond:
            if self.closed:
                raise RuntimeError(self._closed_message)
            self._buffer.append(request)
            self._cond.notify()

    def stop(self) -> bool:
        """Refuse new requests and let the thread exit once the buffer is
        drained; returns whether this call was the one that closed."""
        with self._cond:
            first = not self.closed
            self.closed = True
            self._cond.notify()
        return first

    def join(self) -> None:
        """Wait until every accepted request has been served."""
        self._thread.join()

    def stats(self) -> Dict[str, int]:
        """Batches and requests dispatched so far (counted when taken,
        so a client that has its answer also sees its batch), the
        largest batch, and ``depth`` = queued + in flight."""
        with self._cond:
            return {"batches": self._batches,
                    "requests": self._requests,
                    "largest_batch": self._largest_batch,
                    "depth": len(self._buffer) + self._inflight}

    def _run(self) -> None:
        while True:
            with self._cond:
                self._inflight = 0
                while not (batch := self._take()):
                    if self.closed:
                        return  # closed and drained
                    self._cond.wait()
                self._inflight = len(batch)
                self._batches += 1
                self._requests += len(batch)
                self._largest_batch = max(self._largest_batch, len(batch))
            try:
                self._serve(batch)
            except BaseException as error:  # noqa: BLE001 - to callers
                for request in batch:
                    fail(request.future, error)

    def _take(self) -> List[Request]:
        """Pop the next batch, empty if nothing live is queued (condition
        held).  Requests whose futures were cancelled are dropped here —
        that is the cancellation: they never reach ``serve``."""
        batch: List[Request] = []
        buffer = self._buffer
        while buffer and len(batch) < self._max_batch_size:
            if buffer[0].future.cancelled():
                buffer.popleft()
                continue
            alone = not self._joins(buffer[0])
            if alone and batch:
                break  # ships next, by itself: FIFO order is kept
            batch.append(buffer.popleft())
            if alone:
                break
        return batch
