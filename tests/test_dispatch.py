"""The group-commit dispatcher shared by QueryService and the gateway.

Every test parks the dispatcher thread inside ``serve`` on an event and
then looks at what it took — no sleeps, no timing.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import Future

import pytest

from repro.serve.dispatch import Dispatcher, Request, resolve, serve_unique


class Recorder:
    """A ``serve`` that records its batches and answers ``payload * 2``;
    while ``gate`` is clear it parks inside the first call."""

    def __init__(self):
        self.batches = []
        self.evaluated = []
        self.entered = threading.Event()
        self.gate = threading.Event()

    def __call__(self, batch):
        self.entered.set()
        assert self.gate.wait(30)
        self.batches.append([request.payload for request in batch])
        if batch[0].tag == "boom":
            raise ValueError("boom")
        serve_unique(batch, self.evaluate,
                     lambda request, value: resolve(request.future, value))

    def evaluate(self, unique):
        self.evaluated.append(list(unique))
        return [payload * 2 for payload in unique]


def dispatcher(serve, max_batch_size=4):
    return Dispatcher(serve, lambda request: request.tag != "alone",
                      max_batch_size=max_batch_size, name="test-dispatch",
                      closed_message="dispatcher is closed")


def put(target, payload, tag=None):
    future = Future()
    target.put(Request(payload, future, tag))
    return future


def parked(serve, target):
    """Park the dispatcher thread inside ``serve`` on a first request."""
    first = put(target, 0)
    assert serve.entered.wait(30)
    return first


def test_accepted_requests_are_served_before_join_returns():
    serve = Recorder()
    target = dispatcher(serve)
    futures = [parked(serve, target)] + [put(target, n) for n in (1, 2, 3)]
    assert target.stats()["depth"] == 4  # one in flight, three queued
    assert target.stop() and not target.stop()  # only the first call closes
    assert target.closed
    serve.gate.set()
    target.join()
    assert [future.result(0) for future in futures] == [0, 2, 4, 6]
    # Group commit: what arrived during the first batch shipped together.
    assert serve.batches == [[0], [1, 2, 3]]
    assert target.stats() == {"batches": 2, "requests": 4,
                              "largest_batch": 3, "depth": 0}


def test_put_after_stop_raises_and_parks_nothing():
    serve = Recorder()
    serve.gate.set()
    target = dispatcher(serve)
    target.stop()
    future = Future()
    with pytest.raises(RuntimeError, match="dispatcher is closed"):
        target.put(Request(1, future, None))
    target.join()
    assert not future.done() and serve.batches == []


def test_cancelled_request_never_reaches_serve():
    serve = Recorder()
    target = dispatcher(serve)
    first = parked(serve, target)
    dropped, kept = put(target, 1), put(target, 2)
    assert dropped.cancel()
    serve.gate.set()
    assert (first.result(30), kept.result(30)) == (0, 4)
    target.stop()
    target.join()
    assert serve.batches == [[0], [2]]
    assert target.stats()["requests"] == 2


def test_non_joining_request_ships_alone_in_fifo_order():
    serve = Recorder()
    target = dispatcher(serve, max_batch_size=3)
    futures = [parked(serve, target)]
    futures += [put(target, 1), put(target, 2), put(target, 3, "alone"),
                put(target, 4, "alone"), put(target, 5), put(target, 6),
                put(target, 7), put(target, 8)]
    serve.gate.set()
    assert [future.result(30) for future in futures] \
        == [2 * n for n in range(9)]
    target.stop()
    target.join()
    assert serve.batches == [[0], [1, 2], [3], [4], [5, 6, 7], [8]]


def test_identical_payloads_are_evaluated_once_and_fanned_out():
    serve = Recorder()
    target = dispatcher(serve, max_batch_size=8)
    first = parked(serve, target)
    futures = [put(target, payload) for payload in (5, 7, 5, 5, 7)]
    serve.gate.set()
    assert first.result(30) == 0
    assert [future.result(30) for future in futures] == [10, 14, 10, 10, 14]
    target.stop()
    target.join()
    assert serve.evaluated == [[0], [5, 7]]


def test_a_failing_serve_fails_its_batch_and_only_its_batch():
    serve = Recorder()
    target = dispatcher(serve)
    first = parked(serve, target)
    doomed = [put(target, 1, "boom"), put(target, 2)]
    serve.gate.set()
    assert first.result(30) == 0
    for future in doomed:
        with pytest.raises(ValueError, match="boom"):
            future.result(30)
    assert put(target, 3).result(30) == 6  # the thread survived
    target.stop()
    target.join()


def test_concurrent_producers_lose_no_request():
    serve = Recorder()
    serve.gate.set()
    target = dispatcher(serve, max_batch_size=16)
    results = {}

    def producer(index):
        futures = [put(target, index * 1000 + n) for n in range(200)]
        results[index] = [future.result(30) for future in futures]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=producer, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    target.stop()
    target.join()
    assert results == {index: [2 * (index * 1000 + n) for n in range(200)]
                       for index in range(8)}
    stats = target.stats()
    assert (stats["requests"], stats["depth"]) == (1600, 0)
    assert sum(len(batch) for batch in serve.batches) == 1600
    assert stats["largest_batch"] <= 16
