"""Bounded LRU cache for point-query results, invalidated by eviction.

A point query ``f(a)`` over a fixed plan state is a pure function of
the argument tuple, so results are cacheable until the state changes.
**An entry is valid because it is in the cache.**  An effective
``update_weight``/``set_relation`` (one that changes a recorded input
of the plan) evicts exactly the argument tuples it can reach —
:meth:`ResultCache.evict_product` over the per-position sets of
:meth:`~repro.core.CompiledQuery.affected_arguments` — at a cost
of ``min(|product|, |cache|)``, never a walk of the survivors; an event
nothing can be proved about (a recompile, an out-of-band mutation, a
failed analysis) drops the whole scope (``clear``).  An update that
touches zero gates (a no-op write of an unchanged value, or a write to
an input the circuit never reads) provably changes no query result and
evicts nothing.

What the cache cannot see is a result computed *before* a write and
installed *after* it.  That is the owner's guard: every put site reads
the database's write sequence (``Database.epoch``) before computing and
re-checks it under the lock the write holds while it bumps and evicts.

``get``/``put`` still take a *tag* — an entry is visible only under the
tag it was stored with — and :meth:`ResultCache.retag_many` moves tags
in bulk.  The serving stack leaves the tag at its default; the tag and
``retag_many`` stay for the benchmark harness's probes.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from itertools import product
from typing import Any, Collection, Dict, Hashable, Iterable, Sequence, \
    Tuple

#: Sentinel returned by :meth:`ResultCache.get` on a miss (``None`` is a
#: legitimate carrier value in user semirings).
MISS = object()

#: "No namespace" for :meth:`ResultCache.evict_product`: the keys are the
#: argument tuples themselves (``None`` is a legitimate namespace).
_UNSCOPED = object()


def _in_scope(key: Hashable, namespace: Hashable) -> bool:
    """Whether ``key`` is a scoped view's ``(namespace, inner key)``."""
    return isinstance(key, tuple) and len(key) == 2 and key[0] == namespace


def _reached(args: Hashable,
             positions: Sequence[Collection[Hashable]]) -> bool:
    """Whether ``args`` is an argument tuple inside the product of the
    per-position sets."""
    return (isinstance(args, tuple) and len(args) == len(positions)
            and all(element in allowed
                    for element, allowed in zip(args, positions)))


class ResultCache:
    """Bounded, thread-safe LRU of ``(tag, value)`` entries."""

    MISS = MISS

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Tuple[int, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stale = 0

    def get(self, key: Hashable, epoch: int = 0) -> Any:
        """The cached value for ``key`` under tag ``epoch``, or
        :data:`MISS`.  An entry stored under another tag counts as a
        miss and is evicted on the spot."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return MISS
            if entry[0] != epoch:
                del self._entries[key]
                self.stale += 1
                self.misses += 1
                return MISS
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def put(self, key: Hashable, value: Any, epoch: int = 0) -> None:
        with self._lock:
            self._entries[key] = (epoch, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def evict_product(self, positions: Sequence[Collection[Hashable]],
                      namespace: Hashable = _UNSCOPED) -> int:
        """Evict every cached argument tuple ``a`` with ``a[i] in
        positions[i]`` at every position; returns how many entries the
        cache still holds — the ones the write left warm.

        The tuples are looked up directly, so the cost is the size of
        the product (two lookups for a DEGREE write) whatever the cache
        holds; only a product larger than the cache is replaced by one
        scan of the cache with the same test.  ``namespace`` confines
        the eviction to one scoped view's keys.
        """
        unscoped = namespace is _UNSCOPED
        with self._lock:
            entries = self._entries
            if math.prod(map(len, positions)) <= len(entries):
                for args in product(*positions):
                    entries.pop(args if unscoped else (namespace, args), None)
            else:
                for key in list(entries):
                    if unscoped:
                        args = key
                    elif _in_scope(key, namespace):
                        args = key[1]
                    else:
                        continue
                    if _reached(args, positions):
                        del entries[key]
            return len(entries)

    def retag_many(self, keys: Iterable[Hashable],
                   from_epoch: int, to_epoch: int) -> int:
        """Move every entry of ``keys`` stored under tag ``from_epoch``
        to ``to_epoch`` in one lock round; returns how many moved."""
        carried = 0
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is not None and entry[0] == from_epoch:
                    self._entries[key] = (to_epoch, entry[1])
                    carried += 1
        return carried

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"size": len(self._entries), "maxsize": self.maxsize,
                    "hits": self.hits, "misses": self.misses,
                    "stale": self.stale}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (f"<ResultCache size={s['size']}/{s['maxsize']} "
                f"hits={s['hits']} misses={s['misses']} stale={s['stale']}>")

    # -- scoped views ------------------------------------------------------------

    def scoped(self, namespace: Hashable) -> "ScopedResultCache":
        """A namespaced view of this cache: keys are transparently
        prefixed with ``namespace``, so many consumers (one per prepared
        query / service) share a single LRU memory budget without their
        argument-tuple keys colliding."""
        return ScopedResultCache(self, namespace)

    def clear_scope(self, namespace: Hashable) -> int:
        """Drop every entry of one scope; returns how many were dropped."""
        with self._lock:
            doomed = [key for key in self._entries
                      if _in_scope(key, namespace)]
            for key in doomed:
                del self._entries[key]
            return len(doomed)


class ScopedResultCache:
    """A namespaced view of a shared :class:`ResultCache`.

    Satisfies the cache protocol a prepared handle — and the service
    in front of one — consumes (``get``/``put``/
    ``evict_product``/``clear``/``stats``), storing entries under
    ``(namespace, key)`` in the parent.  Hit/miss counters are tracked
    per scope; capacity and LRU eviction belong to the parent.
    """

    MISS = MISS

    def __init__(self, parent: ResultCache, namespace: Hashable) -> None:
        self.parent = parent
        self.namespace = namespace
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Any:
        value = self.parent.get((self.namespace, key))
        with self._lock:
            if value is MISS:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self.parent.put((self.namespace, key), value)

    def clear(self) -> None:
        self.parent.clear_scope(self.namespace)

    def evict_product(self, positions: Sequence[Collection[Hashable]]) -> int:
        """:meth:`ResultCache.evict_product`, confined to this scope;
        the count returned is the whole shared cache's (a write that
        reaches this scope leaves every other scope warm)."""
        return self.parent.evict_product(positions, self.namespace)

    def stats(self) -> Dict[str, int]:
        parent = self.parent.stats()
        with self._lock:
            return {"size": parent["size"], "maxsize": parent["maxsize"],
                    "hits": self.hits, "misses": self.misses,
                    "shared": True}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ScopedResultCache ns={self.namespace!r} "
                f"hits={self.hits} misses={self.misses}>")
