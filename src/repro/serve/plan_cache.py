"""Compile-plan cache: one Theorem 6 compilation, many consumers.

Compilation (normalize, low-treedepth coloring, forest encoding, the
forest compiler, the optimizer's flatten rebuild, the layer schedule) is the
expensive linear-time preprocessing the paper amortizes; everything after
it is fast.  :class:`PlanCache` memoizes whole compilations keyed by
:func:`repro.core.plan_cache_key` — (structure content fingerprint,
expression repr, dynamic relations, optimize flag) — so repeated
workloads over content-equal structures skip compilation entirely.

Entries are stored as pristine templates and handed out via
:meth:`CompiledQuery.rebind`, which shares the immutable circuit and
layer schedule but copies the mutable update state (the recorded
inputs), so consumers can update weights and toggle dynamic relations
without aliasing each other.  Thread-safe; bounded LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional


class PlanCache:
    """Bounded, thread-safe LRU of compiled-plan templates.

    Satisfies the ``plan_cache`` protocol of
    :func:`repro.core.compile_structure_query` (``lookup``/``store``);
    pass one instance to many ``compile_structure_query`` calls or
    :class:`~repro.api.Database` instances to share plans
    process-wide.
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: Hashable) -> Optional[Any]:
        """The cached plan template for ``key``, or ``None`` (LRU touch)."""
        with self._lock:
            template = self._entries.get(key)
            if template is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return template

    def store(self, key: Hashable, plan: Any) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"size": len(self._entries), "maxsize": self.maxsize,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (f"<PlanCache size={s['size']}/{s['maxsize']} "
                f"hits={s['hits']} misses={s['misses']}>")
