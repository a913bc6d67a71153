"""ResultTable: the grouped-aggregation result surface.

``PreparedQuery.group_by`` (and ``QueryService.group_by``) evaluate all
groups of a parameterized query in one batched sweep and return a
:class:`ResultTable` — ordered rows of key tuple → aggregate value with
a small relational surface: ``columns``, iteration, ``to_dicts()``, an
optional ``to_numpy()`` for the value column, and lookup by group key.

ROLLUP subtotal rows mark the rolled-up key positions with the
:data:`TOTAL` sentinel (the analogue of SQL's ``NULL`` in ``ROLLUP``
output, without colliding with a legitimate domain element ``None``).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple

#: Ceiling on an enumerated group domain (``group_by`` without explicit
#: keys takes the cartesian product of the structure's domain over the
#: query parameters, which grows as ``|A|^k``); past it, pass keys.
DEFAULT_MAX_GROUPS = 65536


class _Total:
    """Singleton marking a rolled-up key position in a subtotal row."""

    __slots__ = ()
    _instance: Optional["_Total"] = None

    def __new__(cls) -> "_Total":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TOTAL"


#: The rolled-up key marker in ROLLUP subtotal rows.
TOTAL = _Total()


class ResultTable:
    """Ordered rows of group key tuple → aggregate value.

    Each row is ``key + (value,)`` — a flat tuple aligned with
    :attr:`columns` (the query's parameter names plus the value column).
    Base rows keep the evaluation's group order; ROLLUP subtotal rows
    (key positions marked :data:`TOTAL`, finest level first, grand total
    last) follow them.  ``stats`` carries the sweep telemetry the
    producing seam recorded (group count, sweep shape, kernel, cache
    hits) — surfaced by ``PreparedQuery.stats()``/``explain()``.
    """

    __slots__ = ("columns", "_keys", "_values", "stats")

    def __init__(self, columns: Sequence[str], keys: Sequence[Tuple],
                 values: Sequence[Any],
                 stats: Optional[Dict[str, Any]] = None):
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        self.columns: Tuple[str, ...] = tuple(columns)
        self._keys: List[Tuple] = [tuple(key) for key in keys]
        self._values: List[Any] = list(values)
        self.stats: Dict[str, Any] = dict(stats or {})

    # -- relational surface ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Tuple]:
        for key, value in zip(self._keys, self._values):
            yield key + (value,)

    def keys(self) -> List[Tuple]:
        """The group key tuples, in row order."""
        return list(self._keys)

    def values(self) -> List[Any]:
        """The aggregate values, in row order."""
        return list(self._values)

    def _as_key(self, key: Any) -> Tuple:
        """Normalize a lookup to a full key tuple.  A tuple of the key
        arity is the row key itself; anything else is a bare element of
        a 1-ary key (so tuple-valued domain elements still work:
        ``table[(0, 1)]`` on a 1-ary table means the element ``(0, 1)``).
        """
        arity = len(self.columns) - 1
        if isinstance(key, tuple) and len(key) == arity:
            return key
        return (key,)

    def __getitem__(self, key: Any) -> Any:
        """The aggregate of one group (``table[a]`` or ``table[a, b]``)."""
        key = self._as_key(key)
        for row_key, value in zip(self._keys, self._values):
            if row_key == key:
                return value
        raise KeyError(key)

    def __contains__(self, key: Any) -> bool:
        return self._as_key(key) in self._keys

    def to_dicts(self) -> List[Dict[str, Any]]:
        """One ``{column: value}`` dict per row, in row order."""
        return [dict(zip(self.columns, row)) for row in self]

    def to_numpy(self):
        """The value column as a NumPy array (requires numpy).

        Group keys are arbitrary domain elements, so only the aggregate
        column has an array form; pair it with :meth:`keys` for the row
        labels.
        """
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy leg always has it
            raise RuntimeError(
                "ResultTable.to_numpy() requires numpy; iterate the table "
                "or use to_dicts() on numpy-less installs") from None
        return numpy.asarray(self._values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ResultTable columns={self.columns} rows={len(self)}>")


def attach_rollup(keys: List[Tuple], values: List[Any], sr: Any
                  ) -> Tuple[List[Tuple], List[Any]]:
    """Append ROLLUP subtotal rows to a base group listing.

    For ``k``-ary keys, level ``j`` (``j = k-1 .. 0``) folds the base
    aggregates of every distinct ``j``-prefix with the semiring's
    addition, emitting ``prefix + (TOTAL,) * (k - j)`` rows — finest
    subtotals first, the grand total (all positions ``TOTAL``) last.
    Subtotals aggregate *all* base groups (a HAVING filter applies to
    base rows only; see ``group_by``), and prefixes keep first-seen
    order, so the output is deterministic in the base row order.
    """
    if not keys:
        return keys, values
    arity = len(keys[0])
    out_keys = list(keys)
    out_values = list(values)
    for level in range(arity - 1, -1, -1):
        folded: Dict[Tuple, Any] = {}
        order: List[Tuple] = []
        for key, value in zip(keys, values):
            prefix = key[:level]
            if prefix in folded:
                folded[prefix] = sr.add(folded[prefix], value)
            else:
                folded[prefix] = value
                order.append(prefix)
        pad = (TOTAL,) * (arity - level)
        for prefix in order:
            out_keys.append(prefix + pad)
            out_values.append(folded[prefix])
    return out_keys, out_values


def apply_having(keys: List[Tuple], values: List[Any],
                 having: Optional[Callable[[Any], bool]]
                 ) -> Tuple[List[Tuple], List[Any]]:
    """Filter base group rows by a predicate on the aggregate value."""
    if having is None:
        return keys, values
    kept_keys: List[Tuple] = []
    kept_values: List[Any] = []
    for key, value in zip(keys, values):
        if having(value):
            kept_keys.append(key)
            kept_values.append(value)
    return kept_keys, kept_values


def group_key_tuples(keys: Optional[Sequence[Any]], names: Tuple[str, ...],
                     domain: Sequence[Any], noun: str = "params",
                     check: Optional[Callable[[Tuple], None]] = None
                     ) -> List[Tuple]:
    """The ordered, deduplicated group key tuples of one ``group_by``.

    ``keys=None`` enumerates the cartesian product of ``domain`` over
    the key columns ``names`` (domain order, ``|A|^k`` groups, refused
    beyond :data:`DEFAULT_MAX_GROUPS` before anything is allocated).
    Explicit ``keys`` are normalized to ``names``-aligned tuples: a
    tuple (or list) of the key arity is a full key, anything else is a
    bare element of a 1-ary key (so tuple-valued domain elements work
    unwrapped); ``check`` validates each tuple the caller's way, and
    duplicates evaluate once and appear once.  ``noun`` is what the
    caller's errors call ``names``.
    """
    arity = len(names)
    if keys is None:
        count = len(domain) ** arity
        if count > DEFAULT_MAX_GROUPS:
            raise ValueError(
                f"group_by() would enumerate {count} groups "
                f"(|domain|^{arity}) > {DEFAULT_MAX_GROUPS}; pass explicit "
                f"keys")
        return [tuple(combo)
                for combo in itertools.product(domain, repeat=arity)]
    normalized: List[Tuple] = []
    for item in keys:
        if isinstance(item, list):
            item = tuple(item)
        if isinstance(item, tuple) and len(item) == arity:
            tup = item
        elif arity == 1:
            tup = (item,)
        else:
            raise TypeError(f"group keys must be {arity}-tuples aligned "
                            f"with {noun} {names}; got {item!r}")
        if check is not None:
            check(tup)
        normalized.append(tup)
    return list(dict.fromkeys(normalized))


def build_table(names: Tuple[str, ...], keys: List[Tuple],
                values: List[Any], sr: Any,
                having: Optional[Callable[[Any], bool]], rollup: bool,
                stats: Dict[str, Any]) -> ResultTable:
    """The HAVING/ROLLUP tail of every ``group_by``: filter the base
    rows, append the subtotal rows (folded over *all* base groups —
    HAVING applies to base rows only, as in SQL), and wrap the result
    with the producing seam's ``stats``."""
    out_keys, out_values = apply_having(keys, values, having)
    if rollup:
        all_keys, all_values = attach_rollup(keys, values, sr)
        out_keys = out_keys + all_keys[len(keys):]
        out_values = out_values + all_values[len(keys):]
    return ResultTable(names + ("value",), out_keys, out_values, stats)

