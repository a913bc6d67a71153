"""Theorem 8's closed form: a free variable is a selector *input*.

A query ``f(x)`` with free variables compiles as the closed expression

    f' = Σ_x  f(x) · v_1(x_1) ··· v_k(x_k)

whose selectors ``v_i`` are part of the evaluation protocol, not of the
database: no structure stores them, so they move no fingerprint, enter
no plan key and belong to no semiring.  Each ``v_i(a)`` is an input
gate of its own kind (:func:`selector_key`) whose ``recorded`` entry
``(SELECTED, None)`` holds no value — every evaluator fills it itself:
the semiring's zero at rest, its one for the probed argument (a point
read toggles the maintained evaluator, a batch scatters columns), the
generator ``(i, a)`` under answer enumeration, ``1`` under a count.
This module is the only place that knows the format.  It has two
readers besides the compiler that writes it: :func:`selected_elements`
(which arguments an update can reach) and :func:`selector_slots`, the
per-position ``{element: slot}`` tables a batched point read resolves
its arguments through — one dict lookup per element, no key built.
"""

from __future__ import annotations

from typing import Any, Container, Dict, FrozenSet, Hashable, Iterable, \
    NamedTuple, Sequence, Tuple

from ..logic.weighted import Sum, WExpr, WMul, Weight

#: ``recorded`` kind of a selector input (beside ``"w"`` and ``"b"``).
SELECTED = "s"
_KEY = "sel"


class Selector(NamedTuple):
    """The name of the selector atom of free-variable ``position`` — a
    weight-atom name no structure can declare (names there are strings
    or stage tuples), with full support over every forest's nodes."""

    position: int


def close_over(expr: WExpr, free: Sequence[str]) -> WExpr:
    """The Theorem 8 closed form of ``expr`` over its free variables, in
    argument order; a closed query is the zero-selector case."""
    if not free:
        return expr
    return Sum(tuple(free), WMul((expr,) + tuple(
        Weight(Selector(position), (var,))
        for position, var in enumerate(free))))


def selector_key(position: int, element: Hashable) -> Tuple:
    """The input key of ``v_position(element)`` — flat, and of a kind no
    weight ``("w", ...)`` or relation ``("dynrel", ...)`` key shares."""
    return (_KEY, position, element)


def normalize_arguments(arguments: Sequence[Any], free: Sequence[str],
                        domain: Container[Hashable]) -> Tuple:
    """One point query's arguments as a tuple aligned with ``free``.

    ``arguments`` is what the caller passed — positional elements or a
    single ``{var: element}`` mapping; wrong arity is a ``ValueError``,
    an element outside ``domain`` a ``KeyError`` (an unknown element is
    an error, not a silent zero).  The one normaliser behind every
    point-query entry point: bound and batched reads, the service and
    the cluster gateway.
    """
    if len(arguments) == 1 and isinstance(arguments[0], dict):
        assignment = arguments[0]
        arguments = tuple(assignment[var] for var in free)
    arguments = tuple(arguments)
    if len(arguments) != len(free):
        raise ValueError(f"expected {len(free)} arguments, "
                         f"got {arguments!r}")
    for element in arguments:
        if element not in domain:
            raise KeyError(f"{element!r} is not in the structure's domain")
    return arguments


def arguments_of(item: Any) -> Sequence[Any]:
    """One batch item as the arguments :func:`normalize_arguments`
    reads: a ``{var: element}`` mapping is the single-mapping form,
    anything else is its positional elements."""
    return (item,) if isinstance(item, dict) else tuple(item)


def selector_slots(schedule: Any, arity: int
                   ) -> Tuple[Dict[Hashable, int], ...]:
    """Per free-variable position below ``arity``, element -> the input
    slot of its selector (:meth:`~repro.circuits.LayerSchedule.slot_of`);
    an element whose selector is not a live input has no entry.

    Static topology: built once per schedule, memoized on it and shared
    by every plan that shares the schedule (``rebind``); O(selector
    inputs).  Callers must not mutate the tables."""
    tables = schedule._selector_slots
    if tables is None:
        tables = {}
        for key, slot in schedule.slot_of().items():
            if key[0] == _KEY:
                tables.setdefault(key[1], {})[key[2]] = slot
        schedule._selector_slots = tables
    return tuple(tables.get(position, {}) for position in range(arity))


def selection(key: Tuple) -> Tuple:
    """``(position, element)`` of a selector input key."""
    return key[1:]


def selected_elements(keys: Iterable[Tuple], arity: int
                      ) -> Tuple[FrozenSet, ...]:
    """Per free-variable position, the elements whose selector keys
    occur among the input ``keys``."""
    found: Tuple[set, ...] = tuple(set() for _ in range(arity))
    for key in keys:
        if key[0] == _KEY:
            found[key[1]].add(key[2])
    return tuple(map(frozenset, found))
