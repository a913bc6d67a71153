"""The vector plan: the one grouping of a circuit's gates, in NumPy.

:class:`VectorPlan` is what :class:`~repro.circuits.vectorized.
VectorizedEvaluator` sweeps.  It walks the schedule's live gates in id
(= topological) order, reads their operands off the circuit, and
renumbers them into *ranks* so that

* rank order is level order (every child has a smaller rank than its
  parents), the live inputs are ranks ``0 .. inputs-1`` in slot order
  (slot ``i`` of :meth:`LayerSchedule.slot_of` *is* rank ``i``), and
  each ``(kind, fan_in)`` group of a level is one contiguous rank range
  — a dense sweep writes whole slices, and a sorted array of
  ``rank * width + column`` codes is sorted by level;
* every addition wider than :data:`TREE_ARITY` is summed through a
  balanced tree of *virtual* partial-sum nodes (extra ranks with no gate
  behind them) — the array form of :class:`repro.algebra.TreeSum`: no
  inverses, so it serves ``N`` and the tropical carriers alike, and a
  changed child of a fan-in-``f`` addition dirties ``O(log f)`` nodes of
  ``<= TREE_ARITY`` operands each instead of one ``f``-wide gather.

On top of the groups it carries what the cone-restricted delta pass
needs and nothing else does: the child -> (parent, operand slot) table
in CSR form (:func:`expand_parents`) and every input slot's upward cone
in CSR form (``cone_ptr`` / ``cone_rank``), whose row lengths are the
cost rule's only data-dependent term.

The guarded exact kernels read one more static fact off it,
:func:`input_bound`: the largest input magnitude under which no value
the plan forms — partial sums and partial products included — can leave
a given window (see :mod:`repro.circuits.vectorized` for how a batch
uses it).

Like the schedule itself the plan is immutable, derived from static
topology only, built on first use and memoized on the schedule object;
it is never serialized (a loaded plan rebuilds it in one pass).
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from .gates import GateId
from .schedule import (KIND_ADD, KIND_CONST, KIND_INPUT, KIND_MUL, KIND_PERM,
                       LayerSchedule, gate_kind)

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Widest addition evaluated as one reduction; wider ones become trees
#: of partial sums with at most this many operands per node.  16 keeps
#: a 3 243-wide top addition (DEGREE, 24x24 grid) three levels deep —
#: the delta pass pays a fixed NumPy overhead per group, and every tree
#: level is one more group, so depth costs more than operands per node
#: do.
TREE_ARITY = 16

#: Order of the group kinds inside a level (inputs first: rank == slot).
_KIND_ORDER = {KIND_INPUT: 0, KIND_CONST: 1, KIND_ADD: 2, KIND_MUL: 3,
               KIND_PERM: 4}


@dataclass(frozen=True)
class PlanGroup:
    """One ``(kind, fan_in)`` bucket of a level: ranks ``start:stop``.

    ``children`` is the ``(stop - start, fan_in)`` array of operand
    ranks for additions and multiplications; ``entries`` lists, for a
    permanent group, each gate's matrix of operand ranks (``None`` =
    the semiring zero)."""

    kind: str
    start: int
    stop: int
    children: Any = None
    entries: Tuple[Tuple[Tuple[Optional[int], ...], ...], ...] = ()


@dataclass(frozen=True)
class VectorPlan:
    """Rank-space evaluation tables of one schedule (see the module
    docstring).  ``levels[i]`` holds the groups of level ``i + 1``
    (level 0 is inputs and constants, which are loaded, not computed)
    and ``level_stops[i]`` the rank just past it."""

    size: int                  #: ranks: live gates + virtual nodes
    live: int                  #: live gates (the dense pass's row count)
    inputs: int                #: live input slots = ranks 0..inputs-1
    rank_of: Dict[GateId, int]
    output: int
    consts: Tuple[Tuple[int, Any], ...]   #: (rank, raw constant)
    levels: Tuple[Tuple[PlanGroup, ...], ...]
    level_stops: Tuple[int, ...]
    #: CSR child rank -> one (parent rank, operand slot) per operand
    #: position the child fills: the column of ``children`` in an
    #: addition or multiplication, the flat matrix index in a permanent.
    parent_ptr: Any
    parent_idx: Any
    parent_slot: Any
    #: CSR input slot -> the ranks its value can reach, ascending, the
    #: slot itself first; ``cone_sizes`` is ``diff(cone_ptr)``.
    cone_ptr: Any
    cone_rank: Any
    cone_sizes: Any
    #: memos of :func:`rank_growth` (one entry once computed) and of
    #: window -> bound for :func:`input_bound` and for the adjoint
    #: pass's :func:`~repro.circuits.adjoint.adjoint_bound`.
    _growth: List[Optional[Tuple[Any, Any]]] = field(
        default_factory=list, repr=False, compare=False)
    _bounds: Dict[int, Optional[int]] = field(
        default_factory=dict, repr=False, compare=False)
    _adjoint_bounds: Dict[int, Optional[int]] = field(
        default_factory=dict, repr=False, compare=False)


def csr_span(starts: Any, stops: Any) -> Tuple[Any, Any]:
    """CSR positions ``starts[i] .. stops[i] - 1`` for every ``i``, laid
    end to end, and for each the ``i`` it came from."""
    counts = stops - starts
    source = _np.repeat(_np.arange(starts.size), counts)
    return (_np.arange(source.size)
            + (starts - _np.cumsum(counts) + counts)[source]), source


def first_of_runs(codes: Any) -> Any:
    """The mask of each sorted ``codes`` value's first occurrence: one
    adjacent difference (after a sort, ``np.unique`` costs 10-15x
    that on int64 codes)."""
    first = _np.empty(codes.size, dtype=bool)
    first[:1] = True
    _np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return first


def sorted_unique(codes: Any) -> Any:
    """``codes`` sorted, each value once."""
    codes = _np.sort(codes)
    return codes[first_of_runs(codes)]


def expand_parents(plan: VectorPlan, codes: Any, width: int
                   ) -> Tuple[Any, Any, Any]:
    """Every operand position fed by a ``rank * width + column`` of
    ``codes``, as three parallel arrays: the ``parent * width + column``
    code, the operand slot inside that parent, and the index into
    ``codes`` it came from (unsorted; a parent appears once per operand
    position).  A delta pass makes one call, over all its dirty pairs;
    the cone table's build makes one per level."""
    ranks, cols = _np.divmod(codes, width)
    edges, source = csr_span(plan.parent_ptr[ranks],
                             plan.parent_ptr[ranks + 1])
    return (plan.parent_idx[edges] * width + cols[source],
            plan.parent_slot[edges], source)


def vector_plan(schedule: LayerSchedule) -> VectorPlan:
    """The schedule's vector plan, built once and memoized on it."""
    plan = schedule._vector_plan
    if plan is None:
        plan = schedule._vector_plan = _build(schedule)
    return plan


def _build(schedule: LayerSchedule) -> VectorPlan:
    circuit = schedule.circuit
    gates = circuit.gates
    # Nodes: live gate ids, then virtual partial sums numbered past them.
    level: Dict[int, int] = {}
    # (level, kind order, fan_in) -> [(node, operand nodes)]
    buckets: Dict[Tuple[int, int, int], List[Tuple[int, Tuple]]] = {}
    next_virtual = len(gates)

    # gate -> its smallest operand id (its own id for an input): read
    # off the circuit, so a tree-summed operand keys by its real
    # operands, not by partial sums numbered in visit order.
    first_operand: Dict[int, int] = {}

    def place(node: int, kind: str, operands: Tuple[int, ...]) -> None:
        at = 1 + max(level[child] for child in operands) if operands else 0
        level[node] = at
        fan_in = len(operands) if kind in (KIND_ADD, KIND_MUL) else 0
        buckets.setdefault((at, _KIND_ORDER[kind], fan_in), []).append(
            (node, operands))

    for gate_id, _ in schedule.input_gates:
        first_operand[gate_id] = gate_id
        place(gate_id, KIND_INPUT, ())
    for gate_id in schedule.layer_of:
        gate = gates[gate_id]
        kind, _ = gate_kind(gate)
        if kind == KIND_INPUT:
            continue
        operands = tuple(circuit.children_of(gate))
        first_operand[gate_id] = min(operands, default=gate_id)
        if kind == KIND_ADD and len(operands) > TREE_ARITY:
            # Addition commutes: put operands that share their first
            # operand (in DEGREE, every product of one selector) side by
            # side, so an input's cone climbs through few partial sums
            # instead of one per operand it feeds.
            operands = tuple(sorted(operands, key=first_operand.__getitem__))
            while len(operands) > TREE_ARITY:
                partial = []
                for at in range(0, len(operands), TREE_ARITY):
                    chunk = operands[at:at + TREE_ARITY]
                    if len(chunk) == 1:
                        partial.append(chunk[0])
                        continue
                    place(next_virtual, KIND_ADD, chunk)
                    partial.append(next_virtual)
                    next_virtual += 1
                operands = tuple(partial)
        place(gate_id, kind, operands)

    rank_of: Dict[int, int] = {}
    for key in sorted(buckets):
        for node, _ in buckets[key]:
            rank_of[node] = len(rank_of)
    size = len(rank_of)

    by_level: Dict[int, List[PlanGroup]] = {}
    stops: Dict[int, int] = {}
    # (children, parents, operand slots), one entry per operand position.
    none = _np.empty(0, dtype=_np.int64)
    edges: List[Tuple[Any, Any, Any]] = [(none, none, none)]
    kinds = {order: kind for kind, order in _KIND_ORDER.items()}
    for key in sorted(buckets):
        at, order, fan_in = key
        members = buckets[key]
        start = rank_of[members[0][0]]
        stop = start + len(members)
        if at == 0:
            continue
        stops[at] = stop
        kind = kinds[order]
        if kind == KIND_PERM:
            entries = tuple(
                tuple(tuple(None if entry is None else rank_of[entry]
                            for entry in row)
                      for row in gates[node].entries)
                for node, _ in members)
            group = PlanGroup(kind, start, stop, entries=entries)
            for rank, matrix in enumerate(entries, start):
                flat = [entry for row in matrix for entry in row]
                slots = [slot for slot, entry in enumerate(flat)
                         if entry is not None]
                edges.append((
                    _np.array([flat[slot] for slot in slots],
                              dtype=_np.int64),
                    _np.full(len(slots), rank, dtype=_np.int64),
                    _np.array(slots, dtype=_np.int64)))
        else:
            children = _np.array(
                [[rank_of[child] for child in operands]
                 for _, operands in members], dtype=_np.int64)
            group = PlanGroup(kind, start, stop, children=children)
            edges.append((
                children.ravel(),
                _np.repeat(_np.arange(start, stop, dtype=_np.int64), fan_in),
                _np.tile(_np.arange(fan_in, dtype=_np.int64), len(members))))
        by_level.setdefault(at, []).append(group)

    child_of, parent_idx, parent_slot = (
        _np.concatenate(column) for column in zip(*edges))
    order = _np.argsort(child_of, kind="stable")
    parent_ptr = _np.zeros(size + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(child_of, minlength=size), out=parent_ptr[1:])

    top = max(by_level, default=0)
    plan = VectorPlan(
        size=size, live=schedule.live_count(),
        inputs=len(schedule.input_gates),
        rank_of={node: rank for node, rank in rank_of.items()
                 if node < len(gates)},
        output=rank_of[circuit.output],
        consts=tuple((rank_of[gate_id], raw)
                     for gate_id, raw in schedule.const_gates),
        levels=tuple(tuple(by_level[at]) for at in range(1, top + 1)),
        level_stops=tuple(stops[at] for at in range(1, top + 1)),
        parent_ptr=parent_ptr, parent_idx=parent_idx[order],
        parent_slot=parent_slot[order], cone_ptr=None, cone_rank=None,
        cone_sizes=None)
    cone_ptr, cone_rank = _cones(plan)
    return replace(plan, cone_ptr=cone_ptr, cone_rank=cone_rank,
                   cone_sizes=_np.diff(cone_ptr))


def _cones(plan: VectorPlan) -> Tuple[Any, Any]:
    """Every input slot's upward cone as CSR ``(cone_ptr, cone_rank)``:
    every slot climbs the parents table as its own column, level by
    level so a rank reached along two paths is kept once."""
    width = max(plan.inputs, 1)
    slots = _np.arange(plan.inputs, dtype=_np.int64)
    reached = [slots * width + slots]
    pending = expand_parents(plan, reached[0], width)[0]
    for stop in plan.level_stops:
        if not pending.size:
            break
        here = pending < stop * width
        reached.append(sorted_unique(pending[here]))
        pending = _np.concatenate(
            (pending[~here], expand_parents(plan, reached[-1], width)[0]))
    ranks, slots = _np.divmod(_np.concatenate(reached), width)
    cone_ptr = _np.zeros(plan.inputs + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(slots, minlength=plan.inputs),
               out=cone_ptr[1:])
    # Slot-major, ranks ascending: the slot (its smallest rank) first.
    return cone_ptr, _np.sort(slots * plan.size + ranks) % plan.size


def int_nth_root(maximum: int, n: int) -> int:
    """The largest ``b >= 1`` with ``b ** n <= maximum`` (small ``n``)."""
    if n <= 1:
        return maximum
    root = int(maximum ** (1.0 / n))
    while root ** n > maximum:
        root -= 1
    while (root + 1) ** n <= maximum:
        root += 1
    return max(root, 1)


#: Masses are tracked exactly up to this cap, which is past every
#: kernel window (a capped rank can never be certified), and degrees up
#: to this one, past which ``max(1, M) ** degree`` outgrows every window
#: unless ``M <= 1`` (and then the degree does not matter).
_MASS_CAP = 2 ** 64
_DEGREE_CAP = 64


def input_bound(plan: VectorPlan, window: int) -> Optional[int]:
    """M*: the largest input magnitude ``M`` such that every value the
    plan forms stays within ``[-window, window]`` whenever every input
    does within ``[-M, M]`` — ``None`` when no ``M`` guarantees it (a
    non-integer constant, or constants alone already leaving the
    window).  Memoized per window on the plan.

    Each rank's value is bounded by ``mass * max(1, M) ** degree``,
    computed once from topology and constants: an input has mass 1 and
    degree 1, a constant mass ``|c|`` and degree 0, an addition sums
    its operands' masses and takes their largest degree, a
    multiplication multiplies their ``max(1, mass)`` and sums their
    degrees.  The bound of a reduction also bounds every partial sum
    (a sub-sum of the same magnitudes) and every partial product (each
    omitted factor's bound is at least 1) it forms, in any order.  An
    ``r x c`` permanent sums ``P(c, r)`` products of one entry per row:
    its mass is ``P(c, r)`` times, per row, ``max(1, the row's largest
    entry mass)``, its degree the sum of the rows' largest entry
    degrees (it forms no partial value natively: the evaluator computes
    it in exact carrier values)."""
    bounds = plan._bounds
    if window not in bounds:
        growth = rank_growth(plan)
        bounds[window] = None if growth is None \
            else bound_within(by_degree(*growth), window)
    return bounds[window]


def by_degree(mass: Any, degree: Any) -> Dict[int, int]:
    """Degree -> the largest mass of a rank of that degree."""
    return {int(d): int(mass[degree == d].max()) for d in _np.unique(degree)}


def bound_within(growth: Dict[int, int], window: int) -> Optional[int]:
    """The largest ``M >= 1`` with ``mass * M ** degree <= window`` for
    every ``degree -> mass`` of ``growth`` (``None`` when a mass alone
    leaves the window)."""
    if max(growth.values(), default=0) > window:
        return None
    return min((int_nth_root(window // max(mass, 1), degree)
                for degree, mass in growth.items() if degree),
               default=window)


def rank_growth(plan: VectorPlan) -> Optional[Tuple[Any, Any]]:
    """Every rank's ``(mass, degree)`` (see :func:`input_bound`) as two
    arrays, masses in exact integers; ``None`` when the plan has a
    non-integer constant.  Memoized on the plan."""
    if not plan._growth:
        plan._growth.append(_growth(plan))
    return plan._growth[0]


def _growth(plan: VectorPlan) -> Optional[Tuple[Any, Any]]:
    # Ranks nothing below assigns (none in a well-formed plan) keep the
    # cap: they make the plan uncertifiable rather than unsound.
    mass = _np.full(plan.size, _MASS_CAP, dtype=object)
    degree = _np.zeros(plan.size, dtype=_np.int64)
    mass[:plan.inputs] = 1
    degree[:plan.inputs] = 1
    for rank, raw in plan.consts:
        if not isinstance(raw, int):
            return None
        mass[rank] = min(abs(raw), _MASS_CAP)
    for groups in plan.levels:
        for group in groups:
            if group.kind == KIND_PERM:
                for rank, matrix in enumerate(group.entries, group.start):
                    rows = [[entry for entry in row if entry is not None]
                            for row in matrix]
                    total = _math.perm(len(matrix[0]) if matrix else 0,
                                       len(matrix))
                    for row in rows:
                        total *= max([1] + [mass[entry] for entry in row])
                    mass[rank] = min(total, _MASS_CAP)
                    degree[rank] = min(
                        sum(max((int(degree[entry]) for entry in row),
                                default=0) for row in rows),
                        _DEGREE_CAP)
                continue
            children = group.children
            if group.kind == KIND_ADD:
                sums = _np.add.reduce(mass[children], axis=1)
                degrees = degree[children].max(axis=1, initial=0)
            else:
                sums = _np.multiply.reduce(
                    _np.maximum(mass[children], 1), axis=1)
                degrees = degree[children].sum(axis=1)
            mass[group.start:group.stop] = _np.minimum(sums, _MASS_CAP)
            degree[group.start:group.stop] = _np.minimum(degrees,
                                                         _DEGREE_CAP)
    return mass, degree
