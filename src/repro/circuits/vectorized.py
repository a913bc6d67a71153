"""Vectorized batched evaluation over the vector plan (NumPy backend).

:class:`VectorizedEvaluator` evaluates one circuit over an N-valuation
batch level by level, over the rank groups of the vector plan
(:mod:`repro.circuits.vector_plan`).  Three passes share the kernels,
the overflow certificate and the result accessors:

* the **dense sweep** keeps all values in one ``(ranks, N)`` array, and
  each ``add``/``mul`` group of ``g`` gates with uniform fan-in ``f`` is
  evaluated into one contiguous slice of ranks with a few NumPy
  operations: a narrow group as a fancy-index gather
  ``V[children] -> (g, f, N)`` reduced over the fan-in axis, a wide one
  folded operand by operand straight into its slice
  (:func:`_fold_into`).  Per-gate
  Python dispatch, the cost that dominates
  :class:`~repro.circuits.evaluation.BatchedEvaluator`, is amortized
  over whole groups;
* the **delta pass** serves batches that are sparse edits of one base
  valuation: the base is swept once as a single column, and only the
  ``(rank, column)`` pairs in the upward cones of the edited inputs are
  recomputed.  It is one cone expansion: the edits that differ from
  the base expand through the plan's per-slot cone table into every
  dirty pair as sorted ``rank * N + column`` codes, one climb of the
  parents table gives each pair its dirty operands, and each group is
  a ``(pairs, f)`` gather from the base column with those scattered in,
  reduced;
* the **adjoint pass** (:mod:`repro.circuits.adjoint`) answers a batch
  of one-key point reads from one reverse sweep over that base sweep.

One cost rule picks the pass per batch (:func:`pass_costs`,
:func:`~repro.circuits.adjoint.adjoint_pays`) — callers never choose.

A semiring participates through an :class:`ArrayKernel` — a dtype plus
the two fan-in reductions.  Native kernels ship for the numeric carriers
and the tropical carriers (min-plus, max-plus, min-max on ``float64``);
every other carrier (boolean, provenance, finite tables, products) runs
the same passes on its generic object kernel, whose reductions are
``np.frompyfunc`` of the semiring's own ``add`` and ``mul``
(:func:`kernel_for`).

The exact carriers (``N``/``Z``/``Q``) run natively when an evaluation
is *certified* safe, and on their exact object-dtype kernel otherwise:

* ``N``/``Z`` have an ``int64`` kernel, ``Q`` a ``float64`` one that
  takes only integer-valued rationals inside the exact-float window
  (|v| < 2^53) — the small-denominator detection.  Such a *guarded*
  kernel names the window its carrier is exact in
  (``ArrayKernel.window``: ``2^63 - 1`` for int64, ``2^53 - 1`` for the
  float64 integer path) and the object kernel it falls back to.
* The vector plan bounds the value of every rank by
  ``mass * max(1, M) ** degree``, where ``M`` is the largest input
  magnitude and mass and degree are static
  (:func:`~repro.circuits.vector_plan.input_bound`); the bound of a
  reduction also bounds every partial sum and partial product it forms,
  in any order.  The plan turns a window into M*, the largest input
  magnitude whose every consequence stays inside it.

An evaluation is certified when the plan has an M* for its kernel's
window, every input casts to the native dtype, and every input is
within M* — one abs-max over the loaded input matrix, or, for an
override batch, over its edits plus the base column's magnitude
(memoized on the :class:`PreparedBase`); the base sweep the delta pass
patches is certified the same way.  A certified evaluation runs NumPy's
plain reductions on the native dtype in the dense and the delta pass
alike: no value it forms can leave the window.  Every other evaluation
runs on the exact object kernel from the start.  The rule is a pure
function of the plan and the inputs, and results are exact either way;
inputs above M* whose results would still fit the native dtype pay
object arithmetic (README, "Array kernels and the exact fast paths").

``exact_mode`` (validated in :mod:`repro.circuits.backends`) selects
the kernel: ``"auto"`` asks for the guarded native kernel, ``"object"``
forces the exact object-dtype kernel.  Evaluators report
``kernel_requested`` / ``kernel_used`` / ``fallbacks`` (evaluations that
asked for a native kernel and ran on its fallback) / ``certified`` so
callers (``CompiledQuery.stats()``, ``PreparedQuery.explain()``) can
say which kernel actually ran.

Note the tropical kernels realize the carrier ``R u {inf}`` as
``float64``: weights outside the 2^53 exact-integer window (or exact
``Fraction`` weights) are rounded, where the pure-Python backend would
keep Python's unbounded arithmetic.  Pass ``backend="python"`` when
tropical weights need exactness beyond ``float64``.  Permanent gates
have no rectangular reduction and are evaluated per gate with the exact
semiring permanent, reading operands out of (and writing back into) the
value array.

NumPy itself is optional: this module imports without it, and then
:func:`kernel_for` returns ``None`` and callers run the pure-Python
:class:`~repro.circuits.evaluation.BatchedEvaluator`.
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import chain, compress, repeat
from operator import methodcaller
from typing import (Any, Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Tuple, Type)

from ..algebra import permanent
from ..semirings import (FloatField, IntegerRing, MaxPlus, MinMax, MinPlus,
                         NaturalSemiring, RationalField, Semiring)
from .backends import validate_exact_mode
from .evaluation import input_row
from .gates import Circuit, GateId
from .schedule import KIND_ADD, KIND_PERM, LayerSchedule, build_schedule
from .vector_plan import (PlanGroup, VectorPlan, csr_span, expand_parents,
                          first_of_runs, input_bound, sorted_unique,
                          vector_plan)

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when NumPy importing succeeded and the backend is usable.
HAVE_NUMPY = _np is not None


class GuardTrip(Exception):
    """Internal signal: a value cannot be represented in a guarded
    kernel's native dtype (the evaluation is not certified and runs on
    the object kernel)."""


@dataclass(frozen=True)
class ArrayKernel:
    """How one semiring maps onto NumPy arrays.

    ``add_reduce``/``mul_reduce`` fold the semiring ``+``/``*`` over one
    axis of a stacked array (signature ``(array, axis) -> array``);
    ``dtype`` is the carrier dtype (``object`` keeps exact Python
    arithmetic, e.g. unbounded ints and :class:`~fractions.Fraction`).

    A *guarded* kernel is a native carrier of an exact semiring: it runs
    only certified evaluations (module docstring) and hands every other
    one to its ``fallback``, the exact object kernel.

    ``window``
        The magnitude up to which the native carrier's ``+``/``*`` are
        exact integer arithmetic (``None``: not guarded, nothing to
        certify).
    ``cast_in``
        Per-value conversion into the native dtype, raising
        :class:`GuardTrip` for unrepresentable values (``None`` when
        NumPy's own conversion errors — ``OverflowError`` for int64 —
        already police the dtype).
    ``cast_out``
        Per-value conversion of native results back into the carrier
        (``None`` when ``tolist()`` already yields carrier values).
    """

    name: str
    dtype: Any
    add_reduce: Callable[[Any, int], Any]
    mul_reduce: Callable[[Any, int], Any]
    fallback: Optional["ArrayKernel"] = None
    cast_in: Optional[Callable[[Any], Any]] = None
    cast_out: Optional[Callable[[Any], Any]] = None
    window: Optional[int] = None


def kernel_for(sr: Semiring,
               exact_mode: str = "auto") -> Optional[ArrayKernel]:
    """The array kernel for ``sr``: its native kernel, or else its
    generic object kernel ``<name>-pyfunc`` over ``np.frompyfunc`` of
    ``sr.add`` and ``sr.mul``.  ``None`` only without NumPy, the
    caller's cue to run the pure-Python backend.

    ``exact_mode`` selects among a guarded kernel's variants:
    ``"auto"`` returns the guarded native kernel (which runs certified
    evaluations natively and every other one on its exact fallback),
    ``"object"`` that exact object-dtype fallback itself.  Kernels
    without a guarded variant ignore the knob.
    """
    validate_exact_mode(exact_mode)
    if not HAVE_NUMPY:
        return None
    native = _NATIVE_KERNELS.get(type(sr))
    if native is None:
        return ArrayKernel(
            name=f"{sr.name}-pyfunc", dtype=object,
            add_reduce=_np.frompyfunc(sr.add, 2, 1).reduce,
            mul_reduce=_np.frompyfunc(sr.mul, 2, 1).reduce)
    kernel = native(sr)
    if exact_mode == "object" and kernel.fallback is not None:
        return kernel.fallback
    return kernel


# -- the guarded native carriers -----------------------------------------------

_INT64_MAX = 2 ** 63 - 1


def _q_cast_in(value: Any) -> float:
    """A ``Q`` carrier value as an exact float64, or :class:`GuardTrip`.

    The small-denominator detection: only integer-valued rationals
    inside the exact-float window can run natively (a denominator > 1
    — or a blown-up one from e.g. PageRank weights — leaves the batch
    uncertified, on the exact object kernel, before any precision is
    lost).
    """
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise GuardTrip(value)
        value = value.numerator
    elif not isinstance(value, int):  # floats/decimals: keep object path
        raise GuardTrip(value)
    if not -(2 ** 53) < value < 2 ** 53:
        raise GuardTrip(value)
    return float(value)


def _q_cast_out(value: float) -> Fraction:
    return Fraction(int(value))


def _exact(sr: Semiring) -> ArrayKernel:
    return ArrayKernel(name=f"{sr.name}-object", dtype=object,
                       add_reduce=_np.add.reduce,
                       mul_reduce=_np.multiply.reduce)


def _int64(sr: Semiring) -> ArrayKernel:
    return ArrayKernel(name=f"{sr.name}-int64", dtype=_np.int64,
                       add_reduce=_np.add.reduce,
                       mul_reduce=_np.multiply.reduce,
                       fallback=_exact(sr), window=_INT64_MAX)


def _float64(name: str, add: Any, mul: Any) -> ArrayKernel:
    return ArrayKernel(name=name, dtype=_np.float64, add_reduce=add.reduce,
                       mul_reduce=mul.reduce)


#: Semiring type -> its native kernel (instance -> kernel); every other
#: carrier runs its generic object kernel (:func:`kernel_for`).
_NATIVE_KERNELS: Dict[Type[Semiring], Callable[[Semiring], ArrayKernel]] = {
    NaturalSemiring: _int64,
    IntegerRing: _int64,
    RationalField: lambda sr: ArrayKernel(
        name=f"{sr.name}-f64int", dtype=_np.float64,
        add_reduce=_np.add.reduce, mul_reduce=_np.multiply.reduce,
        fallback=_exact(sr), cast_in=_q_cast_in, cast_out=_q_cast_out,
        window=2 ** 53 - 1),
    FloatField: lambda sr: _float64("float64", _np.add, _np.multiply),
    MinPlus: lambda sr: _float64("min-plus-f64", _np.minimum, _np.add),
    MaxPlus: lambda sr: _float64("max-plus-f64", _np.maximum, _np.add),
    MinMax: lambda sr: _float64("min-max-f64", _np.minimum, _np.maximum),
}


#: One sweep's value array stays under this many bytes: a batch wider
#: than that runs as several sweeps over column blocks
#: (:func:`sweep_width`; the pure-Python evaluator counts its cells at
#: a pointer each, :func:`block_columns`), so no query allocates
#: ``gates x columns`` at once.
DENSE_BYTES = 64 * 2 ** 20

#: A dense ``add``/``mul`` group of at least this many ``gates x
#: columns`` cells *per operand* is folded operand by operand into its
#: slice (:func:`_fold_into`) instead of reduced over a stacked gather:
#: the fold never materializes the ``(g, f, N)`` copy but makes one
#: NumPy call per operand, which a small group does not earn back.
#: Measured crossover (int64 ``add``, random operand ranks, g 1-512 x
#: N 1-4 096, 2-vCPU host): the fold stops losing by more than 5 % at
#: 2 048 cells for fan-in 2 and at 8 192 for fan-in 3-4, and takes
#: 0.4-0.7x the reduce's time well above that; on the TRIANGLE plan this rule
#: picks the faster path for every group at 256 and 4 096 columns.
FOLD_CELLS = 1024


#: The cost rule's dense and delta prices (:func:`pass_costs`), in units
#: of one dense cell — one gate under one valuation.  A dense sweep
#: costs ``live gates x columns``; a delta pass a fixed
#: ``DELTA_PASS_CELLS`` (its cone expansion and per-group NumPy calls)
#: plus ``DELTA_CELL_COST`` per rank in the upward cones of the
#: overridden slots.  Fitted (least summed relative regret) on DEGREE
#: over 12x12 to 32x32 grids at 1 to 1 024 columns, ``N`` and
#: min-plus, 2-vCPU host (README, "Grouped aggregation"): a delta pass
#: takes 65-80 us + 0.09 us per cone rank, a dense sweep 1.2 ns per
#: cell past a fixed 40-240 us the linear rule folds into both
#: constants; the TRIANGLE what-if batch stays dense.
DELTA_PASS_CELLS = 6_000
DELTA_CELL_COST = 150


@dataclass(frozen=True)
class PreparedBase:
    """A precomputed base input column for override batches: the input
    gates' base values as one ``(slots, 1)`` array (slot ``i`` is rank
    ``i`` of the schedule's vector plan), the key->slot map (static,
    shared with the schedule), and the kernel whose dtype the column is
    in (a guarded kernel's base build falls back to its object kernel
    when a base value does not fit the native dtype).

    ``_swept`` memoizes the base valuation swept through the whole
    circuit as one column — what the delta pass patches per batch
    column — ``_magnitude`` the column's largest absolute value —
    half of every batch's certificate — and ``_profile`` its
    :meth:`profile`.  All belong to this column: :meth:`patched` starts
    the new base without them, so a write costs the next batch one
    single-column sweep and one scan and can never serve stale ones."""

    column: Any
    slot_of: Dict[Any, int]
    kernel: ArrayKernel
    _swept: List["VectorizedEvaluator"] = field(
        default_factory=list, repr=False, compare=False)
    _magnitude: List[Any] = field(
        default_factory=list, repr=False, compare=False)
    _profile: List[Any] = field(
        default_factory=list, repr=False, compare=False)

    def profile(self) -> Tuple[bool, float, FrozenSet[float]]:
        """A float column's ``(integral, magnitude, infinities)``: are
        its finite values all integers, their largest absolute value (at
        least 1), its non-finite values; memoized like :meth:`magnitude`."""
        memo = self._profile
        if not memo:
            column = self.column[:, 0]
            finite = _np.isfinite(column)
            values = column[finite]
            memo.append((bool(_np.array_equal(values, _np.trunc(values))),
                         max(float(_np.abs(values).max(initial=0)), 1.0),
                         frozenset(column[~finite].tolist())))
        return memo[0]

    def magnitude(self) -> Any:
        """The column's largest absolute value, memoized (infinite for
        a column demoted to the object kernel: never certified)."""
        memo = self._magnitude
        if not memo:
            memo.append(_abs_max(self.column))
        return memo[0]

    def patched(self, key: Any, value: Any) -> Optional["PreparedBase"]:
        """This base with ``key``'s slot set to ``value``: a fresh column
        (one C-level copy — batches in flight keep reading the old
        array) sharing the static tables.  ``None`` when the value does
        not fit the column's dtype: the caller drops the column and the
        next :meth:`VectorizedEvaluator.prepare_base` demotes it."""
        slot = self.slot_of.get(key)
        if slot is None:
            return self
        cast_in = self.kernel.cast_in
        column = self.column.copy()
        try:
            column[slot, 0] = value if cast_in is None else cast_in(value)
        except (OverflowError, GuardTrip):
            return None
        return replace(self, column=column, _swept=[], _magnitude=[],
                       _profile=[])


def _cast(kernel: ArrayKernel, values: Sequence[Any]) -> Any:
    """``values`` as a 1-d array of ``kernel``'s dtype; raises
    ``OverflowError``/:class:`GuardTrip` when one does not fit.  An
    object array is filled element by element, so a tuple carrier value
    stays one scalar."""
    if kernel.cast_in is not None:
        values = [kernel.cast_in(value) for value in values]
    if kernel.dtype == object:
        return _np.fromiter(values, dtype=object, count=len(values))
    return _np.array(values, dtype=kernel.dtype)


def _abs_max(array: Any) -> Any:
    """The largest absolute value in a native ``array`` (0 when empty)
    as a Python number — negated after leaving int64, where
    ``INT64_MIN`` has no negation.  Infinite for ``None`` (values that
    did not cast) and for an object array: no bound admits them."""
    if array is None or array.dtype == object:
        return _math.inf
    if not array.size:
        return 0
    return max(-array.min().item(), array.max().item())


#: ``mapping -> mapping.values()`` for any :class:`Mapping` (a batch of
#: plain dicts takes the faster ``dict.values``).
_VALUES = methodcaller("values")


@dataclass(frozen=True)
class Scatter:
    """An override batch as coordinates, built once per batch with
    C-level iteration: edit ``i`` writes ``values[i]`` at input slot
    ``slots[i]`` of batch column ``cols[i]`` (``cols`` ascending), over
    ``width`` columns; a ``shared`` scatter's one value serves every
    edit.  Keys that name no live input make no edit."""

    slots: Any
    cols: Any
    values: Sequence[Any]
    width: int
    shared: bool = False

    @classmethod
    def of_overrides(cls, slot_of: Mapping[Any, int],
                     overrides: Sequence[Mapping[Any, Any]]) -> "Scatter":
        """One override mapping per batch column."""
        slots, cols, live = _coordinates(slot_of, overrides)
        try:
            values = list(chain.from_iterable(map(dict.values, overrides)))
        except TypeError:  # a Mapping that is not a dict
            values = list(chain.from_iterable(map(_VALUES, overrides)))
        if live is not None:
            values = list(compress(values, live.tolist()))
        return cls(slots, cols, values, len(overrides))

    @classmethod
    def of_elements(cls, tables: Sequence[Mapping[Any, int]],
                    rows: Sequence[Sequence[Any]], value: Any
                    ) -> "Scatter":
        """Batch column ``i`` overrides, at every position ``p``, the
        slot ``tables[p]`` maps ``rows[i][p]`` to — all to the same
        ``value``: one dict lookup per element, no composite key.  An
        element its table lacks makes no edit."""
        width = len(rows)
        arity = len(rows[0]) if width else 0
        slots = _np.empty((width, arity), dtype=_np.int64)
        for position, elements in enumerate(zip(*rows)):
            slots[:, position] = _np.fromiter(
                map(tables[position].get, elements, repeat(-1)),
                dtype=_np.int64, count=width)
        slots = slots.reshape(-1)
        cols = _np.repeat(_np.arange(width, dtype=_np.int64), arity)
        if slots.min(initial=0) < 0:
            live = slots >= 0
            slots, cols = slots[live], cols[live]
        return cls(slots, cols, [value], width, shared=True)

    def block(self, start: int, stop: int) -> "Scatter":
        """Batch columns ``start:stop`` as a batch of their own."""
        stop = min(stop, self.width)
        if start == 0 and stop == self.width:
            return self
        lo, hi = _np.searchsorted(self.cols, (start, stop))
        return Scatter(self.slots[lo:hi], self.cols[lo:hi] - start,
                       self.values if self.shared else self.values[lo:hi],
                       stop - start, self.shared)


def _coordinates(slot_of: Mapping[Any, int],
                 key_columns: Sequence[Any]) -> Tuple[Any, Any, Any]:
    """``(slots, cols, live)`` for every key of every column that names
    a live input, column by column; ``live`` masks the kept keys among
    all of them (``None`` when every key was kept)."""
    lengths = list(map(len, key_columns))
    slots = _np.fromiter(
        map(slot_of.get, chain.from_iterable(key_columns), repeat(-1)),
        dtype=_np.int64, count=sum(lengths))
    cols = _np.repeat(_np.arange(len(key_columns), dtype=_np.int64), lengths)
    if slots.min(initial=0) >= 0:
        return slots, cols, None
    live = slots >= 0
    return slots[live], cols[live], live


class VectorizedEvaluator:
    """Evaluate one circuit over N valuations.

    Mirrors :class:`~repro.circuits.evaluation.BatchedEvaluator`'s
    interface (``results`` / ``value`` / ``values_of``).  Construct with
    N valuation callables (or override mappings over ``base``, as
    there) — one *dense* sweep, a ``(ranks, N)`` value array filled
    level by level — or, when the batch is a set of sparse edits of one
    base valuation and nothing else, via :meth:`from_overrides` /
    :meth:`from_scatter`.  Those choose (:func:`pass_costs`) between
    the dense sweep over the broadcast base column and the *delta*
    pass: sweep the base valuation once as a single column (memoized on
    the :class:`PreparedBase`), then recompute only the ``(rank,
    column)`` pairs in the upward cones of the edited inputs, found in
    one cone expansion and computed group by group.  Both — and
    :class:`~repro.circuits.adjoint.AdjointEvaluator` — run the kernel
    the same certificate settles and answer through the same accessors.

    After construction, ``kernel_requested`` / ``kernel_used`` name the
    kernel asked for and the one that actually produced the results,
    ``certified`` says whether the evaluation was proved to stay inside
    its guarded kernel's window and ran natively (module docstring),
    ``fallbacks`` is 1 when it asked for a guarded kernel and ran on the
    exact object kernel instead, ``pass_used`` names the pass and
    ``cells`` counts the values computed (live gates x columns, or the
    unique edits and the dirty cone pairs above them, plus the base
    sweep's ranks when this evaluation had to run it).
    """

    def __init__(self, circuit: Circuit, sr: Semiring,
                 valuations: Sequence[Any],
                 schedule: Optional[LayerSchedule] = None,
                 kernel: Optional[ArrayKernel] = None,
                 base: Optional[Mapping[Any, Any]] = None):
        self._prepare(circuit, sr, len(valuations), schedule, kernel)
        values = [value for _, key in self.schedule.input_gates
                  for value in input_row(key, valuations, base, sr.zero)]
        self._input_rows()[:] = self._settle(values).reshape(
            self.plan.inputs, self.batch_size)
        self._run_dense()

    @classmethod
    def prepare_base(cls, circuit: Circuit, sr: Semiring,
                     base: Mapping[Any, Any],
                     schedule: Optional[LayerSchedule] = None,
                     kernel: Optional[ArrayKernel] = None) -> "PreparedBase":
        """Precompute the base input column for :meth:`from_overrides`.

        Serving workloads evaluate thousands of override batches against
        one slowly-changing base valuation; rebuilding the column (a walk
        over every input gate) per batch is pure overhead.  The returned
        :class:`PreparedBase` is immutable — build a new one when the
        base valuation changes, or patch one slot with
        :meth:`PreparedBase.patched` (``CompiledQuery`` memoizes one per
        kernel and patches it on every write).  A base value that does not
        fit a guarded kernel's native dtype drops the whole column to
        the kernel's exact fallback (the column's ``kernel``)."""
        if schedule is None:
            schedule = build_schedule(circuit)
        if kernel is None:
            kernel = kernel_for(sr)
        raw = [base.get(key, sr.zero) for _, key in schedule.input_gates]
        try:
            column = _cast(kernel, raw)
        except (OverflowError, GuardTrip):
            if kernel.fallback is None:
                raise
            kernel = kernel.fallback
            column = _cast(kernel, raw)
        return PreparedBase(column=column.reshape(-1, 1),
                            slot_of=schedule.slot_of(), kernel=kernel)

    @classmethod
    def from_overrides(cls, circuit: Circuit, sr: Semiring,
                       base: "Mapping[Any, Any] | PreparedBase",
                       overrides: Sequence[Mapping[Any, Any]],
                       schedule: Optional[LayerSchedule] = None,
                       kernel: Optional[ArrayKernel] = None
                       ) -> "VectorizedEvaluator":
        """Batch = ``base`` valuation + one sparse override mapping per
        batch element (unknown override keys are ignored, matching the
        mapping semantics of ``CompiledQuery.evaluate_batch``).  ``base``
        is either a plain mapping or a :class:`PreparedBase` from
        :meth:`prepare_base` (the amortized form)."""
        if schedule is None:
            schedule = build_schedule(circuit)
        return cls.from_scatter(
            circuit, sr, base, Scatter.of_overrides(schedule.slot_of(),
                                                    overrides),
            schedule, kernel)

    @classmethod
    def from_scatter(cls, circuit: Circuit, sr: Semiring,
                     base: "Mapping[Any, Any] | PreparedBase",
                     scatter: Scatter,
                     schedule: Optional[LayerSchedule] = None,
                     kernel: Optional[ArrayKernel] = None
                     ) -> "VectorizedEvaluator":
        """Batch = ``base`` + an override batch already scattered over
        the schedule's input slots.  ``CompiledQuery`` scatters a batch
        once and hands the same coordinates to the cost rule
        (:func:`sweep_width`) and to every column block
        (:meth:`Scatter.block`)."""
        self = cls.__new__(cls)
        self._prepare(circuit, sr, scatter.width, schedule, kernel)
        self._run_overrides(self._prepared(base), scatter)
        return self

    # -- internals -------------------------------------------------------------

    def _prepare(self, circuit: Circuit, sr: Semiring, batch_size: int,
                 schedule: Optional[LayerSchedule],
                 kernel: Optional[ArrayKernel]) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError("VectorizedEvaluator requires numpy; install "
                               "the 'numpy' extra or use BatchedEvaluator")
        if kernel is None:
            kernel = kernel_for(sr)
        self.circuit = circuit
        self.sr = sr
        self.kernel = kernel
        self.kernel_requested = kernel.name
        self.kernel_used = kernel.name
        self.fallbacks = 0
        self.pass_used = "dense"
        self.cells = 0
        self.certified = False
        self.batch_size = batch_size
        self.schedule = schedule if schedule is not None \
            else build_schedule(circuit)
        self.plan = vector_plan(self.schedule)
        #: dense pass: the ``(ranks, N)`` value array.
        self._values: Any = None
        #: delta pass: the base sweep's column and the dirty pairs as
        #: sorted ``rank * N + column`` codes with their values.
        self._base: Any = None
        self._dirty_codes: Any = None
        self._dirty_values: Any = None

    def _prepared(self, base: "Mapping[Any, Any] | PreparedBase"
                  ) -> PreparedBase:
        if isinstance(base, PreparedBase):
            return base
        return self.prepare_base(self.circuit, self.sr, base,
                                 schedule=self.schedule, kernel=self.kernel)

    def _certify(self, *magnitudes: Callable[[], Any],
                 bound_of: Callable[..., Any] = input_bound) -> bool:
        """Settle, before anything runs, which kernel this evaluation
        takes; True when it is the kernel asked for.  A kernel without a
        window needs no certificate.  A guarded one is kept only when
        the evaluation is *certified*: the plan has an input bound M*
        for the window (``bound_of``) and every ``magnitude()`` — the
        largest absolute value among some of its inputs, cast to the
        native dtype — is within it.  Any other runs on the exact
        fallback from the start (one of ``fallbacks``)."""
        kernel = self.kernel
        if kernel.window is None:
            return True
        bound = bound_of(self.plan, kernel.window)
        self.certified = bound is not None and all(
            magnitude() <= bound for magnitude in magnitudes)
        if not self.certified:
            self.fallbacks += 1
            self.kernel = kernel.fallback
            self.kernel_used = self.kernel.name
        return self.certified

    def _settle(self, values: Sequence[Any],
                *magnitudes: Callable[[], Any]) -> Any:
        """``values`` as an array of the kernel :meth:`_certify` settles
        for them and the other inputs' ``magnitudes``: native when they
        all cast and stay within M*, exact otherwise."""
        try:
            native = _cast(self.kernel, values)
        except (OverflowError, GuardTrip):
            native = None
        if self._certify(*magnitudes, partial(_abs_max, native)) \
                and native is not None:
            return native
        # On the exact fallback now — or, for a kernel without one,
        # raising the cast's error again.
        return _cast(self.kernel, values)

    def _carried(self, kernel: ArrayKernel, array: Any) -> Any:
        """``array``, in ``kernel``'s dtype, in this evaluation's
        kernel: as it is, or in the exact object carrier when this
        evaluation fell back."""
        if array.dtype == self.kernel.dtype:
            return array
        if kernel.cast_out is None:
            return array.astype(object)
        return _np.frompyfunc(kernel.cast_out, 1, 1)(array)

    def _run_overrides(self, base: PreparedBase, scatter: Scatter) -> None:
        """``base`` with the ``scatter``'s edits written in, through the
        pass the cost rule picks, on the kernel they certify."""
        slots, cols = scatter.slots, scatter.cols
        edits = self._settle(scatter.values if slots.size else (),
                             base.magnitude)
        if edits.size != slots.size:
            edits = _np.repeat(edits, slots.size)
        dense, delta = pass_costs(self.plan, slots, self.batch_size)
        if delta < dense:
            self._run_delta(base, slots, cols, edits)
            return
        rows = self._input_rows()
        rows[:] = self._carried(base.kernel, base.column)
        # The input rows lead the C-ordered value array: one flat index.
        rows.reshape(-1)[slots * self.batch_size + cols] = edits
        self._run_dense()

    # -- the dense pass ----------------------------------------------------------

    def _write_consts(self) -> None:
        for rank, raw in self.plan.consts:
            self._values[rank] = _cast(self.kernel, [self.sr.coerce(raw)])

    def _input_rows(self) -> Any:
        """Allocate the dense ``(ranks, N)`` value array on the current
        kernel and return its input rows (ranks ``0 .. inputs-1``, a
        view) for the caller to fill before :meth:`_run_dense`."""
        self._values = _np.empty((self.plan.size, self.batch_size),
                                 dtype=self.kernel.dtype)
        return self._values[:self.plan.inputs]

    def _run_dense(self) -> None:
        """Sweep every rank under every valuation, level by level; each
        group reduces into one contiguous slice of ranks."""
        plan = self.plan
        self.pass_used = "dense"
        self.cells += plan.live * self.batch_size
        self._write_consts()
        for groups in plan.levels:
            for group in groups:
                if group.kind == KIND_PERM:
                    for rank, entries in enumerate(group.entries,
                                                   group.start):
                        self._eval_perm(rank, entries)
                    continue
                reduce_ = self.kernel.add_reduce if group.kind == KIND_ADD \
                    else self.kernel.mul_reduce
                # A ufunc's own ``reduce`` (every shipped kernel): fold its
                # binary form in place instead, once the group is wide
                # enough to pay its one call per operand.
                ufunc = getattr(reduce_, "__self__", None)
                fan_in = group.children.shape[1]
                if isinstance(ufunc, _np.ufunc) and fan_in > 1 \
                        and (group.stop - group.start) \
                        * self.batch_size >= FOLD_CELLS * fan_in:
                    _fold_into(ufunc, self._values, group)
                    continue
                self._values[group.start:group.stop] = reduce_(
                    self._values[group.children], axis=1)

    def _permanents(self, entries: Sequence[Sequence[Optional[int]]],
                    operand_row: Callable[[int], Any], count: int
                    ) -> List[Any]:
        """``count`` exact permanents of one gate: ``operand_row(rank)``
        is the operand's ``count`` native values.  On a guarded kernel
        they are cast back to exact carrier values first: the plan's
        bound covers the permanent itself, not the partial sums of
        products it forms on the way."""
        sr = self.sr
        exact: Dict[Optional[int], List[Any]] = {None: [sr.zero] * count}
        for row in entries:
            for entry in row:
                if entry not in exact:
                    exact[entry] = self._cast_row(operand_row(entry).tolist())
        return [permanent([[exact[entry][i] for entry in row]
                           for row in entries], sr)
                for i in range(count)]

    def _eval_perm(self, rank: int,
                   entries: Sequence[Sequence[Optional[int]]]) -> None:
        """Permanent gates: exact per-gate evaluation (no rectangular
        reduction exists), operands read from the value array."""
        self._values[rank] = _cast(self.kernel, self._permanents(
            entries, self._values.__getitem__, self.batch_size))

    # -- the delta pass ----------------------------------------------------------

    def _base_sweep(self, base: PreparedBase) -> "VectorizedEvaluator":
        """``base`` swept as one dense column on the column's kernel,
        certified like any evaluation — memoized on the
        :class:`PreparedBase` (a racing double build computes the same
        sweep twice and keeps either)."""
        memo = base._swept
        if not memo:
            swept = VectorizedEvaluator.__new__(VectorizedEvaluator)
            swept._prepare(self.circuit, self.sr, 1, self.schedule,
                           base.kernel)
            swept._certify(base.magnitude)
            swept._input_rows()[:] = swept._carried(base.kernel, base.column)
            swept._run_dense()
            memo.append(swept)
            self.cells += self.plan.size
        return memo[0]

    def _run_delta(self, base: PreparedBase, slots: Any, cols: Any,
                   edits: Any) -> None:
        """Cone-restricted evaluation: only ``(rank, column)`` pairs
        above an overridden input are computed, everything else is the
        base sweep's value, carried into this evaluation's kernel."""
        self.pass_used = "delta"
        swept = self._base_sweep(base)
        self._delta(self._carried(swept.kernel, swept._values[:, 0]),
                    slots, cols, edits)

    def _delta(self, base: Any, slots: Any, cols: Any, edits: Any) -> None:
        """One cone expansion: the edits that differ from the base, then
        every pair in the cones above them, each recomputed once, group
        by group in rank order, from the base column with its dirty
        operands scattered in."""
        plan, width = self.plan, self.batch_size
        # The edited inputs (slot == rank), each pair once, and only
        # those that really differ from the base.
        codes = slots * width + cols
        order = _np.argsort(codes)
        codes = codes[order]
        first = first_of_runs(codes)
        codes, values = codes[first], edits[order[first]]
        self.cells += codes.size
        changed = values != base[codes // width]
        codes, values = codes[changed], values[changed]
        # Every pair above them: each edit's cone past its slot, under
        # the edit's column, each pair once.
        edited, cols = _np.divmod(codes, width)
        cone, source = csr_span(plan.cone_ptr[edited] + 1,
                                plan.cone_ptr[edited + 1])
        above = sorted_unique(plan.cone_rank[cone] * width + cols[source])
        self.cells += above.size
        # Input ranks precede every gate's: ``dirty`` stays sorted.
        dirty = _np.concatenate((codes, above))
        values = _np.concatenate((values, _np.empty(above.size,
                                                    dtype=base.dtype)))
        # Every dirty operand position, ordered by the pair it feeds
        # (``rows`` indexes ``above``: a cone holds its ranks' parents).
        parents, at, source = expand_parents(plan, dirty, width)
        order = _np.argsort(parents)
        rows = above.searchsorted(parents[order])
        at, source = at[order], source[order]
        groups = [group for level in plan.levels for group in level]
        stops = above.searchsorted([group.stop * width for group in groups])
        ranks = above // width
        lo = low = 0
        for group, hi, high in zip(groups, stops.tolist(),
                                   rows.searchsorted(stops).tolist()):
            if lo < hi:
                values[codes.size + lo:codes.size + hi] = self._delta_group(
                    group, ranks[lo:hi], base, rows[low:high] - lo,
                    at[low:high], values[source[low:high]])
            lo, low = hi, high
        self._base = base
        self._dirty_codes, self._dirty_values = dirty, values

    def _delta_group(self, group: PlanGroup, ranks: Any, base: Any,
                     rows: Any, slots: Any, operands: Any) -> Any:
        """The values of one group's dirty pairs (``ranks[i]`` under its
        column): operands gathered from the base, then dirty operand
        ``operands[j]`` written at slot ``slots[j]`` of pair
        ``rows[j]``."""
        if group.kind == KIND_PERM:
            results: List[Any] = []
            starts = _np.flatnonzero(_np.diff(ranks, prepend=-1)).tolist()
            for lo, hi in zip(starts, starts[1:] + [ranks.size]):
                entries = group.entries[ranks[lo] - group.start]
                flat = [entry for row in entries for entry in row]
                # None entries read rank 0 here; _permanents skips them.
                stacked = _np.empty((hi - lo, len(flat)), dtype=base.dtype)
                stacked[:] = base[[entry or 0 for entry in flat]]
                mine = (rows >= lo) & (rows < hi)
                stacked[rows[mine] - lo, slots[mine]] = operands[mine]
                column_of = {entry: stacked[:, slot]
                             for slot, entry in enumerate(flat)}
                results.extend(self._permanents(
                    entries, column_of.__getitem__, hi - lo))
            return _cast(self.kernel, results)
        stacked = base[group.children[ranks - group.start]]
        stacked[rows, slots] = operands
        reduce_ = self.kernel.add_reduce if group.kind == KIND_ADD \
            else self.kernel.mul_reduce
        return reduce_(stacked, axis=1)

    # -- results ----------------------------------------------------------------

    def _row(self, rank: int) -> Any:
        """One rank's native values across the batch (the delta pass
        densifies the row on demand)."""
        if self._values is not None:
            return self._values[rank]
        width = self.batch_size
        row = _np.repeat(self._base[[rank]], width)
        lo, hi = _np.searchsorted(self._dirty_codes,
                                  (rank * width, (rank + 1) * width))
        row[self._dirty_codes[lo:hi] - rank * width] = \
            self._dirty_values[lo:hi]
        return row

    @property
    def rows(self) -> Optional[int]:
        """Rows of the dense ``(ranks, N)`` value array this evaluation
        held (virtual partial-sum ranks included); ``None`` after a
        delta or adjoint pass, whose size is its ``cells``."""
        return None if self._values is None else self._values.shape[0]

    def _cast_row(self, row: List[Any]) -> List[Any]:
        cast_out = self.kernel.cast_out
        return row if cast_out is None else [cast_out(v) for v in row]

    def value(self, index: int) -> Any:
        """The output value under valuation ``index`` (converted alone —
        not via a whole-row cast; use :meth:`results` for all of them)."""
        value = self._row(self.plan.output)[index]
        if isinstance(value, _np.generic):
            value = value.item()
        cast_out = self.kernel.cast_out
        return value if cast_out is None else cast_out(value)

    def results(self) -> List[Any]:
        """Output values for the whole batch, in valuation order."""
        return self._cast_row(self._row(self.plan.output).tolist())

    def values_of(self, gate_id: GateId) -> List[Any]:
        """The per-valuation values of an arbitrary live gate."""
        rank = self.plan.rank_of.get(gate_id)
        if rank is None:
            raise KeyError(f"gate {gate_id} is not live in this circuit")
        return self._cast_row(self._row(rank).tolist())


def _fold_into(ufunc: Any, values: Any, group: PlanGroup) -> None:
    """``ufunc`` folded over ``group``'s operands straight into its
    slice of ranks — the left-to-right order of
    ``ufunc.reduce(values[children], axis=1)``, so float results are
    bit-identical — without materializing the ``(g, fan_in, N)``
    gather: the first operand is taken straight into the slice, each
    later one is one ``(g, N)`` gather."""
    children = group.children
    out = values[group.start:group.stop]
    # Every operand rank precedes its group, so ``below`` and ``out``
    # are disjoint and ``take`` writes ``out`` without a buffer (which
    # ``mode="raise"`` would force; the ranks are in range anyway).
    below = values[:group.start]
    _np.take(below, children[:, 0], axis=0, out=out, mode="clip")
    for column in children.T[1:]:
        ufunc(out, below[column], out=out)


def block_columns(rows: int, itemsize: int = 8) -> int:
    """How many batch columns of ``rows`` cells keep one sweep's value
    array within :data:`DENSE_BYTES` (at least one)."""
    return max(1, DENSE_BYTES // (rows * itemsize))


def sweep_width(schedule: LayerSchedule, kernel: ArrayKernel,
                scatter: Optional[Scatter] = None) -> int:
    """How many batch columns one vectorized evaluator takes: as many as
    :func:`block_columns` allows its dense ``(ranks, N)`` array — or all
    of a wider override batch (its ``scatter``) when the cost rule sends
    it to the delta pass, which allocates per dirty pair, not per
    cell."""
    plan = vector_plan(schedule)
    fits = block_columns(plan.size, _np.dtype(kernel.dtype).itemsize)
    if scatter is None or scatter.width <= fits:
        return fits
    dense, delta = pass_costs(plan, scatter.slots, scatter.width)
    return scatter.width if delta < dense else fits


def pass_costs(plan: VectorPlan, slots: Any, width: int) -> Tuple[int, int]:
    """The cost rule's ``(dense, delta)`` prices of ``width`` columns
    overriding input ``slots`` (one entry per edit)."""
    cones = int(plan.cone_sizes[slots].sum()) if len(slots) else 0
    return plan.live * width, DELTA_PASS_CELLS + DELTA_CELL_COST * cones
