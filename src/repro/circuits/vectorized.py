"""Vectorized batched evaluation over a layer schedule (NumPy backend).

:class:`VectorizedEvaluator` evaluates one circuit over an N-valuation
batch level by level, over the schedule's rank tables
(:mod:`repro.circuits.vector_plan`).  Two passes share the kernels, the
guard rules and the result accessors:

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
  recomputed, as sorted coordinate arrays (``(pairs, f)`` gathers from
  the base column with the dirty operands scattered in).  Which of the
  two runs is decided per batch by a cost rule over static cone sizes
  (:func:`_delta_pays`) — callers never choose.

A semiring participates through an :class:`ArrayKernel` — a dtype plus
the two fan-in reductions.  Kernels ship for the numeric carriers and
the tropical carriers (min-plus, max-plus, min-max on ``float64``);
semirings without an array carrier (boolean, provenance, finite tables,
products) report no kernel and callers fall back to the pure-Python
:class:`~repro.circuits.evaluation.BatchedEvaluator`.

The exact carriers (``N``/``Z``/``Q``) default to *overflow-guarded
native fast paths* instead of the historically object-dtype kernels:

* ``N``/``Z`` evaluate on ``int64`` arrays.  Every fan-in reduction
  steps through checked binary ops — the two's-complement sign trick
  for additions, a division-based product check (with a magnitude
  pre-filter so the in-range hot path pays no division) for
  multiplications — so a wrapped result can never go unnoticed.  No
  ``np.errstate`` machinery is involved: NumPy integer arrays wrap
  silently and the guards are explicit bound checks.
* ``Q`` evaluates on ``float64`` when every input is an integer-valued
  rational inside the exact-float window (|v| < 2^53) — the
  small-denominator detection — guarding each reduction step against
  leaving that window, where float arithmetic on integers is provably
  exact.

Any guard trip *promotes* the evaluation: the value array is converted
to the exact object carrier, the affected group is re-reduced on the
object kernel (its children are still exact — trips are detected before
a wrapped value is consumed), and the remaining layers run on the
object kernel (the delta pass, whose state is a handful of small
arrays, simply restarts on the object kernel over the promoted base
column).  Results are therefore always exact; the fast path only
ever costs a retry, never a wrong answer.

Most override batches need no guard at all, and are proved so once per
batch instead of once per group.  The vector plan bounds the value of
every rank by ``mass * max(1, M) ** degree``, where ``M`` is the largest
input magnitude and mass and degree are static
(:func:`~repro.circuits.vector_plan.input_bound`); the bound of a
reduction also bounds every partial sum and partial product it forms,
in any order.  A guarded kernel names the window its carrier is exact
in (``ArrayKernel.window``: ``2^63 - 1`` for int64, ``2^53 - 1`` for
the float64 integer path), and the plan turns it into M*, the largest
input magnitude whose every consequence stays inside it.  An override
batch is *certified* when its base column (magnitude memoized on the
:class:`PreparedBase`) and its edits are both within M*: then no value
the evaluation forms can leave the window, so no guard of the checked
reductions could trip, and the batch runs NumPy's plain reductions in
the dense and the delta pass alike.  Every other batch runs the
checked reductions.  The rule is a pure function of the plan and the
batch; results, ``kernel_used`` and ``fallbacks`` are what the checked
run would report, only the checks are gone (``certified`` on the
evaluator, a running count in ``CompiledQuery.kernel_stats()``).

``exact_mode`` (validated in
:mod:`repro.circuits.backends`) selects the kernel: ``"auto"``/
``"int64"`` pick the guarded fast path, ``"object"`` forces the exact
object-dtype kernel.  Evaluators report ``kernel_requested`` /
``kernel_used`` / ``fallbacks`` so callers (``CompiledQuery.stats()``,
``PreparedQuery.explain()``) can say which kernel actually ran.

Note the tropical kernels realize the carrier ``R u {inf}`` as
``float64``: weights outside the 2^53 exact-integer window (or exact
``Fraction`` weights) are rounded, where the pure-Python backend would
keep Python's unbounded arithmetic.  Pass ``backend="python"`` (or
:func:`register_kernel` an object-dtype kernel) when tropical weights
need exactness beyond ``float64``.  Permanent gates
have no rectangular reduction and are evaluated per gate with the exact
semiring permanent, reading operands out of (and writing back into) the
value array.

NumPy itself is optional: this module imports without it and
:data:`HAVE_NUMPY` / :func:`kernel_for` let callers pick a backend.
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import methodcaller
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Type)

from ..algebra import permanent
from ..semirings import (FloatField, IntegerRing, MaxPlus, MinMax, MinPlus,
                         NaturalSemiring, RationalField, Semiring)
from .backends import validate_exact_mode
from .evaluation import input_row
from .gates import Circuit, GateId
from .schedule import KIND_ADD, KIND_PERM, LayerSchedule, build_schedule
from .vector_plan import (PlanGroup, VectorPlan, expand_parents, input_bound,
                          int_nth_root, vector_plan)

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when NumPy importing succeeded and the backend is usable.
HAVE_NUMPY = _np is not None


class GuardTrip(Exception):
    """Internal signal: a value cannot be represented on the fast path
    (caught by the evaluator, which promotes to the object kernel)."""


@dataclass(frozen=True)
class ArrayKernel:
    """How one semiring maps onto NumPy arrays.

    ``add_reduce``/``mul_reduce`` fold the semiring ``+``/``*`` over one
    axis of a stacked array (signature ``(array, axis) -> array``);
    ``dtype`` is the carrier dtype (``object`` keeps exact Python
    arithmetic, e.g. unbounded ints and :class:`~fractions.Fraction`).

    A *guarded* kernel (``checked=True``) is a native fast path whose
    reductions return ``(array, tripped)`` instead of a bare array and
    whose ``fallback`` is the exact kernel to promote to when a guard
    trips (or an input does not fit the native dtype):

    ``cast_in``
        Per-value conversion into the native dtype, raising
        :class:`GuardTrip` for unrepresentable values (``None`` when
        NumPy's own conversion errors — ``OverflowError`` for int64 —
        already police the dtype).
    ``cast_out``
        Per-value conversion of native results back into the carrier
        (``None`` when ``tolist()`` already yields carrier values).
    ``promote``
        Whole-array conversion into the ``fallback`` kernel's exact
        object representation, used mid-evaluation on a guard trip.
    ``window``
        The magnitude up to which the native carrier's ``+``/``*`` are
        exact integer arithmetic (``None``: no certificate applies).  A
        batch the plan's static bound keeps inside it runs the
        :meth:`plain` kernel (see the module docstring).
    """

    name: str
    dtype: Any
    add_reduce: Callable[[Any, int], Any]
    mul_reduce: Callable[[Any, int], Any]
    checked: bool = False
    fallback: Optional["ArrayKernel"] = None
    cast_in: Optional[Callable[[Any], Any]] = None
    cast_out: Optional[Callable[[Any], Any]] = None
    promote: Optional[Callable[[Any], Any]] = None
    window: Optional[int] = None

    def plain(self) -> "ArrayKernel":
        """This kernel with NumPy's plain reductions in place of the
        checked ones — what a certified batch runs (same name, dtype,
        casts and fallback)."""
        return replace(self, add_reduce=_np.add.reduce,
                       mul_reduce=_np.multiply.reduce, checked=False,
                       window=None)


#: Semiring type -> kernel factory (instance -> kernel or None).
_KERNEL_FACTORIES: Dict[Type[Semiring],
                        Callable[[Semiring], Optional[ArrayKernel]]] = {}


def register_kernel(semiring_type: Type[Semiring],
                    factory: Callable[[Semiring], Optional[ArrayKernel]]
                    ) -> None:
    """Register an array carrier for a semiring type (extension point)."""
    _KERNEL_FACTORIES[semiring_type] = factory


def kernel_for(sr: Semiring,
               exact_mode: str = "auto") -> Optional[ArrayKernel]:
    """The array kernel for ``sr``, or ``None`` (no array carrier or no
    NumPy) — the caller's cue to fall back to the pure-Python backend.

    ``exact_mode`` selects among a guarded kernel's variants:
    ``"auto"``/``"int64"`` return the guarded native fast path,
    ``"object"`` its exact object-dtype fallback.  Kernels without a
    guarded variant (floats, tropical, extensions) ignore the knob.
    """
    validate_exact_mode(exact_mode)
    if not HAVE_NUMPY:
        return None
    factory = _KERNEL_FACTORIES.get(type(sr))
    if factory is None:
        return None
    kernel = factory(sr)
    if kernel is not None and exact_mode == "object" \
            and kernel.fallback is not None:
        return kernel.fallback
    return kernel


# -- overflow-guarded reductions ------------------------------------------------

_INT64_MAX = 2 ** 63 - 1
_INT64_MIN = -(2 ** 63)
#: The exact-integer window of float64: integer arithmetic staying
#: strictly below this magnitude is provably exact.
_F64_EXACT = float(2 ** 53)


#: fan-in -> per-operand magnitude bound under which a whole group's
#: sum (resp. product) provably fits int64 — the one-pass prechecks.
_ADD_BOUNDS: Dict[int, int] = {}
_MUL_BOUNDS: Dict[int, int] = {}


def _within_int64(stacked, bound: int) -> bool:
    """Every element in ``[-bound, bound]`` — two allocation-free
    reduction passes (min/max, which unlike ``np.abs`` cannot be
    defeated by ``INT64_MIN`` wrapping)."""
    return stacked.size == 0 or \
        (int(stacked.min()) >= -bound and int(stacked.max()) <= bound)


def _checked_int64_add(stacked, axis: int):
    """int64 fan-in sum with overflow detection (no ``np.errstate``).

    Fast tier: one bounds pass — every operand within ``INT64_MAX //
    fan_in`` makes the whole reduction provably safe, and the plain C
    reduce runs.  Slow tier: step through the fan-in with the
    two's-complement sign trick (``a + b`` wrapped iff the result's
    sign differs from both operands': ``((a ^ c) & (b ^ c)) < 0``).
    Exact — no false positives, so e.g. a sum landing exactly on
    ``2^63 - 1`` stays on the fast path.
    """
    width = stacked.shape[axis]
    if width == 0:
        return _np.add.reduce(stacked, axis=axis), False
    bound = _ADD_BOUNDS.get(width)
    if bound is None:
        bound = _ADD_BOUNDS.setdefault(width, _INT64_MAX // width)
    if _within_int64(stacked, bound):
        return _np.add.reduce(stacked, axis=axis), False
    acc = stacked.take(0, axis=axis)
    for step in range(1, width):
        term = stacked.take(step, axis=axis)
        total = acc + term  # wraps silently on overflow
        if (((acc ^ total) & (term ^ total)) < 0).any():
            return acc, True
        acc = total
    return acc, False


def _checked_int64_mul(stacked, axis: int):
    """int64 fan-in product with overflow detection (no ``np.errstate``).

    Fast tier: one bounds pass — every operand within the fan_in-th
    root of ``INT64_MAX`` makes the product provably safe.  Slow tier:
    per-step exact division check (``c // b == a`` iff no wrap, since a
    wrap shifts the quotient by at least ``2^64 / |b| > 1``), with the
    one case whose division itself overflows (``INT64_MIN * -1``)
    masked explicitly.
    """
    width = stacked.shape[axis]
    if width == 0:
        return _np.multiply.reduce(stacked, axis=axis), False
    bound = _MUL_BOUNDS.get(width)
    if bound is None:
        bound = _MUL_BOUNDS.setdefault(width,
                                       int_nth_root(_INT64_MAX, width))
    if _within_int64(stacked, bound):
        return _np.multiply.reduce(stacked, axis=axis), False
    acc = stacked.take(0, axis=axis)
    for step in range(1, width):
        term = stacked.take(step, axis=axis)
        min_mul = ((acc == _INT64_MIN) & (term == -1)) \
            | ((term == _INT64_MIN) & (acc == -1))
        divisor = _np.where((term == 0) | min_mul, 1, term)
        product = acc * term  # wraps silently on overflow
        wrapped = ((term != 0) & (product // divisor != acc)) | min_mul
        if wrapped.any():
            return acc, True
        acc = product
    return acc, False


def _checked_f64int_add(stacked, axis: int):
    """Integer-valued float64 fan-in sum, guarded to the exact window.

    Every operand is an exact integer with |v| < 2^53 (the input cast
    enforces it).  Fast tier: all operands within ``2^53 / fan_in``
    keep every partial sum exact — plain C reduce.  Slow tier: step and
    trip the moment a partial sum leaves the window.
    """
    width = stacked.shape[axis]
    if width == 0:
        return _np.add.reduce(stacked, axis=axis), False
    bound = _F64_EXACT / width
    if stacked.size == 0 or \
            (-bound < stacked.min() and stacked.max() < bound):
        return _np.add.reduce(stacked, axis=axis), False
    acc = stacked.take(0, axis=axis)
    for step in range(1, width):
        acc = acc + stacked.take(step, axis=axis)
        if (_np.abs(acc) >= _F64_EXACT).any():
            return acc, True
    return acc, False


def _checked_f64int_mul(stacked, axis: int):
    """Integer-valued float64 fan-in product, guarded to the exact window."""
    width = stacked.shape[axis]
    if width == 0:
        return _np.multiply.reduce(stacked, axis=axis), False
    bound = float(int_nth_root(2 ** 53 - 1, width))
    if stacked.size == 0 or \
            (-bound <= stacked.min() and stacked.max() <= bound):
        return _np.multiply.reduce(stacked, axis=axis), False
    acc = stacked.take(0, axis=axis)
    for step in range(1, width):
        acc = acc * stacked.take(step, axis=axis)
        if (_np.abs(acc) >= _F64_EXACT).any():
            return acc, True
    return acc, False


def _q_cast_in(value: Any) -> float:
    """A ``Q`` carrier value as an exact float64, or :class:`GuardTrip`.

    The small-denominator detection: only integer-valued rationals
    inside the exact-float window ride the fast path (a denominator
    > 1 — or a blown-up one from e.g. PageRank weights — falls back to
    the exact object kernel before any precision is lost).
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


def _q_promote(value: float) -> Fraction:
    """Total over arbitrary float bit patterns: mid-run promotion walks
    the *whole* value array, whose not-yet-computed (and never-scheduled
    dead-gate) slots still hold ``np.empty`` heap garbage — possibly
    NaN/Inf, which ``int()`` rejects.  Those slots are always written
    before any read, so garbage maps to a placeholder, never an error."""
    if not _math.isfinite(value):
        return Fraction(0)
    return Fraction(int(value))


def _register_default_kernels() -> None:
    if not HAVE_NUMPY:  # pragma: no cover - numpy-less interpreter
        return

    def int64_kernel(sr: Semiring) -> ArrayKernel:
        exact = ArrayKernel(name=f"{sr.name}-object", dtype=object,
                            add_reduce=_np.add.reduce,
                            mul_reduce=_np.multiply.reduce)
        return ArrayKernel(
            name=f"{sr.name}-int64", dtype=_np.int64,
            add_reduce=_checked_int64_add, mul_reduce=_checked_int64_mul,
            checked=True, fallback=exact,
            promote=lambda array: array.astype(object), window=_INT64_MAX)

    for semiring_type in (NaturalSemiring, IntegerRing):
        register_kernel(semiring_type, int64_kernel)

    def rational_kernel(sr: Semiring) -> ArrayKernel:
        exact = ArrayKernel(name=f"{sr.name}-object", dtype=object,
                            add_reduce=_np.add.reduce,
                            mul_reduce=_np.multiply.reduce)
        return ArrayKernel(
            name=f"{sr.name}-f64int", dtype=_np.float64,
            add_reduce=_checked_f64int_add, mul_reduce=_checked_f64int_mul,
            checked=True, fallback=exact,
            cast_in=_q_cast_in, cast_out=_q_cast_out,
            promote=_np.frompyfunc(_q_promote, 1, 1), window=2 ** 53 - 1)

    register_kernel(RationalField, rational_kernel)
    register_kernel(FloatField, lambda sr: ArrayKernel(
        name="float64", dtype=_np.float64,
        add_reduce=_np.add.reduce, mul_reduce=_np.multiply.reduce))
    register_kernel(MinPlus, lambda sr: ArrayKernel(
        name="min-plus-f64", dtype=_np.float64,
        add_reduce=_np.minimum.reduce, mul_reduce=_np.add.reduce))
    register_kernel(MaxPlus, lambda sr: ArrayKernel(
        name="max-plus-f64", dtype=_np.float64,
        add_reduce=_np.maximum.reduce, mul_reduce=_np.add.reduce))
    register_kernel(MinMax, lambda sr: ArrayKernel(
        name="min-max-f64", dtype=_np.float64,
        add_reduce=_np.minimum.reduce, mul_reduce=_np.maximum.reduce))


_register_default_kernels()


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


#: The cost rule between the two override passes (:func:`_delta_pays`),
#: in units of one dense cell — one gate under one valuation.  A dense
#: sweep costs ``live gates x columns``; a delta pass costs a fixed
#: ``DELTA_PASS_CELLS`` (its per-level NumPy calls) plus
#: ``DELTA_CELL_COST`` per rank in the upward cones of the overridden
#: slots.  Fitted with DEGREE on 12x12 to 32x32 grids, 1 to 1 024
#: columns (README, "Grouped aggregation"), when a dense cell took
#: 5-10 ns and a delta pass 0.25 ms + 0.2-0.35 us per cone rank.  Since
#: the dense sweep folds wide groups in place a dense cell takes
#: 1.5-4 ns at 16 columns and up (2-vCPU host), so the rule now leans
#: towards the delta pass; the constants are kept.
DELTA_PASS_CELLS = 30_000
DELTA_CELL_COST = 40


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
    column — and ``_magnitude`` the column's largest absolute value —
    half of every batch's certificate.  Both belong to this column:
    :meth:`patched` starts the new base without them, so a write costs
    the next batch one single-column sweep and one min/max pass and can
    never serve stale base values or a stale certificate."""

    column: Any
    slot_of: Dict[Any, int]
    kernel: ArrayKernel
    _swept: List["VectorizedEvaluator"] = field(
        default_factory=list, repr=False, compare=False)
    _magnitude: List[Any] = field(
        default_factory=list, repr=False, compare=False)

    @property
    def kernel_name(self) -> str:
        return self.kernel.name

    def magnitude(self) -> Any:
        """The column's largest absolute value, memoized."""
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
        return replace(self, column=column, _swept=[], _magnitude=[])


def _abs_max(array: Any) -> Any:
    """The largest absolute value in ``array`` (0 when empty) as a
    Python number — negated after leaving int64, where ``INT64_MIN``
    has no negation."""
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
    def of_keys(cls, slot_of: Mapping[Any, int],
                key_columns: Sequence[Sequence[Any]],
                value: Any) -> "Scatter":
        """Batch column ``i`` overrides every key of ``key_columns[i]``
        to the same ``value``."""
        slots, cols, _ = _coordinates(slot_of, key_columns)
        return cls(slots, cols, [value], len(key_columns), shared=True)

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
    :meth:`from_uniform_overrides`.  Those choose between the dense
    sweep over the broadcast base column and the *delta* pass: sweep the
    base valuation once as a single column (memoized on the
    :class:`PreparedBase`), then recompute only the ``(rank, column)``
    pairs in the upward cones of the edited inputs, as sorted coordinate
    arrays.  The choice (:func:`_delta_pays`) is a pure function of the
    plan's static cone sizes, the overridden slots, the batch width and
    the live gate count; both passes run the same kernels under the same
    guard rules and answer through the same accessors.

    After construction, ``kernel_requested`` / ``kernel_used`` name the
    kernel asked for and the one that actually produced the results,
    ``fallbacks`` counts the guard trips that promoted (part of) the
    evaluation onto the exact object kernel, ``pass_used`` is
    ``"dense"`` or ``"delta"``, ``cells`` counts the values computed
    (live gates x columns, or dirty pairs plus the base sweep's ranks
    when this evaluation had to run it) and ``certified`` says whether
    an override batch was proved to stay inside its guarded kernel's
    window and ran unchecked (module docstring).
    """

    def __init__(self, circuit: Circuit, sr: Semiring,
                 valuations: Sequence[Any],
                 schedule: Optional[LayerSchedule] = None,
                 kernel: Optional[ArrayKernel] = None,
                 base: Optional[Mapping[Any, Any]] = None):
        self._prepare(circuit, sr, len(valuations), schedule, kernel)
        rows = [input_row(key, valuations, base, sr.zero)
                for _, key in self.schedule.input_gates]
        matrix = self._load_inputs(rows)
        self._input_rows()[:] = matrix
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
        the kernel's exact fallback (recorded in ``kernel_name``)."""
        if schedule is None:
            schedule = build_schedule(circuit)
        if kernel is None:
            kernel = kernel_for(sr)
            if kernel is None:
                raise ValueError(f"semiring {sr.name} has no array kernel")
        zero = sr.zero
        raw = [base.get(key, zero) for _, key in schedule.input_gates]
        while True:
            try:
                data = raw if kernel.cast_in is None \
                    else [kernel.cast_in(value) for value in raw]
                column = _np.array(data,
                                   dtype=kernel.dtype).reshape(-1, 1)
                break
            except (OverflowError, GuardTrip):
                if kernel.fallback is None:
                    raise
                kernel = kernel.fallback
        return PreparedBase(column=column, slot_of=schedule.slot_of(),
                            kernel=kernel)

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
    def from_uniform_overrides(cls, circuit: Circuit, sr: Semiring,
                               base: "Mapping[Any, Any] | PreparedBase",
                               key_columns: Sequence[Sequence[Any]],
                               value: Any,
                               schedule: Optional[LayerSchedule] = None,
                               kernel: Optional[ArrayKernel] = None
                               ) -> "VectorizedEvaluator":
        """Batch column ``i`` = ``base`` with every key of
        ``key_columns[i]`` overridden to the *same* carrier ``value``.

        This is the engine's selector scatter (each probe or group
        raises its selector inputs to ``sr.one``): all overrides share
        one value, so it is cast into the kernel's dtype once instead of
        per edit.
        Unknown keys are ignored, matching the override mapping
        semantics.
        """
        if schedule is None:
            schedule = build_schedule(circuit)
        return cls.from_scatter(
            circuit, sr, base, Scatter.of_keys(schedule.slot_of(),
                                               key_columns, value),
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
        if kernel is None:
            raise ValueError(f"semiring {sr.name} has no array kernel; use "
                             f"BatchedEvaluator (backend='python')")
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

    def _fall_back(self) -> ArrayKernel:
        """Switch to the exact fallback kernel (counted; callers fix up
        the value array — or rebuild their inputs — themselves)."""
        fallback = self.kernel.fallback
        if fallback is None:  # pragma: no cover - guarded kernels have one
            raise RuntimeError(
                f"kernel {self.kernel.name} tripped a guard but has no "
                f"fallback kernel")
        self.fallbacks += 1
        self.kernel = fallback
        self.kernel_used = fallback.name
        return fallback

    def _promoted(self, array: Any) -> Any:
        """Switch to the fallback kernel and return ``array`` in its
        exact object representation.  Values computed so far are exact
        (trips are detected before a wrapped result is consumed), so the
        promotion preserves them all."""
        promote = self.kernel.promote
        fallback = self._fall_back()
        if array.dtype == fallback.dtype:
            return array
        return promote(array) if promote is not None \
            else array.astype(fallback.dtype)

    def _native(self, values: Sequence[Any]) -> Any:
        """``values`` as an array of the kernel's dtype; raises
        ``OverflowError``/:class:`GuardTrip` when one does not fit."""
        cast_in = self.kernel.cast_in
        data = values if cast_in is None \
            else [cast_in(value) for value in values]
        return _np.array(data, dtype=self.kernel.dtype)

    def _run_overrides(self, base: PreparedBase, scatter: Scatter) -> None:
        """``base`` with the ``scatter``'s edits written in, through
        whichever pass the cost rule picks."""
        slots, cols = scatter.slots, scatter.cols

        def native() -> Any:
            array = self._native(scatter.values if slots.size else ())
            return array if array.size == slots.size \
                else _np.repeat(array, slots.size)

        if _delta_pays(self.plan, slots, self.batch_size):
            self._run_delta(base, slots, cols, native)
            return
        column = base.column
        if base.kernel_name != self.kernel.name and self.kernel.checked:
            # The base column was (or was memoized) already demoted to
            # the exact kernel — the whole evaluation follows it there.
            column = self._promoted(column)
        try:
            edits = native()
        except (OverflowError, GuardTrip):
            # An override value does not fit the native dtype: demote
            # the base column and scatter on the exact kernel.
            column = self._promoted(column)
            edits = native()
        self._certify(base, edits)
        rows = self._input_rows()
        rows[:] = column
        # The input rows lead the C-ordered value array: one flat index.
        rows.reshape(-1)[slots * self.batch_size + cols] = edits
        self._run_dense()

    def _certify(self, base: PreparedBase, edits: Any) -> None:
        """Certify this batch when its base column and its native
        ``edits`` both stay within the plan's input bound for the
        kernel's window: nothing it forms can trip a guard, so it runs
        the kernel's :meth:`~ArrayKernel.plain` reductions."""
        kernel = self.kernel
        if kernel.window is None or base.kernel_name != kernel.name:
            return
        bound = input_bound(self.plan, kernel.window)
        if bound is not None and base.magnitude() <= bound \
                and _abs_max(edits) <= bound:
            self.certified = True
            self.kernel = kernel.plain()

    def _load_inputs(self, rows: List[List[Any]]) -> Any:
        """The ``(inputs, N)`` matrix of per-valuation input values."""
        cast_in = self.kernel.cast_in
        try:
            data = rows if cast_in is None \
                else [[cast_in(value) for value in row] for row in rows]
            matrix = _np.array(data, dtype=self.kernel.dtype)
        except (OverflowError, GuardTrip):
            # An input does not fit the native dtype: the whole
            # evaluation runs on the exact fallback kernel.
            matrix = _np.array(rows, dtype=self._fall_back().dtype)
        return matrix.reshape(len(rows), self.batch_size)

    # -- the dense pass ----------------------------------------------------------

    def _promote_values(self) -> None:
        """Mid-run guard trip: convert the value array to the exact
        object carrier and continue on the fallback kernel."""
        self._values = self._promoted(self._values)

    def _write_consts(self) -> None:
        sr = self.sr
        cast_in = self.kernel.cast_in
        for rank, raw in self.plan.consts:
            value = sr.coerce(raw)
            try:
                self._values[rank] = value if cast_in is None \
                    else cast_in(value)
            except (OverflowError, GuardTrip):
                self._promote_values()
                cast_in = self.kernel.cast_in
                self._values[rank] = value

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
                is_add = group.kind == KIND_ADD
                reduce_ = self.kernel.add_reduce if is_add \
                    else self.kernel.mul_reduce
                if self.kernel.checked:
                    result, tripped = reduce_(
                        self._values[group.children], 1)
                    if tripped:
                        # The children are still exact: promote and
                        # re-run just this group on the object kernel.
                        self._promote_values()
                        reduce_ = self.kernel.add_reduce if is_add \
                            else self.kernel.mul_reduce
                        result = reduce_(self._values[group.children],
                                         axis=1)
                else:
                    # A ufunc's own ``reduce`` (every shipped plain
                    # kernel): fold its binary form in place instead,
                    # once the group is wide enough to pay its one call
                    # per operand.
                    ufunc = getattr(reduce_, "__self__", None)
                    fan_in = group.children.shape[1]
                    if isinstance(ufunc, _np.ufunc) and fan_in > 1 \
                            and (group.stop - group.start) \
                            * self.batch_size >= FOLD_CELLS * fan_in:
                        _fold_into(ufunc, self._values, group)
                        continue
                    result = reduce_(self._values[group.children], axis=1)
                self._values[group.start:group.stop] = result

    def _permanents(self, entries: Sequence[Sequence[Optional[int]]],
                    operand_row: Callable[[int], Any], count: int
                    ) -> List[Any]:
        """``count`` exact permanents of one gate: ``operand_row(rank)``
        is the operand's ``count`` native values.  On a guarded kernel
        they are cast back to exact carrier values first (the
        permanent's internal sums of products must not run on the native
        dtype unguarded)."""
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
        reduction exists), operands read from the value array; a result
        outside the native range promotes the evaluation."""
        results = self._permanents(entries, self._values.__getitem__,
                                   self.batch_size)
        try:
            self._values[rank] = self._native(results)
        except (OverflowError, GuardTrip):
            self._promote_values()
            self._values[rank] = _np.array(results, dtype=object)

    # -- the delta pass ----------------------------------------------------------

    def _base_sweep(self, base: PreparedBase) -> "VectorizedEvaluator":
        """``base`` swept as one dense column, on the column's kernel —
        memoized on the :class:`PreparedBase` (a racing double build
        computes the same sweep twice and keeps either)."""
        memo = base._swept
        if not memo:
            swept = VectorizedEvaluator.__new__(VectorizedEvaluator)
            swept._prepare(self.circuit, self.sr, 1, self.schedule,
                           base.kernel)
            swept._input_rows()[:] = base.column
            swept._run_dense()
            memo.append(swept)
            self.cells += self.plan.size
        return memo[0]

    def _run_delta(self, base: PreparedBase, slots: Any, cols: Any,
                   native: Callable[[], Any]) -> None:
        """Cone-restricted evaluation: only ``(rank, column)`` pairs
        above an overridden input are computed, everything else is the
        base sweep's value.  Runs on the kernel the base sweep ended on;
        any guard trip (an override that does not fit, a reduction
        leaving the native range) restarts the pass on the exact
        fallback kernel over the promoted base values."""
        self.pass_used = "delta"
        swept = self._base_sweep(base)
        if swept.kernel.name != self.kernel.name:
            self.fallbacks += 1
            self.kernel = swept.kernel
            self.kernel_used = swept.kernel.name
        values = swept._values[:, 0]
        while True:
            try:
                edits = native()
                self._certify(base, edits)
                self._delta(values, slots, cols, edits)
                return
            except (OverflowError, GuardTrip):
                if self.kernel.fallback is None:
                    raise
                values = self._promoted(values)

    def _delta(self, base: Any, slots: Any, cols: Any, edits: Any) -> None:
        plan, width = self.plan, self.batch_size

        def climb(codes: Any, values: Any) -> Tuple[Any, Any, Any]:
            """The operand positions these dirty pairs feed: parent
            code, operand slot, and the value to put there."""
            parents, at, source = expand_parents(plan, codes, width)
            return parents, at, values[source]

        # Level 0: the edited inputs (slot == rank), each pair once, and
        # only those that really differ from the base.
        codes, first = _np.unique(slots * width + cols, return_index=True)
        values = edits[first]
        self.cells += codes.size
        changed = values != base[codes // width]
        dirty = [(codes[changed], values[changed])]
        pending = climb(*dirty[0])
        for groups, stop in zip(plan.levels, plan.level_stops):
            if not pending[0].size:
                break
            here = pending[0] < stop * width
            # ``pairs``: this level's (rank, column) pairs with a dirty
            # operand; ``rows[i]`` the pair that operand ``i`` feeds.
            pairs, rows = _np.unique(pending[0][here], return_inverse=True)
            if not pairs.size:
                continue
            at, operands = pending[1][here], pending[2][here]
            ranks = pairs // width
            results = _np.empty(pairs.size, dtype=base.dtype)
            for group in groups:
                lo, hi = _np.searchsorted(ranks, (group.start, group.stop))
                if lo == hi:
                    continue
                mine = slice(None) if hi - lo == pairs.size \
                    else (rows >= lo) & (rows < hi)
                results[lo:hi] = self._delta_group(
                    group, ranks[lo:hi], base, rows[mine] - lo, at[mine],
                    operands[mine])
            self.cells += pairs.size
            changed = results != base[ranks]
            dirty.append((pairs[changed], results[changed]))
            later = ~here
            pending = tuple(
                _np.concatenate((rest[later], new))
                for rest, new in zip(pending, climb(*dirty[-1])))
        # Ranks grow with the level, so the concatenation is sorted.
        self._base = base
        self._dirty_codes, self._dirty_values = (
            _np.concatenate(column) for column in zip(*dirty))

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
            return self._native(results)
        stacked = base[group.children[ranks - group.start]]
        stacked[rows, slots] = operands
        reduce_ = self.kernel.add_reduce if group.kind == KIND_ADD \
            else self.kernel.mul_reduce
        if not self.kernel.checked:
            return reduce_(stacked, axis=1)
        result, tripped = reduce_(stacked, 1)
        if tripped:
            raise GuardTrip(group.kind)
        return result

    # -- results ----------------------------------------------------------------

    def _row(self, rank: int) -> Any:
        """One rank's native values across the batch (the delta pass
        densifies the row on demand)."""
        if self._values is not None:
            return self._values[rank]
        width = self.batch_size
        row = _np.empty(width, dtype=self._base.dtype)
        row[:] = self._base[rank]
        lo, hi = _np.searchsorted(self._dirty_codes,
                                  (rank * width, (rank + 1) * width))
        row[self._dirty_codes[lo:hi] - rank * width] = \
            self._dirty_values[lo:hi]
        return row

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

    def kernel_stats(self) -> Dict[str, Any]:
        """Which kernel was requested, which produced the results, how
        many guard trips fell back to the exact kernel, which pass ran
        and how many values it computed."""
        return {"requested": self.kernel_requested,
                "used": self.kernel_used,
                "fallbacks": self.fallbacks,
                "pass": self.pass_used,
                "cells": self.cells}


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
    return scatter.width \
        if _delta_pays(plan, scatter.slots, scatter.width) else fits


def _delta_pays(plan: VectorPlan, slots: Any, width: int) -> bool:
    """The cost rule: whether the delta pass beats the dense sweep for
    ``width`` columns overriding input ``slots`` (one entry per edit)."""
    cones = int(plan.cone_sizes[slots].sum()) if len(slots) else 0
    return DELTA_PASS_CELLS + DELTA_CELL_COST * cones < plan.live * width
