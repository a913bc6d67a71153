"""Vectorized batched evaluation over a layer schedule (NumPy backend).

:class:`VectorizedEvaluator` evaluates one circuit over an N-valuation
batch layer by layer (see :mod:`repro.circuits.schedule`): all values
live in one ``(num_gates, N)`` array, and each ``add``/``mul`` group of
``g`` gates with uniform fan-in ``f`` is evaluated with two NumPy
operations — a fancy-index gather ``V[children] -> (g, f, N)`` and an
elementwise reduction over the fan-in axis.  Per-gate Python dispatch,
the cost that dominates :class:`~repro.circuits.evaluation.BatchedEvaluator`,
is amortized over whole groups.

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
object kernel.  Results are therefore always exact; the fast path only
ever costs a retry, never a wrong answer.  ``exact_mode`` (validated in
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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Type

from ..algebra import permanent
from ..semirings import (FloatField, IntegerRing, MaxPlus, MinMax, MinPlus,
                         NaturalSemiring, RationalField, Semiring)
from .backends import validate_exact_mode
from .evaluation import Valuation
from .gates import Circuit, GateId, PermGate
from .schedule import (KIND_ADD, KIND_MUL, KIND_PERM, LayerSchedule,
                       build_schedule)

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


def _int_nth_root(maximum: int, n: int) -> int:
    """The largest ``b >= 1`` with ``b ** n <= maximum`` (small ``n``)."""
    if n <= 1:
        return maximum
    root = int(maximum ** (1.0 / n))
    while root ** n > maximum:
        root -= 1
    while (root + 1) ** n <= maximum:
        root += 1
    return max(root, 1)


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
                                       _int_nth_root(_INT64_MAX, width))
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
    bound = float(_int_nth_root(2 ** 53 - 1, width))
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
            promote=lambda array: array.astype(object))

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
            promote=_np.frompyfunc(_q_promote, 1, 1))

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


def _index_plan(schedule: LayerSchedule) -> Dict[int, Any]:
    """Per-group NumPy index arrays, memoized on the schedule object.

    Schedules (like circuits) are immutable once built, so the plan is
    computed once per schedule and reused across evaluations/batches.
    """
    plan = getattr(schedule, "_vector_plan", None)
    if plan is None:
        plan = {}
        for layer in schedule.layers:
            for group in layer.groups:
                if group.kind in (KIND_ADD, KIND_MUL):
                    plan[id(group)] = (
                        _np.array(group.gate_ids, dtype=_np.intp),
                        _np.array(group.children, dtype=_np.intp))
        schedule._vector_plan = plan
    return plan


@dataclass(frozen=True)
class PreparedBase:
    """A precomputed base input column for override batches: the input
    gates' base values as one ``(slots, 1)`` array, plus the key->slot
    map and the gate-id list to scatter the filled matrix with (both
    static, shared with the schedule), and the kernel whose dtype the
    column is in (a guarded kernel's base build falls back to its object
    kernel when a base value does not fit the native dtype)."""

    column: Any
    slot_of: Dict[Any, int]
    gate_ids: List[GateId]
    kernel: ArrayKernel

    @property
    def kernel_name(self) -> str:
        return self.kernel.name

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
        return replace(self, column=column)


class VectorizedEvaluator:
    """Evaluate one circuit over N valuations, one layer at a time.

    Mirrors :class:`~repro.circuits.evaluation.BatchedEvaluator`'s
    interface (``results`` / ``value`` / ``values_of``).  Construct with
    N valuation callables, or — much faster when the batch is a set of
    sparse edits of one base valuation — via :meth:`from_overrides`,
    which broadcasts the base input column once and then applies only
    the per-valuation overrides.

    After construction, ``kernel_requested`` / ``kernel_used`` name the
    kernel asked for and the one that actually produced the results,
    and ``fallbacks`` counts the guard trips that promoted (part of)
    the evaluation onto the exact object kernel.
    """

    def __init__(self, circuit: Circuit, sr: Semiring,
                 valuations: Sequence[Valuation],
                 schedule: Optional[LayerSchedule] = None,
                 kernel: Optional[ArrayKernel] = None):
        self._prepare(circuit, sr, len(valuations), schedule, kernel)
        rows = [[valuation(key) for valuation in valuations]
                for _, key in self.schedule.input_gates]
        self._load_inputs(rows)
        self._run()

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
        input_gates = schedule.input_gates
        raw = [base.get(key, zero) for _, key in input_gates]
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
        return PreparedBase(
            column=column, slot_of=schedule.slot_of(),
            gate_ids=[gate_id for gate_id, _ in input_gates],
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
        self = cls.__new__(cls)
        self._prepare(circuit, sr, len(overrides), schedule, kernel)
        if not isinstance(base, PreparedBase):
            base = cls.prepare_base(self.circuit, sr, base,
                                    schedule=self.schedule,
                                    kernel=self.kernel)
        column = base.column
        if base.kernel_name != self.kernel.name and self.kernel.checked:
            # The base column was (or was memoized) already demoted to
            # the exact kernel — the whole evaluation follows it there.
            column = self._fall_back_input(column)
        try:
            matrix = self._fill_overrides(column, base.slot_of, overrides)
        except (OverflowError, GuardTrip):
            # An override value does not fit the native dtype: demote
            # the base column and refill on the exact kernel.
            matrix = self._fill_overrides(self._fall_back_input(column),
                                          base.slot_of, overrides)
        self._values[base.gate_ids] = matrix
        self._run()
        return self

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

        This is the grouped-aggregation sweep (each group raises its
        selector weights to ``sr.one``): because all overrides share one
        value, the whole batch's edits collapse into a single fancy-index
        scatter ``matrix[slots, columns] = cast(value)`` instead of the
        per-column dict fills of :meth:`from_overrides`.  Unknown keys
        are ignored, matching the override mapping semantics.
        """
        self = cls.__new__(cls)
        self._prepare(circuit, sr, len(key_columns), schedule, kernel)
        if not isinstance(base, PreparedBase):
            base = cls.prepare_base(self.circuit, sr, base,
                                    schedule=self.schedule,
                                    kernel=self.kernel)
        column = base.column
        if base.kernel_name != self.kernel.name and self.kernel.checked:
            column = self._fall_back_input(column)
        slot_of = base.slot_of
        rows: List[int] = []
        cols: List[int] = []
        for index, keys in enumerate(key_columns):
            for key in keys:
                slot = slot_of.get(key)
                if slot is not None:
                    rows.append(slot)
                    cols.append(index)
        try:
            matrix = self._scatter_uniform(column, rows, cols, value)
        except (OverflowError, GuardTrip):
            # ``value`` does not fit the native dtype: demote the base
            # column and re-scatter on the exact kernel.
            matrix = self._scatter_uniform(self._fall_back_input(column),
                                           rows, cols, value)
        self._values[base.gate_ids] = matrix
        self._run()
        return self

    # -- internals -------------------------------------------------------------

    def _scatter_uniform(self, column: Any, rows: Sequence[int],
                         cols: Sequence[int], value: Any) -> Any:
        """Broadcast ``column`` across the batch, then write ``value``
        at every ``(rows[i], cols[i])`` in one vectorized scatter."""
        cast_in = self.kernel.cast_in
        matrix = _np.empty((column.shape[0], self.batch_size),
                           dtype=self.kernel.dtype)
        matrix[:, :] = column
        if rows:
            native = value if cast_in is None else cast_in(value)
            matrix[_np.asarray(rows, dtype=_np.intp),
                   _np.asarray(cols, dtype=_np.intp)] = native
        return matrix

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
        self.batch_size = batch_size
        self.schedule = schedule if schedule is not None \
            else build_schedule(circuit)
        self._values = _np.empty((len(circuit.gates), batch_size),
                                 dtype=kernel.dtype)

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

    def _fall_back_input(self, column: Any) -> Any:
        """Demote before any gate ran: swap in the fallback kernel, a
        fresh object value array, and the base column promoted (or
        passed through, when it was built on the object kernel)."""
        promote = self.kernel.promote
        fallback = self._fall_back()
        self._values = _np.empty(self._values.shape, dtype=fallback.dtype)
        if column.dtype == fallback.dtype:
            return column
        return promote(column) if promote is not None \
            else column.astype(fallback.dtype)

    def _fill_overrides(self, column: Any, slot_of: Dict[Any, int],
                        overrides: Sequence[Mapping[Any, Any]]) -> Any:
        cast_in = self.kernel.cast_in
        matrix = _np.empty((column.shape[0], self.batch_size),
                           dtype=self.kernel.dtype)
        matrix[:, :] = column
        for index, override in enumerate(overrides):
            for key, value in override.items():
                slot = slot_of.get(key)
                if slot is not None:
                    matrix[slot, index] = value if cast_in is None \
                        else cast_in(value)
        return matrix

    def _load_inputs(self, rows: List[List[Any]]) -> None:
        input_gates = self.schedule.input_gates
        if not input_gates:
            return
        cast_in = self.kernel.cast_in
        try:
            data = rows if cast_in is None \
                else [[cast_in(value) for value in row] for row in rows]
            matrix = _np.array(data, dtype=self.kernel.dtype)
        except (OverflowError, GuardTrip):
            # An input does not fit the native dtype: the whole
            # evaluation runs on the exact fallback kernel.
            fallback = self._fall_back()
            self._values = _np.empty(self._values.shape,
                                     dtype=fallback.dtype)
            matrix = _np.array(rows, dtype=fallback.dtype)
        self._values[[gate_id for gate_id, _ in input_gates]] = \
            matrix.reshape(len(input_gates), self.batch_size)

    def _promote_values(self) -> None:
        """Mid-run guard trip: convert the value array to the exact
        object carrier and continue on the fallback kernel.  Values
        computed so far are exact (trips are detected before a wrapped
        result is consumed), so the promotion preserves them all."""
        promote = self.kernel.promote
        values = self._values
        self._fall_back()
        self._values = promote(values) if promote is not None \
            else values.astype(object)

    def _write_consts(self) -> None:
        sr, values = self.sr, self._values
        cast_in = self.kernel.cast_in
        for gate_id, raw in self.schedule.const_gates:
            value = sr.coerce(raw)
            try:
                values[gate_id] = value if cast_in is None \
                    else cast_in(value)
            except (OverflowError, GuardTrip):
                self._promote_values()
                cast_in = self.kernel.cast_in
                self._values[gate_id] = value
                values = self._values

    def _run(self) -> None:
        self._write_consts()
        plan = _index_plan(self.schedule)
        for layer in self.schedule.layers:
            for group in layer.groups:
                if group.kind in (KIND_ADD, KIND_MUL):
                    ids, children = plan[id(group)]
                    reduce_ = (self.kernel.add_reduce
                               if group.kind == KIND_ADD
                               else self.kernel.mul_reduce)
                    if self.kernel.checked:
                        result, tripped = reduce_(self._values[children], 1)
                        if tripped:
                            # The children are still exact: promote and
                            # re-run just this group on the object kernel.
                            self._promote_values()
                            reduce_ = (self.kernel.add_reduce
                                       if group.kind == KIND_ADD
                                       else self.kernel.mul_reduce)
                            result = reduce_(self._values[children], axis=1)
                        self._values[ids] = result
                    else:
                        self._values[ids] = reduce_(self._values[children],
                                                    axis=1)
                elif group.kind == KIND_PERM:
                    for gate_id in group.gate_ids:
                        self._eval_perm(gate_id)

    def _eval_perm(self, gate_id: GateId) -> None:
        """Permanent gates: exact per-gate evaluation (no rectangular
        reduction exists), operands read from the value array.  On a
        guarded kernel the operands are cast back to exact carrier
        values first (the permanent's internal sums of products must not
        run on the native dtype unguarded), and a result outside the
        native range promotes the evaluation."""
        sr = self.sr
        gate: PermGate = self.circuit.gates[gate_id]
        zero = sr.zero
        zeros = [zero] * self.batch_size
        cast_out = self.kernel.cast_out

        def operand_row(entry):
            if entry is None:
                return zeros
            row = self._values[entry].tolist()
            return row if cast_out is None else [cast_out(v) for v in row]

        entry_rows = [[operand_row(entry) for entry in row]
                      for row in gate.entries]
        results = [permanent([[column[i] for column in entry_row]
                              for entry_row in entry_rows], sr)
                   for i in range(self.batch_size)]
        cast_in = self.kernel.cast_in
        try:
            data = results if cast_in is None \
                else [cast_in(value) for value in results]
            self._values[gate_id] = _np.array(data, dtype=self.kernel.dtype)
        except (OverflowError, GuardTrip):
            self._promote_values()
            self._values[gate_id] = _np.array(results, dtype=object)

    # -- results ----------------------------------------------------------------

    def _cast_row(self, row: List[Any]) -> List[Any]:
        cast_out = self.kernel.cast_out
        return row if cast_out is None else [cast_out(v) for v in row]

    def value(self, index: int) -> Any:
        """The output value under valuation ``index`` (converted alone —
        not via a whole-row cast)."""
        value = self._values[self.circuit.output, index]
        if isinstance(value, _np.generic):
            value = value.item()
        cast_out = self.kernel.cast_out
        return value if cast_out is None else cast_out(value)

    def results(self) -> List[Any]:
        """Output values for the whole batch, in valuation order."""
        return self._cast_row(self._values[self.circuit.output].tolist())

    def values_of(self, gate_id: GateId) -> List[Any]:
        """The per-valuation values of an arbitrary live gate."""
        if gate_id not in self.schedule.layer_of:
            raise KeyError(f"gate {gate_id} is not live in this circuit")
        return self._cast_row(self._values[gate_id].tolist())

    def kernel_stats(self) -> Dict[str, Any]:
        """Which kernel was requested, which produced the results, and
        how many guard trips fell back to the exact kernel."""
        return {"requested": self.kernel_requested,
                "used": self.kernel_used,
                "fallbacks": self.fallbacks}
