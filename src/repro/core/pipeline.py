"""End-to-end Theorem 6: structure + closed expression -> circuit.

``compile_structure_query`` chains the reduction stages:

1. normalize the expression into sum-of-product blocks (Lemma 28-style);
2. compute a low-treedepth coloring of the Gaifman graph (Prop. 1) and
   split every block over color subsets ``D`` with surjective color
   assignments (Lemma 35 — exact for any coloring);
3. per subset that hosts a block: encode the induced substructure as a
   labeled elimination forest (Lemma 33 generalized to any arity, see
   ``ColoredFacts.forest``) and run the forest compiler (Lemma 29).
   Every tuple is a Gaifman clique, hence a chain of that forest, so the
   paper's unary-isation through out-neighbor functions (Lemma 37) is
   not needed.  A clique-guarded block hosts only the color sets of
   Gaifman cliques (surjectivity makes it zero on every other subset);
   any other block hosts every subset.

What depends on the query only (Lemma 32's decomposition of a block) is
computed once per compile in a ``ShapeTable``; what depends on the data
only (which tuples lie inside a color subset) is bucketed once per tuple
in a ``ColoredFacts``; step 3 pays per forest for the forest alone.

The resulting :class:`CompiledQuery` evaluates in any semiring, statically
or dynamically.  :meth:`CompiledQuery.write` turns a weight update on a
declared tuple or a Gaifman-preserving toggle of a declared dynamic
relation — the input models of Theorems 8 and 24 — into the input
changes every maintained consumer (:class:`DynamicQuery`, the
enumeration context) applies.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import (Any, Dict, Hashable, List, Optional, Sequence, Set,
                    Tuple)

from ..circuits import (PLAN_FORMAT_VERSION, ArrayKernel, BatchedEvaluator,
                        Circuit, CircuitBuilder, DynamicEvaluator,
                        LayerSchedule, PlanStateError, StaticEvaluator,
                        VectorizedEvaluator, build_schedule,
                        circuit_from_state, circuit_to_state,
                        co_occurring_inputs, decode_atom, encode_atom,
                        kernel_for, optimize_circuit, validate_backend,
                        validate_exact_mode)
from ..circuits.adjoint import AdjointEvaluator, adjoint_pays
from ..circuits.vector_plan import vector_plan
from ..circuits.vectorized import Scatter, block_columns, sweep_width
from ..graphs import Orientation, enumerate_cliques, low_treedepth_coloring
from ..logic import Block, normalize
from ..logic.fo import And, Atom, FuncAtom, LabelAtom, atoms_of
from ..logic.weighted import Bracket, WAdd, WExpr, WMul, WSum
from ..semirings import Semiring
from ..structures import LabeledForest, Structure
from .closure import (SELECTED, fact_keys, selected_elements, selector_key,
                      selector_slots)
from .forest_compiler import ForestCompiler, ShapeTable
from .stages import ColoredFacts


def _refuse_forest_atoms(expr: WExpr) -> None:
    """Raise ``TypeError`` naming the first label or parent atom of
    ``expr``: their value would depend on the compiler's internal
    coloring and elimination forests, not on the structure."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Bracket):
            for atom in atoms_of(node.formula):
                if isinstance(atom, (FuncAtom, LabelAtom)):
                    raise TypeError(
                        f"structure queries read relations, weights and "
                        f"equalities only; {atom!r} is a forest atom "
                        f"(see compile_forest_query)")
        elif isinstance(node, (WAdd, WMul)):
            stack.extend(node.parts)
        elif isinstance(node, WSum):
            stack.append(node.inner)


def _clique_guarded(block: Block) -> bool:
    """Whether every pair of ``block``'s distinct variables occurs
    together in one positive relation atom conjoined at the top of one
    of its brackets.  Every assignment the block supports then maps its
    variables onto a clique of the Gaifman graph.  Atoms under a
    negation or a disjunction, equalities and weight factors do not
    count, so the test may miss a guard but never invents one."""
    covered = set()
    for bracket in block.brackets:
        stack = [bracket]
        while stack:
            formula = stack.pop()
            if isinstance(formula, And):
                stack.extend(formula.parts)
            elif isinstance(formula, Atom):
                covered.update(itertools.combinations(
                    sorted(set(formula.terms)), 2))
    return all(pair in covered
               for pair in itertools.combinations(sorted(set(block.vars)), 2))


def _clique_color_sets(gaifman, color_of: Dict[Hashable, int],
                       size: int) -> Set[Tuple[int, ...]]:
    """The color sets of the Gaifman cliques of at most ``size``
    vertices, as sorted tuples.  One pass: vertices and edges, then the
    degeneracy orientation's clique enumeration (linear on degenerate
    graphs) from three vertices up.  Vertices and edges are read
    directly because building the orientation is most of the pass: on
    the 32x32 triangulated grid at ``size = 2`` it took ~19 ms against
    ~4 ms for the direct read (2-vCPU x86 host)."""
    found = {(color,) for color in color_of.values()}
    if size >= 2:
        found.update(tuple(sorted({color_of[u], color_of[v]}))
                     for u, v in gaifman.edges())
    if size >= 3:
        orientation = Orientation(gaifman)
        for clique_size in range(3, size + 1):
            found.update(tuple(sorted(set(map(color_of.__getitem__, clique))))
                         for clique in enumerate_cliques(
                             gaifman, clique_size, orientation))
    return found


def _non_clique_pair(gaifman, tup: Tuple) -> Optional[Tuple]:
    """The first pair of distinct elements of ``tup`` *not* adjacent in
    the Gaifman graph, or ``None`` when the tuple is a clique — the
    Theorem 24 update-model condition."""
    distinct = list(dict.fromkeys(tup))
    for i, a in enumerate(distinct):
        for b in distinct[i + 1:]:
            if not gaifman.has_edge(a, b):
                return (a, b)
    return None


def _carrier(sr: Semiring, kind: str, raw: Any, rest: Any = None) -> Any:
    """The carrier value of a recorded input: a weight's raw value, a
    toggle state's ``sr.one``/``sr.zero``, a selector's ``rest``."""
    return raw if kind == "w" else rest if kind == SELECTED \
        else sr.one if raw else sr.zero


def _fold_record(stats: Dict[str, Any], record: Dict[str, Any]) -> None:
    """Fold one sweep's telemetry ``record`` into ``stats``: sweeps
    ("batches"), fallbacks, certified sweeps and cells add up, every
    other field keeps the last sweep's value."""
    for name, value in record.items():
        if name in ("batches", "fallbacks", "certified", "cells"):
            value += stats.get(name, 0)
        stats[name] = value


@dataclass
class CompiledQuery:
    """A compiled closed weighted query over a fixed structure."""

    circuit: Circuit
    structure: Structure
    gaifman: object  # cached Gaifman graph (fixed under the update model)
    recorded: Dict[Hashable, Tuple[str, object]]
    dynamic_relations: frozenset
    #: what the compile's Lemma 35 decomposition looked like — the
    #: forests themselves die with the compile, these three survive for
    #: stats()/explain(): colors of the low-treedepth coloring, forests
    #: built (color subsets that hosted a block), and the tallest
    #: forest's height.
    colors: int
    color_subsets: int
    max_forest_height: int
    #: layered evaluation plan, built once at compile time and memoized
    #: (circuits are immutable after compilation/optimization, so the
    #: schedule never goes stale).
    _schedule: Optional[LayerSchedule] = field(
        default=None, repr=False, compare=False)
    #: semiring -> (base valuation dict, {requested kernel name:
    #: PreparedBase}) — guarded native kernels and the object kernel
    #: have different dtypes, so each keeps its own column.  Built on
    #: first use and then *patched* by :meth:`_record`, never rebuilt.
    _base_cache: Dict[Any, Tuple[Dict[Hashable, Any], Dict[str, Any]]] = \
        field(default_factory=dict, repr=False, compare=False)
    #: serializes building a memoized base/column against patching one,
    #: so a write can never slip between a build's read and its store.
    _base_lock: Any = field(default_factory=threading.Lock, repr=False,
                            compare=False)
    #: accumulated batch telemetry ("requested"/"used" kernel names,
    #: "fallbacks" to the object kernel, "certified" native sweeps,
    #: "batches" = sweeps run, the last "pass",
    #: the "cells" computed, the last batch's sweep "width" and the
    #: value "rows" its last sweep held),
    #: surfaced via stats().
    _kernel_stats: Dict[str, Any] = field(default_factory=dict, repr=False,
                                          compare=False)
    _kernel_stats_lock: Any = field(default_factory=threading.Lock,
                                    repr=False, compare=False)
    #: per-stage compile durations in seconds (normalize, coloring,
    #: forests, forest_compiler, optimize, schedule), recorded by
    #: ``compile_structure_query`` and surfaced via stats(); empty for
    #: plans loaded from a store (the work was not done here) and shared
    #: across rebinds (the compilation *was* this one).
    _stage_seconds: Dict[str, float] = field(default_factory=dict,
                                             repr=False, compare=False)

    def schedule(self) -> LayerSchedule:
        """The circuit's layer schedule, computed once and cached."""
        if self._schedule is None:
            self._schedule = build_schedule(self.circuit)
        return self._schedule

    def _record(self, key: Hashable, kind: str, raw: Any) -> None:
        """The one write path into ``recorded``: store the input's new
        raw value and patch it into every memoized per-semiring base —
        the valuation dict slot in place, each prepared column replaced
        by a copy with that one slot rewritten (an in-flight batch keeps
        the array it already holds, so readers racing a write still see
        either state).  A write therefore costs O(1) Python plus one
        C-level column copy per live kernel, and the next batch starts
        from a warm base.

        A column that cannot take the value natively, or that was
        already demoted to its kernel's exact fallback, is dropped
        instead: the next batch rebuilds it through ``prepare_base``,
        which re-decides the demotion exactly as a first build would."""
        with self._base_lock:
            self.recorded[key] = (kind, raw)
            for sr, (base, columns) in self._base_cache.items():
                value = base[key] = _carrier(sr, kind, raw)
                for name, prepared in list(columns.items()):
                    patched = prepared.patched(key, value) \
                        if prepared.kernel.name == name else None
                    if patched is None:
                        del columns[name]
                    else:
                        columns[name] = patched

    def _cached_entry(self, sr: Semiring
                      ) -> Tuple[Dict[Hashable, Any], Dict[str, Any]]:
        """The memoized ``(base valuation, {kernel: PreparedBase})``
        entry for ``sr``, kept current by :meth:`_record`.

        The base dict is shared across calls — callers must treat it as
        read-only (override batches read through to it)."""
        entry = self._base_cache.get(sr)
        if entry is None:
            with self._base_lock:
                entry = self._base_cache.get(sr)
                if entry is None:
                    entry = (self.input_valuation(sr), {})
                    self._base_cache[sr] = entry
        return entry

    def _cached_input_valuation(self, sr: Semiring) -> Dict[Hashable, Any]:
        """Memoized :meth:`input_valuation` for the batched hot path."""
        return self._cached_entry(sr)[0]

    def _cached_override_base(self, sr: Semiring, kernel: ArrayKernel):
        """Memoized :class:`PreparedBase` for the numpy override path,
        keyed by the kernel (fast-path and object columns differ)."""
        base, columns = self._cached_entry(sr)
        prepared = columns.get(kernel.name)
        if prepared is None:
            with self._base_lock:
                prepared = columns.get(kernel.name)
                if prepared is None:
                    prepared = VectorizedEvaluator.prepare_base(
                        self.circuit, sr, base, schedule=self.schedule(),
                        kernel=kernel)
                    columns[kernel.name] = prepared
        return prepared

    def _swept(self, evaluator: Any, width: int,
               ran: Dict[str, Any]) -> List[Any]:
        """One sweep's results, its telemetry folded into ``ran`` (its
        batch's record) and into the accumulated stats: which kernel and
        pass ran, how wide its batch's sweeps are and how many value
        rows the sweep held (``None`` for a delta or adjoint pass) — the
        last sweep's; sweeps ("batches"), fallbacks to the object
        kernel, certified sweeps and computed cells are running
        totals."""
        record = {"requested": evaluator.kernel_requested,
                  "used": evaluator.kernel_used,
                  "fallbacks": evaluator.fallbacks,
                  "certified": evaluator.certified, "batches": 1,
                  "pass": evaluator.pass_used, "cells": evaluator.cells,
                  "width": width, "rows": evaluator.rows}
        with self._kernel_stats_lock:
            _fold_record(self._kernel_stats, record)
        _fold_record(ran, record)
        return evaluator.results()

    def kernel_stats(self) -> Dict[str, Any]:
        """A snapshot of the batch telemetry (empty before any batch).
        Cheap — a dict copy without the full circuit walk of
        :meth:`stats`."""
        with self._kernel_stats_lock:
            return dict(self._kernel_stats)

    def input_valuation(self, sr: Semiring,
                        selected: Any = None) -> Dict[Hashable, Any]:
        """Carrier values for every recorded input gate.  A selector
        input records no value: it reads ``selected`` — by default
        ``sr.zero``, the resting state of Theorem 8's protocol."""
        rest = sr.zero if selected is None else selected
        return {key: _carrier(sr, kind, raw, rest)
                for key, (kind, raw) in self.recorded.items()}

    def evaluate(self, sr: Semiring, selected: Any = None) -> Any:
        values = self.input_valuation(sr, selected)
        return StaticEvaluator(self.circuit, sr,
                               lambda key: values.get(key, sr.zero)).value()

    def evaluate_batch(self, sr: Semiring, valuations: Sequence[Any],
                       backend: str = "auto",
                       exact_mode: str = "auto") -> List[Any]:
        """Evaluate the circuit under N valuations, batched.

        Each element of ``valuations`` is either a mapping of input keys
        to carrier values — interpreted as *overrides* of the structure's
        recorded weights, so ``{}`` reproduces :meth:`evaluate` — or a
        callable ``key -> value`` used as-is.  Returns one output value
        per valuation, in order.

        ``backend`` selects the evaluation substrate: ``"python"`` is
        the pure-Python :class:`BatchedEvaluator`; ``"numpy"`` is the
        layered :class:`VectorizedEvaluator` on the semiring's array
        kernel (raises if NumPy is missing); ``"auto"`` (default) uses
        NumPy when it is installed and Python otherwise.  Callers hand
        over the whole batch: a batch whose value array would outgrow
        the evaluators' fixed memory bound runs as several sweeps over
        column blocks (same answers).

        ``exact_mode`` selects the vectorized kernel for the exact
        carriers (``N``/``Z``/``Q``): ``"auto"`` picks the guarded
        native kernel (results stay exact — a sweep runs natively only
        when certified unable to overflow, and on the object kernel
        from the start otherwise), ``"object"`` forces the exact
        object-dtype kernel.  This is the one place it is set: the
        facade always runs ``"auto"``.  Validated eagerly through the
        same seam as ``backend`` (:mod:`repro.circuits.backends`).
        """
        return self._sweep(sr, list(valuations), backend, exact_mode)[0]

    def evaluate_selected(self, sr: Semiring, arguments: Sequence[Tuple],
                          backend: str = "auto",
                          exact_mode: str = "auto") -> List[Any]:
        """Theorem 8's point query ``f(a)`` for every argument tuple of
        ``arguments``, amortized over one batch: column ``i`` raises the
        selectors of ``arguments[i]`` to ``sr.one``.  The tuples must be
        validated already, as for :meth:`DynamicQuery.point` — aligned
        with the closed form's selector positions, every element in the
        domain (:func:`repro.core.normalize_arguments`); nothing is
        checked here.  The vectorized backend resolves each element
        through its position's ``{element: slot}`` table
        (:func:`repro.core.closure.selector_slots`), and ``sr.one`` is
        cast into the kernel's dtype once for the whole batch."""
        return self._sweep(sr, list(arguments), backend, exact_mode,
                           selected=True)[0]

    def _sweep(self, sr: Semiring, columns: List[Any], backend: str,
               exact_mode: str, selected: bool = False
               ) -> Tuple[List[Any], Dict[str, Any]]:
        """The one way down for a batch of valuations — or, ``selected``,
        of argument tuples: pick the evaluator, run it over column
        blocks no wider than the evaluators' memory bound
        (:func:`~repro.circuits.vectorized.sweep_width` — an override
        batch the cost rule sends to the delta pass stays whole), note
        the telemetry.  Returns the results and the batch's own record
        of what its sweeps ran (the fields of :meth:`kernel_stats`,
        totalled over this batch alone: a concurrent batch on the plan
        never folds in).  A batch of one-key point reads may go to the
        adjoint pass instead, which answers the whole batch from one
        reverse sweep (:func:`~repro.circuits.adjoint.adjoint_pays`)."""
        validate_backend(backend)
        validate_exact_mode(exact_mode)
        kernel = None
        if backend != "python":
            kernel = kernel_for(sr, exact_mode)
            if kernel is None and backend == "numpy":
                raise RuntimeError(
                    "backend='numpy' unavailable: numpy is not installed")
        circuit = self.circuit
        scatter: Optional[Scatter] = None
        if kernel is None:
            # Callables are asked, mappings read through to the one
            # shared (memoized, write-patched) base valuation.
            if selected:
                columns = [dict.fromkeys(map(selector_key, itertools.count(),
                                             arguments), sr.one)
                           for arguments in columns]
            block = block_columns(len(circuit.gates))
            sweep = partial(BatchedEvaluator, circuit, sr,
                            base=self._cached_input_valuation(sr))
        else:
            schedule = self.schedule()
            if selected or not any(map(callable, columns)):
                # Sparse-override fast path: the batch is scattered over
                # the input slots once — for the cost rule and for every
                # sweep, which broadcasts the memoized base input column
                # and writes its block's edits.
                base = self._cached_override_base(sr, kernel)
                arity = len(columns[0]) if selected and columns else 0
                if selected:
                    scatter = Scatter.of_elements(
                        selector_slots(schedule, arity), columns, sr.one)
                else:
                    scatter = Scatter.of_overrides(base.slot_of, columns)
                evaluator: Any = VectorizedEvaluator
                if arity == 1 and adjoint_pays(vector_plan(schedule), base,
                                               kernel, sr, scatter):
                    evaluator, block = AdjointEvaluator, len(columns)
                else:
                    block = sweep_width(schedule, kernel, scatter)
                sweep = partial(evaluator.from_scatter, circuit,
                                sr, base, schedule=schedule, kernel=kernel)
            else:
                block = sweep_width(schedule, kernel)
                sweep = partial(VectorizedEvaluator, circuit, sr,
                                schedule=schedule, kernel=kernel,
                                base=self._cached_input_valuation(sr))
        results: List[Any] = []
        ran: Dict[str, Any] = {}
        width = min(block, len(columns))
        for start in range(0, len(columns), block):
            part = columns[start:start + block] if scatter is None \
                else scatter.block(start, start + block)
            # No name holds a sweep's evaluator: its value array is
            # released before the next block's is allocated.
            results.extend(self._swept(sweep(part), width, ran))
        return results, ran

    def dynamic(self, sr: Semiring,
                strategy: Optional[str] = None) -> "DynamicQuery":
        """The Theorem 8/24 maintained handle over this plan."""
        return DynamicQuery(self, sr, strategy=strategy)

    def affected_arguments(self, update_keys: Sequence[Hashable],
                           arity: int) -> Optional[Tuple]:
        """Which point queries an update of ``update_keys`` may change,
        for a plan of the closed form over ``arity`` free variables:
        one set of elements per position, and ``f(a)`` can change only
        if every ``a[i]`` is in set ``i`` (each monomial of the closed
        form holds one selector per position, so the update must
        co-occur with all of ``a``'s selectors).  ``None`` for a closed
        query.  Reads only the upward cones of the written inputs
        (:func:`repro.circuits.co_occurring_inputs`), never the whole
        circuit; a routed write evicts the product of the sets."""
        if not arity:
            return None
        schedule = self.schedule()
        met: set = set()
        for key in update_keys:
            met |= co_occurring_inputs(schedule, key)
        return selected_elements(met, arity)

    def rebind(self, structure: Structure) -> "CompiledQuery":
        """A fresh :class:`CompiledQuery` over ``structure``, sharing the
        immutable artifacts (circuit and layer schedule) and owning
        the one piece of mutable per-instance state, ``recorded``.

        ``structure`` must be content-equal to the structure the plan was
        compiled for (same fingerprint) — this is how the compile-plan
        cache hands one compilation to many consumers without aliasing
        their update state.
        """
        return CompiledQuery(
            self.circuit, structure, structure.gaifman(),
            dict(self.recorded), self.dynamic_relations, self.colors,
            self.color_subsets, self.max_forest_height,
            _schedule=self.schedule(), _stage_seconds=self._stage_seconds)

    # -- serialization -----------------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """A versioned, data-only snapshot of the plan: circuit gates,
        recorded inputs, dynamic relations and the decomposition counts
        — everything :meth:`from_state` needs except the host structure
        and the source expression (which the caller keys the plan by);
        the layer schedule is rebuilt from the circuit on first use.
        Raises :class:`~repro.circuits.PlanNotSerializable` when a
        recorded value falls outside the serializable vocabulary (e.g.
        a user-defined carrier object); see
        :mod:`repro.circuits.serialize` for the format.
        """
        return {
            "format": PLAN_FORMAT_VERSION,
            "circuit": circuit_to_state(self.circuit),
            "recorded": [[encode_atom(key), kind, encode_atom(raw)]
                         for key, (kind, raw) in self.recorded.items()],
            "dynamic_relations": sorted(self.dynamic_relations),
            "decomposition": [self.colors, self.color_subsets,
                              self.max_forest_height],
        }

    @classmethod
    def from_state(cls, state: Any, structure: Structure,
                   expr: Optional[WExpr] = None) -> "CompiledQuery":
        """Rebuild a plan from :meth:`to_state` output over ``structure``
        (which must be content-equal to the compile-time structure — the
        persistent store enforces that through its fingerprint key).

        ``expr`` is unused: a plan is its circuit.  It stays accepted
        until the plan-load and plan-store probes of ``perfbench`` that
        pass it are retired (ROADMAP item 5).  The Gaifman graph comes
        from ``structure``.  Raises
        :class:`~repro.circuits.PlanStateError` on malformed state.
        """
        if not isinstance(state, dict):
            raise PlanStateError("malformed plan state")
        if state.get("format") != PLAN_FORMAT_VERSION:
            raise PlanStateError(
                f"plan state format {state.get('format')!r} != "
                f"{PLAN_FORMAT_VERSION}")
        try:
            circuit = circuit_from_state(state["circuit"])
            recorded: Dict[Hashable, Tuple[str, object]] = {}
            for key, kind, raw in state["recorded"]:
                if kind not in ("b", "w", SELECTED):
                    raise PlanStateError(f"unknown recorded kind {kind!r}")
                recorded[decode_atom(key)] = (kind, decode_atom(raw))
            dynamic = frozenset(state["dynamic_relations"])
            colors, color_subsets, max_forest_height = state["decomposition"]
        except PlanStateError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as error:
            raise PlanStateError(f"malformed plan state: {error}") from None
        return cls(circuit, structure, structure.gaifman(), recorded,
                   dynamic, colors, color_subsets, max_forest_height)

    def stats(self) -> Dict[str, Any]:
        info = self.circuit.stats()
        info["color_subsets"] = self.color_subsets
        info["colors"] = self.colors
        info["max_forest_height"] = self.max_forest_height
        with self._kernel_stats_lock:
            if self._kernel_stats:
                info["exact_kernel"] = dict(self._kernel_stats)
        if self._stage_seconds:
            info["compile_stages"] = dict(self._stage_seconds)
        return info

    # -- writes ----------------------------------------------------------------

    def write(self, kind: str, name: str, tup: Tuple, value: Any
              ) -> List[Tuple[Hashable, str, Any]]:
        """The one translation of a fact write into input changes
        (Theorems 8 and 24): ``name(tup) = value`` for ``kind`` ``"w"``,
        else the toggle of ``tup``'s membership in ``name`` to ``value``.
        Records each recorded input the write changes (:meth:`_record`)
        and returns them as ``(key, kind, raw)`` — the list every
        maintained consumer applies; ``[]`` for a tuple the plan never
        read.  A toggle outside Theorem 24's update model (``name`` not
        declared dynamic, or ``tup`` no clique of the Gaifman graph) is a
        ``ValueError`` and records nothing.  The caller writes the
        structure."""
        tup = tuple(tup)
        keys = fact_keys(kind, name, tup)
        raws: Sequence[Any] = (value,)
        if kind != "w":
            if name not in self.dynamic_relations:
                raise ValueError(f"{name} was not declared dynamic")
            if _non_clique_pair(self.gaifman, tup) is not None:
                raise ValueError(
                    f"tuple {tup!r} is not a clique of the Gaifman "
                    f"graph; such updates change the Gaifman graph and "
                    f"are outside the Theorem 24 update model")
            kind, raws = "b", [value == positive for positive in (True, False)]
        changes = []
        for key, raw in zip(keys, raws):
            old = self.recorded.get(key)
            # Typed: a weight rewritten from 1 to 1.0 is a change.
            if old is not None and (type(old[1]) is not type(raw)
                                    or old[1] != raw):
                self._record(key, kind, raw)
                changes.append((key, kind, raw))
        return changes


class DynamicQuery:
    """Theorem 8 / Theorem 24 dynamic data structure; every selector
    reads ``selected`` (default ``sr.zero``, :meth:`point`'s rest).
    :meth:`apply` takes the input changes of one
    :meth:`CompiledQuery.write`; :meth:`update_weight` and
    :meth:`set_relation` are that write, the structure write and
    :meth:`apply`.  Several handles over one plan share its inputs: a
    write is made once and its list applied to each (a second write of
    the same value changes no input)."""

    def __init__(self, compiled: CompiledQuery, sr: Semiring,
                 strategy: Optional[str] = None, selected: Any = None):
        self.compiled = compiled
        self.sr = sr
        values = compiled.input_valuation(sr, selected)
        self.evaluator = DynamicEvaluator(
            compiled.circuit, sr, lambda key: values.get(key, sr.zero),
            strategy=strategy, schedule=compiled.schedule())

    def value(self) -> Any:
        return self.evaluator.value()

    def point(self, arguments: Sequence[Hashable]) -> Any:
        """``f(a)`` for ``arguments`` aligned with the closed form's
        selector positions: the 2|x| toggles of Theorem 8 around one
        read.  The caller validates ``arguments``
        (:func:`repro.core.normalize_arguments`) and serializes
        concurrent reads."""
        keys = [selector_key(position, element)
                for position, element in enumerate(arguments)]
        toggle = self.evaluator.update_input
        one, zero = self.sr.one, self.sr.zero
        # Exception-safe: a failed raise or read still zeroes every
        # selector (a hot one would poison all later reads), and one
        # failing restore must not skip the others.
        try:
            for key in keys:
                toggle(key, one)
            return self.evaluator.value()
        finally:
            restore_error = None
            for key in keys:
                try:
                    toggle(key, zero)
                except BaseException as error:  # noqa: BLE001
                    if restore_error is None:
                        restore_error = error
            if restore_error is not None:
                raise restore_error

    def update_weight(self, name: str, tup: Tuple, value: Any) -> int:
        """Set ``name(tup) = value``; returns gates touched.  Only tuples
        declared at compile time are updatable (supports, hence the Gaifman
        graph, stay fixed — the paper's update model)."""
        structure = self.compiled.structure
        tup = tuple(tup)
        if tup not in structure.weights.get(name, {}):
            raise KeyError(f"{name}{tup} was not declared at compile time")
        changes = self.compiled.write("w", name, tup, value)
        # Through set_weight, not a raw dict write: the structure's
        # content caches (fingerprint, Gaifman) must see the mutation.
        structure.set_weight(name, tup, value)
        return self.apply(changes)

    def set_relation(self, name: str, tup: Tuple, present: bool) -> int:
        """Gaifman-preserving relation update (Theorem 24's model): toggle
        membership of a tuple whose elements form a clique of the (fixed)
        Gaifman graph.  ``name`` must be declared dynamic at compile time."""
        structure = self.compiled.structure
        changes = self.compiled.write("r", name, tup, present)
        if present:
            structure.add_tuple(name, tup)
        else:
            structure.remove_tuple(name, tup)
        return self.apply(changes)

    def apply(self, changes: Sequence[Tuple[Hashable, str, Any]]) -> int:
        """Propagate the input changes one :meth:`CompiledQuery.write`
        returned (every consumer of a shared plan applies the same list);
        returns gates touched."""
        update, sr = self.evaluator.update_input, self.sr
        return sum(update(key, _carrier(sr, kind, raw))
                   for key, kind, raw in changes)


def plan_cache_key(structure: Structure, expr: WExpr,
                   dynamic_relations: Sequence[str] = (),
                   optimize: bool = True) -> Tuple:
    """The compile-plan cache key: everything the compiled circuit depends
    on.  The structure enters via its content :meth:`~Structure.fingerprint`
    (domain order, relations, weight values), the expression via its
    canonical ``repr`` (expressions are frozen dataclasses with
    deterministic reprs)."""
    return (structure.fingerprint(), repr(expr),
            frozenset(dynamic_relations), bool(optimize))


def compile_structure_query(structure: Structure, expr: WExpr,
                            dynamic_relations: Sequence[str] = (),
                            coloring: Optional[Dict[Hashable, int]] = None,
                            optimize: bool = True,
                            plan_cache: Optional[Any] = None,
                            plan_store: Optional[Any] = None,
                            verify: Optional[bool] = None
                            ) -> CompiledQuery:
    """Theorem 6 end-to-end (quantifier-free brackets; see repro.qe for
    eliminating quantifiers first).

    Lemma 35 splits every block over the color subsets of at most ``p``
    colors (``p`` the widest block) with surjective color assignments.
    A block is *clique-guarded* when every pair of its distinct
    variables occurs together in one positive relation atom conjoined
    at the top of one of its brackets; it is then zero on every subset
    that is not the color set of a Gaifman clique of at most ``p``
    vertices, and is compiled on those color sets only.  Any other block
    is compiled on every subset.  A forest is built only for a subset
    that hosts some block, and ``color_subsets`` counts those forests.

    The circuit comes out constant-folded either way: the builder folds
    as it interns (:class:`~repro.circuits.CircuitBuilder`).
    ``optimize`` runs :func:`~repro.circuits.optimize_circuit` — one
    flatten rebuild (fan-in flattening, CSE/DCE) and a compaction — over
    the compiled circuit before it is handed to the evaluators; the
    rewrite preserves the circuit's value in every semiring and rebuilds
    the input-gate table, so updates and enumeration are unaffected.
    Pass ``optimize=False`` to keep the raw Theorem 6 circuit (the shape
    the paper's size bounds are stated for).

    ``plan_cache`` (e.g. :class:`repro.serve.PlanCache`) memoizes whole
    compilations keyed by :func:`plan_cache_key`: on a hit the cached
    plan is :meth:`~CompiledQuery.rebind`-ed to ``structure`` — sharing
    the immutable circuit and layer schedule, copying the mutable update
    state — and the normalize/color/forest/compile stages are skipped
    entirely.  An explicit ``coloring`` bypasses the cache (the coloring
    is an input the key does not capture).

    ``plan_store`` (a :class:`repro.serve.PlanStore`) is the persistent
    tier *under* the in-memory cache, on the same key: memory miss →
    disk load (also seeding the memory cache) → compile, with the
    compiled plan written back to disk.  A corrupt or stale entry is a
    miss (recompile), never an error.

    ``verify`` runs the IR verifier
    (:func:`repro.analysis.verify_plan`) over the freshly compiled
    plan before it is returned or persisted — the opt-in post-compile
    trust seam.  ``None`` (default) defers to the
    ``REPRO_VERIFY_PLANS`` environment variable.  Plans loaded from
    ``plan_store`` are always verified by the store itself (disk bytes
    are untrusted); in-memory cache hits rebind plans this process
    already produced, so they are not re-verified.

    A label or parent atom in ``expr`` is a ``TypeError``, raised before
    any cache or store lookup.
    """
    _refuse_forest_atoms(expr)
    if (plan_cache is not None or plan_store is not None) \
            and coloring is None:
        key = plan_cache_key(structure, expr, dynamic_relations, optimize)
        if plan_cache is not None:
            template = plan_cache.lookup(key)
            if template is not None:
                return template.rebind(structure)
        if plan_store is not None:
            loaded = plan_store.load(key, structure, expr)
            if loaded is not None:
                if plan_cache is not None:
                    # Seed the memory tier: later lookups in this
                    # process must not touch disk again.
                    plan_cache.store(key, loaded.rebind(structure))
                return loaded
        compiled = compile_structure_query(
            structure, expr, dynamic_relations=dynamic_relations,
            optimize=optimize, verify=verify)
        # Store a pristine snapshot: the caller may mutate its plan's
        # recorded inputs, which must not drift the cached template away
        # from the content the key fingerprints.
        if plan_cache is not None:
            plan_cache.store(key, compiled.rebind(structure))
        if plan_store is not None:
            # Serialized immediately (before the caller can mutate the
            # plan); unserializable carriers skip quietly.
            plan_store.save(key, compiled)
        return compiled

    stage_seconds: Dict[str, float] = {}
    stamp = time.perf_counter()

    def _stage(name: str) -> None:
        # Accumulating (not assigning) lets the forest/compile stages
        # interleave per color subset and still report clean totals.
        nonlocal stamp
        now = time.perf_counter()
        stage_seconds[name] = stage_seconds.get(name, 0.0) + (now - stamp)
        stamp = now

    blocks = normalize(expr)
    width = max((len(b.vars) for b in blocks), default=0)
    dynamic = frozenset(dynamic_relations)
    _stage("normalize")

    builder = CircuitBuilder()
    recorded: Dict[Hashable, Tuple[str, object]] = {}
    tops: List[Optional[int]] = []

    constant_blocks = [b for b in blocks if not b.vars]
    variable_blocks = [b for b in blocks if b.vars]
    if constant_blocks:
        compiler = ForestCompiler(LabeledForest({}), builder,
                                  recorded=recorded)
        tops.append(compiler.compile_blocks(constant_blocks))
        _stage("forest_compiler")

    colors = color_subsets = max_forest_height = 0
    if variable_blocks and structure.domain:
        if coloring is None:
            coloring = low_treedepth_coloring(structure.gaifman(),
                                              max(width, 1))
        color_of = dict(coloring)
        palette = sorted(set(color_of.values()))
        colors = len(palette)
        _stage("coloring")
        # Query-only work once per compile, data-only work once per
        # tuple: the shape table answers every subset's decomposition,
        # the color buckets every subset's facts.
        shapes = ShapeTable()
        facts = ColoredFacts(structure, color_of)
        # A clique-guarded block hosts the clique color sets only; the
        # pruning holds under every write, since dynamic toggles stay
        # inside Gaifman cliques (CompiledQuery.write).
        guarded = [_clique_guarded(block) for block in variable_blocks]
        cliques = _clique_color_sets(structure.gaifman(), color_of, width) \
            if any(guarded) else set()
        _stage("forests")
        for size in range(1, width + 1):
            sized = [(block, guard)
                     for block, guard in zip(variable_blocks, guarded)
                     if len(block.vars) >= size]
            for subset in itertools.combinations(palette, size):
                hosted = [block for block, guard in sized
                          if not guard or subset in cliques]
                if not hosted:
                    continue
                forest = facts.forest(subset)
                if not len(forest):
                    continue
                for color in subset:
                    forest.labels[("color", color)] = set(
                        facts.members.get(color, ()))
                color_subsets += 1
                max_forest_height = max(max_forest_height, forest.height())
                _stage("forests")
                compiler = ForestCompiler(forest, builder,
                                          dynamic_relations=dynamic,
                                          recorded=recorded, shapes=shapes)
                tops.append(compiler.compile_blocks(hosted, subset))
                _stage("forest_compiler")

    stamp = time.perf_counter()
    circuit = builder.build(builder.add(tops))
    if optimize:
        circuit = optimize_circuit(circuit).circuit
        _stage("optimize")
    compiled = CompiledQuery(circuit, structure, structure.gaifman(),
                             recorded, dynamic, colors, color_subsets,
                             max_forest_height, _stage_seconds=stage_seconds)
    # Precompute the schedule now: the circuit is immutable from here on,
    # so its static tables are paid once per compile, and every batched
    # evaluation, maintained evaluator and enumeration context reuses them.
    stamp = time.perf_counter()
    compiled.schedule()
    _stage("schedule")
    # Post-compile trust seam (opt-in): catch a compiler/optimizer bug
    # at the source instead of deep inside an evaluation.  Imported
    # lazily — repro.core must not pay for repro.analysis on every use.
    from ..analysis.verify import verification_enabled
    if verification_enabled(verify):
        from ..analysis.verify import verify_plan
        verify_plan(compiled)
    return compiled
