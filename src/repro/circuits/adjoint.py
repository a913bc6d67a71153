"""The adjoint pass: every group of a one-key batch from one reverse sweep.

A query ``f(x)`` with one free variable compiles as the closed form
``Σ_a f(a) · sel(a)`` (:mod:`repro.core.closure`), so every monomial of
the circuit's output holds exactly one selector.  Read as a polynomial
in the selectors over any commutative semiring, the output is linear,
and ``f(a)`` is the coefficient of ``sel(a)``: its formal derivative.
The derivative is a derivation (``d(u + v) = du + dv``, ``d(uv) = u dv
+ v du``), so the reverse sweep of adjoints — the product rule pushed
from the output down, as in Baur–Strassen — computes every selector's
derivative at once, in O(circuit), in any commutative semiring: no
subtraction or division is needed.  Evaluated with every selector at
rest (the semiring zero), the derivative of ``sel(a)`` is exactly
``f(a)``: a monomial with a second selector vanishes there.

:class:`AdjointEvaluator` runs it over the vector plan:

* the base valuation (selectors at zero) is the delta pass's memoized
  base sweep (:meth:`VectorizedEvaluator._base_sweep`);
* ``adj[output] = one``; the plan's groups are visited in reverse level
  order, and an ``add`` group pushes ``adj(g)`` to each operand, a
  ``mul`` group ``adj(g) ⊗ (the product of the other operands)``, taken
  from prefix and suffix ``accumulate`` of the operands' base values;
  pushes land through the kernel's addition ``ufunc.at``;
* ``f(a) = adj[slot of sel(a)]``, or the base output for an element
  with no live selector (which is what the other passes read for it).

The adjoint vector lives for one call: it is never memoized, so it is
not a second result cache.

Results equal the delta pass's bit for bit only when the arithmetic is
exact, because the reverse sweep forms its sums and products in another
order.  :func:`adjoint_pays` offers the pass only then (:func:`exact`),
never to a plan with a permanent group (no rectangular adjoint), and
lets the cost rule pick it only when it is cheaper than both the dense
sweep and the delta pass (:func:`~repro.circuits.vectorized.pass_costs`).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..semirings import Semiring
from .schedule import KIND_ADD, KIND_PERM
from .vector_plan import (_DEGREE_CAP, _MASS_CAP, VectorPlan, bound_within,
                          by_degree, input_bound, rank_growth)
from .vectorized import (ArrayKernel, PreparedBase, Scatter,
                         VectorizedEvaluator, _cast, pass_costs)

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: The adjoint pass's price in dense cells (one gate under one
#: valuation): a fixed ``ADJOINT_PASS_CELLS`` plus ``ADJOINT_RANK_COST``
#: per rank of the plan, whatever the batch width.  It runs when it is
#: below both the dense sweep's and the delta pass's price.  Fitted
#: (least summed relative regret, the other two passes' constants
#: kept) on DEGREE over 12x12 to 32x32 grids at 1 to |D| columns,
#: ``N``, min-plus and ``R``, 2-vCPU host, with a 64-key batch on the
#: 32x32 grid kept on the delta pass: the reverse sweep takes
#: 0.1-0.15 ms plus ~0.016 us per rank (README, "Grouped aggregation").
ADJOINT_PASS_CELLS = 5_000
ADJOINT_RANK_COST = 10

#: Magnitude up to which float64 sums and products of integers are exact.
_FLOAT_WINDOW = 2 ** 53 - 1


def adjoint_bound(plan: VectorPlan, window: int) -> Optional[int]:
    """M* of the adjoint pass: the largest input magnitude under which
    neither the base values nor any adjoint value, partial sums and
    products included, leaves ``[-window, window]`` (``None`` when no
    magnitude guarantees it).  Memoized per window on the plan.

    An adjoint is bounded like a value (:func:`~repro.circuits.
    vector_plan.input_bound`), by ``amass * max(1, M) ** adegree``: the
    output has amass 1 and adegree 0; an addition hands each operand
    its own pair; a multiplication hands each operand its amass times
    the other operands' ``max(1, mass)`` and its adegree plus their
    degrees; an operand sums what it is handed and keeps the largest
    adegree.  A push is bounded by its share and a partial sum of
    pushes by their total; the products of the other operands are
    partial products of the gate's own value."""
    bounds = plan._adjoint_bounds
    if window not in bounds:
        growth = rank_growth(plan)
        forward = input_bound(plan, window)
        bound = None
        if growth is not None and forward is not None:
            bound = bound_within(by_degree(*_adjoint_growth(plan, *growth)),
                                 window)
        bounds[window] = None if bound is None else min(bound, forward)
    return bounds[window]


def _adjoint_growth(plan: VectorPlan, mass: Any, degree: Any
                    ) -> Tuple[Any, Any]:
    """Every rank's adjoint ``(amass, adegree)`` (see
    :func:`adjoint_bound`), capped like the forward pair."""
    amass = _np.zeros(plan.size, dtype=object)
    adegree = _np.zeros(plan.size, dtype=_np.int64)
    amass[plan.output] = 1
    for groups in reversed(plan.levels):
        for group in groups:
            children = group.children
            seeds = amass[group.start:group.stop, None]
            seed_degrees = adegree[group.start:group.stop, None]
            if group.kind == KIND_ADD:
                shares = _np.broadcast_to(seeds, children.shape)
                degrees = _np.broadcast_to(seed_degrees, children.shape)
            else:
                shares = seeds * _others(_np.multiply, _np.maximum(
                    mass[children], 1), 1)
                operands = degree[children]
                degrees = seed_degrees + operands.sum(axis=1)[:, None] \
                    - operands
            _np.add.at(amass, children.ravel(), shares.ravel())
            _np.maximum.at(adegree, children.ravel(), degrees.ravel())
        amass = _np.minimum(amass, _MASS_CAP)
        adegree = _np.minimum(adegree, _DEGREE_CAP)
    return amass, adegree


def _others(mul: Any, operands: Any, one: Any) -> Any:
    """``(g, f)`` -> ``(g, f)``: at ``[i, j]`` the ``mul`` product of
    row ``i``'s operands other than ``j``, from one prefix and one
    suffix ``accumulate``."""
    fan_in = operands.shape[1]
    others = _np.empty_like(operands)
    if fan_in == 1:
        others.fill(one)
        return others
    prefix = mul.accumulate(operands[:, :-1], axis=1)
    suffix = mul.accumulate(operands[:, :0:-1], axis=1)[:, ::-1]
    others[:, 0] = suffix[:, 0]
    others[:, -1] = prefix[:, -1]
    mul(prefix[:, :-1], suffix[:, 1:], out=others[:, 1:-1])
    return others


def _ufuncs(kernel: ArrayKernel) -> Tuple[Any, Any]:
    """The kernel's addition and multiplication ufuncs (``None`` for a
    reduction that is not a ufunc's own)."""
    return tuple(getattr(reduce_, "__self__", None)  # type: ignore
                 for reduce_ in (kernel.add_reduce, kernel.mul_reduce))


def exact(plan: VectorPlan, base: PreparedBase, kernel: ArrayKernel,
          sr: Semiring) -> bool:
    """Whether the adjoint pass computes what the delta pass computes,
    bit for bit, over ``base``: its arithmetic is exact.

    * a guarded native kernel (``N``/``Z`` int64, ``Q`` f64int): when
      the delta pass's certificate (the base magnitude and ``one``
      within M*) holds, so does the adjoint's (:func:`adjoint_bound`);
      when it fails, both passes run on the exact object kernel;
    * an object kernel — an exact carrier's fallback or any carrier's
      generic ``<name>-pyfunc`` kernel — when the carrier is exact, and
      every carrier whose ``+`` and ``*`` are ``min``/``max`` (they only
      select);
    * ``float64`` sums and products (``R``) or min/max-plus: an
      integer-valued base (the carrier zero aside, for the tropical
      ones) whose every formed value stays below 2^53 — by
      :func:`adjoint_bound`, or, where ``*`` is ``+``, by the plan's
      largest degree times the base magnitude.  The base's
      :meth:`~repro.circuits.vectorized.PreparedBase.profile` is
      memoized, so this reads the column once per write."""
    add, mul = _ufuncs(kernel)
    if not (isinstance(add, _np.ufunc) and isinstance(mul, _np.ufunc)):
        return False
    if kernel.window is not None:
        magnitude = base.magnitude()
        forward = input_bound(plan, kernel.window)
        adjoint = adjoint_bound(plan, kernel.window)
        return forward is None or max(magnitude, 1) > forward \
            or (adjoint is not None and magnitude <= adjoint)
    selections = (_np.minimum, _np.maximum)
    if add in selections and mul in selections:
        return True
    if kernel.dtype == object:
        return sr.is_exact
    if kernel.dtype != _np.float64:
        return False
    integral, magnitude, infinities = base.profile()
    if not integral:
        return False
    if (add, mul) == (_np.add, _np.multiply):
        bound = adjoint_bound(plan, _FLOAT_WINDOW)
        return not infinities and bound is not None and magnitude <= bound
    if add in selections and mul is _np.add:
        growth = rank_growth(plan)
        if growth is None or not infinities <= {sr.zero}:
            return False
        top = int(growth[1].max(initial=0))
        return top < _DEGREE_CAP and top * magnitude <= _FLOAT_WINDOW
    return False


def adjoint_pays(plan: VectorPlan, base: PreparedBase, kernel: ArrayKernel,
                 sr: Semiring, scatter: Scatter) -> bool:
    """The cost rule's third arm, for a batch of one-key point reads
    (``scatter``: each column raises one selector to ``one``): whether
    the adjoint pass runs — it is cheaper than both other passes, the
    plan has no permanent group, and its arithmetic is :func:`exact`."""
    price = ADJOINT_PASS_CELLS + ADJOINT_RANK_COST * plan.size
    return price < min(pass_costs(plan, scatter.slots, scatter.width)) \
        and not any(group.kind == KIND_PERM
                    for level in plan.levels for group in level) \
        and exact(plan, base, kernel, sr)


class AdjointEvaluator(VectorizedEvaluator):
    """A one-key batch of point reads answered by one reverse sweep
    (module docstring).  Built like the delta pass, through
    :meth:`~VectorizedEvaluator.from_scatter` over a prepared base and a
    scatter of the batch's selector slots; answers through the same
    accessors, for the output only (``values_of`` another gate raises
    ``KeyError``).  ``pass_used`` is ``"adjoint"`` and ``cells`` the
    plan's ranks, each visited once, plus the base sweep's when this
    evaluation had to run it."""

    def _run_overrides(self, base: PreparedBase, scatter: Scatter) -> None:
        self.pass_used = "adjoint"
        swept = self._base_sweep(base)
        self._certify(base.magnitude, bound_of=adjoint_bound)
        values = self._carried(swept.kernel, swept._values[:, 0])
        adjoints = self._reverse(values)
        self.cells += self.plan.size
        answers = _np.repeat(values[[self.plan.output]], self.batch_size)
        answers[scatter.cols] = adjoints[scatter.slots]
        self._answers = answers

    def _reverse(self, values: Any) -> Any:
        """Every rank's adjoint at the base valuation ``values``."""
        plan = self.plan
        add, mul = _ufuncs(self.kernel)
        units = _cast(self.kernel, [self.sr.zero, self.sr.one])
        adjoints, one = _np.repeat(units[:1], plan.size), units[1]
        adjoints[plan.output] = one
        for groups in reversed(plan.levels):
            for group in groups:
                children = group.children
                seeds = adjoints[group.start:group.stop, None]
                if group.kind == KIND_ADD:
                    shares = _np.broadcast_to(seeds, children.shape)
                else:
                    shares = mul(seeds, _others(mul, values[children], one))
                add.at(adjoints, children.ravel(), shares.ravel())
        return adjoints

    def _row(self, rank: int) -> Any:
        if rank != self.plan.output:
            raise KeyError(f"the adjoint pass holds the output row only, "
                           f"not rank {rank}")
        return self._answers
