"""Commutative semirings: the algebraic substrate of the whole framework.

The paper evaluates one and the same circuit in many semirings (boolean for
model checking, (N,+,*) for counting, tropical for optimisation, the free
semiring for provenance).  A :class:`Semiring` object packages the carrier
operations together with the capability flags the algorithms dispatch on:

* ``is_ring`` -- additive inverses exist, enabling the inclusion-exclusion
  permanent of Lemma 15 (constant-time updates);
* ``is_finite`` -- the carrier is finite, enabling the column-type counting
  permanent of Lemma 18 (constant-time updates, lasso arithmetic for ``n*s``);
* ``is_exact`` -- arithmetic does not round, so a ring's maintained sums may
  subtract an old summand instead of re-adding the others.

Elements are plain Python objects; a semiring never wraps them, it only
provides the operations.  This keeps hot loops allocation-free.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Optional, Sequence


class Semiring:
    """A commutative semiring ``(S, +, *, 0, 1)``.

    Subclasses must provide :attr:`zero`, :attr:`one`, :meth:`add` and
    :meth:`mul`.  ``+`` and ``*`` are commutative and associative, ``*``
    distributes over ``+``, and ``0 * s == 0`` for every ``s``.
    """

    #: Human-readable name used in reprs, benchmark tables and error messages.
    name: str = "semiring"

    #: True when additive inverses exist (see :meth:`neg`).
    is_ring: bool = False

    #: True when the carrier is finite (see :meth:`elements`).
    is_finite: bool = False

    #: True when ``+``, ``*`` and ``neg`` are computed without rounding,
    #: so ``(total - a) + b`` really replaces summand ``a`` by ``b``.
    #: False for floats, whose maintained sums must be re-added from the
    #: summands instead (see :func:`repro.algebra.make_sum_maintainer`).
    is_exact: bool = True

    #: True when ``+`` is declared commutative and associative, so partial
    #: aggregates may be folded in *any* order — micro-batch coalescing and
    #: cross-shard ``⊕``-merge (``repro.cluster``) both reorder additions
    #: freely.  Every commutative semiring satisfies this by definition;
    #: the flag exists so experimental carriers that bend the axioms (e.g.
    #: order-sensitive accumulators built on :class:`TableSemiring`'s
    #: machinery) can opt out and be *refused* by the serving layers
    #: instead of silently merged wrong.
    is_mergeable: bool = True

    zero: Any = None
    one: Any = None

    def add(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def mul(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    # -- optional capabilities -------------------------------------------------

    def neg(self, a: Any) -> Any:
        """Additive inverse; only available when :attr:`is_ring` is True."""
        raise NotImplementedError(f"{self.name} is not a ring")

    def sub(self, a: Any, b: Any) -> Any:
        """``a - b``; only available when :attr:`is_ring` is True."""
        return self.add(a, self.neg(b))

    def elements(self) -> Sequence[Any]:
        """All carrier elements; only available when :attr:`is_finite` is True."""
        raise NotImplementedError(f"{self.name} is not finite")

    # -- derived helpers -------------------------------------------------------

    def sum(self, items: Iterable[Any]) -> Any:
        """Fold ``+`` over ``items`` (empty sum is :attr:`zero`)."""
        acc = self.zero
        for item in items:
            acc = self.add(acc, item)
        return acc

    def prod(self, items: Iterable[Any]) -> Any:
        """Fold ``*`` over ``items`` (empty product is :attr:`one`)."""
        acc = self.one
        for item in items:
            acc = self.mul(acc, item)
        return acc

    def scale(self, n: int, a: Any) -> Any:
        """The ``n``-fold sum ``a + ... + a`` (``n <= 0`` gives zero).

        Rings override this with direct multiplication; finite semirings use
        lasso arithmetic (Lemma 38).  The default doubles, which is enough
        for the small scalars arising in query compilation.
        """
        if n <= 0:
            return self.zero
        result = self.zero
        addend = a
        while n:
            if n & 1:
                result = self.add(result, addend)
            n >>= 1
            if n:
                addend = self.add(addend, addend)
        return result

    def eq(self, a: Any, b: Any) -> bool:
        """Equality of carrier elements (overridable, e.g. float tolerance)."""
        return a == b

    def is_zero(self, a: Any) -> bool:
        return self.eq(a, self.zero)

    def coerce(self, value: Any) -> Any:
        """Interpret a generic constant (``0``/``1``/bool/int) in this semiring.

        Circuits store constants as small integers so the same circuit can be
        replayed in any semiring; ``coerce`` maps them into the carrier as
        ``value``-fold sums of :attr:`one`.
        """
        if isinstance(value, bool):
            return self.one if value else self.zero
        if isinstance(value, int):
            if value >= 0:
                return self.scale(value, self.one)
            if self.is_ring:
                return self.neg(self.scale(-value, self.one))
            raise ValueError(f"cannot coerce negative {value} into {self.name}")
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Semiring {self.name}>"


def ensure_mergeable(sr: Semiring,
                     context: Optional[str] = None) -> Semiring:
    """Refuse a semiring whose ``⊕`` is not declared safe to reorder.

    The serving layers fold partial aggregates in arrival order
    (micro-batches) or shard order (cluster merge); a semiring that has
    not declared its addition commutative/associative
    (``is_mergeable``) would be merged in an order the query never
    specified — refused here, eagerly, at service construction.
    """
    if getattr(sr, "is_mergeable", True):
        return sr
    where = f" for {context}" if context else ""
    raise ValueError(
        f"semiring {getattr(sr, 'name', sr)!r} does not declare its "
        f"addition commutative/associative (is_mergeable=False); "
        f"partial-aggregate merge{where} would fold ⊕ in an order the "
        f"query never specified — use a mergeable semiring or evaluate "
        f"through PreparedQuery directly")


class Homomorphism:
    """A semiring homomorphism ``h : source -> target``.

    Homomorphisms commute with permanents (used in Lemma 23: the support map
    ``F_A -> B`` turns enumerator permanents into boolean matching tests).
    """

    def __init__(self, source: Semiring, target: Semiring,
                 fn: Callable[[Any], Any], name: str = "hom"):
        self.source = source
        self.target = target
        self.fn = fn
        self.name = name

    def __call__(self, value: Any) -> Any:
        return self.fn(value)

    def check_on(self, samples: Sequence[Any]) -> None:
        """Assert the homomorphism laws on a finite sample (test helper)."""
        src, tgt, h = self.source, self.target, self.fn
        assert tgt.eq(h(src.zero), tgt.zero), f"{self.name}: h(0) != 0"
        assert tgt.eq(h(src.one), tgt.one), f"{self.name}: h(1) != 1"
        for a, b in itertools.product(samples, repeat=2):
            assert tgt.eq(h(src.add(a, b)), tgt.add(h(a), h(b)))
            assert tgt.eq(h(src.mul(a, b)), tgt.mul(h(a), h(b)))


def check_semiring_axioms(sr: Semiring, samples: Sequence[Any]) -> None:
    """Assert all commutative-semiring axioms on a finite sample.

    Used by the test suite (including hypothesis-generated samples) to
    validate every concrete semiring and every user-supplied table semiring.
    """
    eq, add, mul = sr.eq, sr.add, sr.mul
    zero, one = sr.zero, sr.one
    for a in samples:
        assert eq(add(a, zero), a), f"{sr.name}: a+0 != a for {a!r}"
        assert eq(mul(a, one), a), f"{sr.name}: a*1 != a for {a!r}"
        assert eq(mul(a, zero), zero), f"{sr.name}: a*0 != 0 for {a!r}"
    for a, b in itertools.product(samples, repeat=2):
        assert eq(add(a, b), add(b, a)), f"{sr.name}: + not commutative"
        assert eq(mul(a, b), mul(b, a)), f"{sr.name}: * not commutative"
    for a, b, c in itertools.product(samples, repeat=3):
        assert eq(add(add(a, b), c), add(a, add(b, c))), f"{sr.name}: + not associative"
        assert eq(mul(mul(a, b), c), mul(a, mul(b, c))), f"{sr.name}: * not associative"
        assert eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c))), \
            f"{sr.name}: * does not distribute over +"
    if sr.is_ring:
        for a in samples:
            assert eq(add(a, sr.neg(a)), zero), f"{sr.name}: a + (-a) != 0"
