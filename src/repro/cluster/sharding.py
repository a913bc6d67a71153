"""Domain sharding: Gaifman components routed to shared-nothing shards.

The paper's locality is what makes sharding *exact* rather than
approximate: a query value over a disjoint union of structures is the
semiring ``⊕`` of the per-structure values, provided no witness ever
spans two parts.  The sharder guarantees that by construction — the
unit of placement is a **connected component of the Gaifman graph**
(elements adjacent when they co-occur in a relation tuple or weight),
so *no relation tuple or weight tuple can ever cross a shard*.  That is
the cross-shard-tuple policy: there are none, ever, for the built-in
policies; a custom ``assign`` that would split a tuple is refused with
:class:`~repro.cluster.ShardingError` (splitting it would silently
break the ``⊕``-merge identity, the one invariant the cluster rests
on).  The same applies to writes: a relation toggle that would create a
cross-shard Gaifman edge is refused by the gateway.

Two placement policies:

* ``"hash"`` — a stable content digest of each component's
  representative element (``hashlib``, never the process-salted builtin
  ``hash``) picks the shard: balanced in expectation, and a component
  keeps its shard across domain reorderings.
* ``"contiguous"`` — components are packed into domain-order runs of
  near-equal element count: locality-preserving for range-shaped
  workloads, deterministic given the domain order.

:func:`check_shardable` is the companion query-side guarantee: it
accepts exactly the expressions whose nonzero-contributing witnesses
are provably Gaifman-connected (per additive term: positive-conjunctive
brackets, every variable linked through shared atoms/weights, every
term mentioning every free variable), and refuses the rest — negation,
disjunction-dependent connectivity, universal quantifiers, constant
terms — whose shard-local evaluation could diverge from the global one.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..logic import (And, Atom, Bracket, Eq, Exists, Forall, Formula,
                     LabelAtom, Not, Or, Truth, WAdd, WConst, WExpr, WMul,
                     WSum, Weight)
from ..structures import Structure
from .protocol import ShardingError

__all__ = ["ShardPlan", "shard_structure", "connected_components",
           "check_shardable", "validate_shard_policy"]

Element = Any
Tup = Tuple[Element, ...]


def connected_components(structure: Structure) -> List[List[Element]]:
    """The Gaifman graph's connected components, each in domain order,
    listed by their first element's domain position."""
    graph = structure.gaifman()
    position = {element: index
                for index, element in enumerate(structure.domain)}
    seen: Set[Element] = set()
    components: List[List[Element]] = []
    for root in structure.domain:
        if root in seen:
            continue
        stack = [root]
        seen.add(root)
        members = [root]
        while stack:
            node = stack.pop()
            for neighbor in graph.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    members.append(neighbor)
                    stack.append(neighbor)
        members.sort(key=position.__getitem__)
        components.append(members)
    return components


class ShardPlan:
    """One domain partition: k shard structures plus the owner map.

    ``shards[i]`` is a full-schema :class:`Structure` over the i-th
    slice of the domain (every relation/weight *name* is declared on
    every shard — empty where the shard holds no tuples — so workers
    accept any routed update or query); ``owner`` maps every domain
    element to its shard index.  ``len(shards)`` may be smaller than
    ``requested`` when the structure has fewer Gaifman components than
    requested shards — a shard cannot be emptier than empty.
    """

    def __init__(self, shards: List[Structure],
                 owner: Dict[Element, int], policy: str,
                 requested: int, components: int):
        self.shards = shards
        self.owner = owner
        self.policy = policy
        self.requested = requested
        self.components = components

    def owner_of(self, element: Element) -> int:
        """The shard index owning ``element`` (KeyError when unknown)."""
        try:
            return self.owner[element]
        except KeyError:
            raise KeyError(f"{element!r} is not in the structure's "
                           f"domain") from None

    def shard_of_tuple(self, tup: Iterable[Element]) -> int:
        """The single shard owning every element of ``tup``.

        Raises :class:`ShardingError` for a tuple spanning shards —
        admitting it (as a relation tuple or weight) would create a
        cross-shard Gaifman edge and silently break the ``⊕``-merge
        identity, so the policy is refusal.
        """
        owners = {self.owner_of(element) for element in tup}
        if len(owners) > 1:
            raise ShardingError(
                f"tuple {tuple(tup)!r} spans shards {sorted(owners)}; "
                f"cross-shard tuples are refused — they would break the "
                f"per-shard ⊕-merge identity (re-shard with the tuple "
                f"present to co-locate its component)")
        if not owners:
            raise ShardingError("cannot route the empty tuple to a shard")
        return owners.pop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = [len(shard.domain) for shard in self.shards]
        return (f"<ShardPlan {self.policy} shards={len(self.shards)} "
                f"sizes={sizes}>")


def _hash_assignment(components: List[List[Element]],
                     shards: int) -> List[int]:
    """Stable component placement: content digest of the representative."""
    placement = []
    for members in components:
        digest = hashlib.sha256(repr(members[0]).encode("utf-8")).digest()
        placement.append(int.from_bytes(digest[:8], "big") % shards)
    return placement


def _contiguous_assignment(components: List[List[Element]],
                           shards: int) -> List[int]:
    """Domain-order runs of near-equal element count."""
    total = sum(len(members) for members in components)
    placement = []
    shard, filled = 0, 0
    for members in components:
        placement.append(shard)
        filled += len(members)
        # Advance once this shard reached its proportional share;
        # the last shard absorbs any remainder.
        while shard < shards - 1 and filled >= (shard + 1) * total / shards:
            shard += 1
    return placement


#: ``shard_policy`` -> how components are assigned to shards.
_POLICIES = {"hash": _hash_assignment, "contiguous": _contiguous_assignment}


def validate_shard_policy(policy: str) -> str:
    """Validate a ``shard_policy`` string; returns it unchanged.  Same
    eager-refusal discipline as ``validate_backend``: a bad knob fails
    at construction (:class:`repro.api.ExecOptions` included), never
    inside a dispatcher thread."""
    if policy not in _POLICIES:
        raise ValueError(f"unknown shard_policy {policy!r}; expected "
                         f"'hash' or 'contiguous'")
    return policy


def shard_structure(structure: Structure, shards: int,
                    policy: str = "hash",
                    assign: Optional[Dict[Element, int]] = None
                    ) -> ShardPlan:
    """Partition ``structure`` into at most ``shards`` shard structures.

    Placement is per Gaifman component (see the module docstring), by
    ``policy`` — or by the explicit ``assign`` mapping (element → shard
    index), which is validated: every element placed, indices in range,
    and **no relation or weight tuple split across shards** (refused
    with :class:`ShardingError`; that is the cross-shard-tuple policy).
    Empty shards are dropped, so the plan may hold fewer shards than
    requested.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    components = connected_components(structure)
    if assign is not None:
        missing = [element for element in structure.domain
                   if element not in assign]
        if missing:
            raise ShardingError(f"assign does not place {missing[0]!r} "
                                f"(and {len(missing) - 1} more)")
        out_of_range = {index for index in assign.values()
                        if not 0 <= index < shards}
        if out_of_range:
            raise ShardingError(f"assign uses shard indices "
                                f"{sorted(out_of_range)} outside "
                                f"0..{shards - 1}")
        owner = {element: assign[element] for element in structure.domain}
        policy = "custom"
    else:
        placement = _POLICIES[validate_shard_policy(policy)](components,
                                                             shards)
        owner = {}
        for members, shard in zip(components, placement):
            for element in members:
                owner[element] = shard

    # Build the shard structures, validating tuple locality as we route.
    used = sorted({owner[element] for element in structure.domain})
    renumber = {old: new for new, old in enumerate(used)}
    owner = {element: renumber[shard] for element, shard in owner.items()}
    domains: List[List[Element]] = [[] for _ in used]
    for element in structure.domain:
        domains[owner[element]].append(element)
    parts = [Structure(domain) for domain in domains]
    for name, tuples in structure.relations.items():
        for tup in tuples:
            shard = _route(owner, name, tup)
            parts[shard].add_tuple(name, tup)
    for name, mapping in structure.weights.items():
        for tup, value in mapping.items():
            shard = _route(owner, name, tup)
            parts[shard].set_weight(name, tup, value)
    for part in parts:
        # Full schema everywhere: a shard that happens to hold no
        # tuples of a relation must still declare its name and arity.
        for name in structure.relations:
            part.relations.setdefault(name, set())
        for name in structure.weights:
            part.weights.setdefault(name, {})
        part._arity.update(structure._arity)
    return ShardPlan(parts, owner, policy, shards, len(components))


def _route(owner: Dict[Element, int], name: str, tup: Tup) -> int:
    owners = {owner[element] for element in tup}
    if len(owners) != 1:
        raise ShardingError(
            f"{name}{tuple(tup)!r} spans shards {sorted(owners)}; the "
            f"assignment splits a Gaifman component — cross-shard tuples "
            f"are refused (they would break the ⊕-merge identity)")
    return owners.pop()


# -- query-side shardability ------------------------------------------------------

def check_shardable(expr: WExpr) -> None:
    """Refuse expressions whose shard-local evaluation could diverge.

    Sound sufficient condition, per top-level additive term: (a) only
    positive-conjunctive connective structure contributes guaranteed
    Gaifman edges (``And``/``Exists``/products union edges;
    ``Or``/``WAdd`` keep only edges common to every branch; ``Not`` of
    a quantifier-free subformula contributes none; ``Forall`` and
    negated/disjoined quantifiers are refused — a shard-local
    quantifier ranges over the shard's domain, not the global one);
    (b) the term's variables form **one** connected component under
    those edges; (c) the term mentions every free variable of the
    query.  Together these guarantee every nonzero-contributing witness
    is Gaifman-connected through its bound elements, hence wholly
    inside one shard — which is exactly what the gateway's
    route-to-owner / fan-out-⊕ evaluation assumes.
    """
    free = expr.free_vars()
    terms = list(expr.parts) if isinstance(expr, WAdd) else [expr]
    for term in terms:
        variables: Set[str] = set()
        edges: Set[FrozenSet[str]] = set()
        _gather_expr(term, variables, edges)
        if not variables:
            raise ShardingError(
                f"term {term!r} mentions no variables; a constant term "
                f"is added once globally but once *per shard* by the "
                f"⊕-merge — fold it into a weight or serve unsharded")
        if not free <= variables:
            missing = sorted(free - variables)
            raise ShardingError(
                f"term {term!r} never mentions parameter(s) "
                f"{', '.join(missing)}; a shard evaluates the whole "
                f"expression locally, so every additive term must "
                f"constrain every free variable")
        if not _connected(variables, edges):
            raise ShardingError(
                f"term {term!r} has variables not linked by any shared "
                f"atom or weight; its witnesses may span shards, which "
                f"the per-shard ⊕-merge cannot see — only "
                f"Gaifman-connected queries are shardable")


def _connected(variables: Set[str], edges: Set[FrozenSet[str]]) -> bool:
    if len(variables) <= 1:
        return True
    reached = {next(iter(variables))}
    frontier = list(reached)
    adjacency: Dict[str, Set[str]] = {var: set() for var in variables}
    for edge in edges:
        pair = tuple(edge)
        if len(pair) == 2:
            adjacency[pair[0]].add(pair[1])
            adjacency[pair[1]].add(pair[0])
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency.get(node, ()):
            if neighbor not in reached:
                reached.add(neighbor)
                frontier.append(neighbor)
    return reached == variables


def _clique(vars_: Iterable[str], variables: Set[str],
            edges: Set[FrozenSet[str]]) -> None:
    names = [var for var in vars_ if isinstance(var, str)]
    variables.update(names)
    for i, left in enumerate(names):
        for right in names[i + 1:]:
            if left != right:
                edges.add(frozenset((left, right)))


def _gather_expr(expr: WExpr, variables: Set[str],
                 edges: Set[FrozenSet[str]]) -> None:
    if isinstance(expr, WConst):
        return
    if isinstance(expr, Weight):
        _clique(expr.terms, variables, edges)
        return
    if isinstance(expr, Bracket):
        _gather_formula(expr.formula, variables, edges)
        return
    if isinstance(expr, WMul):
        for part in expr.parts:
            _gather_expr(part, variables, edges)
        return
    if isinstance(expr, WAdd):
        _gather_branches([_collected_expr(part) for part in expr.parts],
                         variables, edges)
        return
    if isinstance(expr, WSum):
        variables.update(expr.vars)
        _gather_expr(expr.inner, variables, edges)
        return
    raise ShardingError(f"cannot prove {type(expr).__name__} shardable; "
                        f"serve it unsharded")


def _gather_formula(formula: Formula, variables: Set[str],
                    edges: Set[FrozenSet[str]]) -> None:
    if isinstance(formula, (Truth, LabelAtom)):
        variables.update(formula.free_vars())
        return
    if isinstance(formula, Atom):
        _clique(formula.terms, variables, edges)
        return
    if isinstance(formula, Eq):
        # x = y forces the witness elements to coincide — trivially
        # co-located, so equality *is* a connectivity edge.
        _clique((formula.left, formula.right), variables, edges)
        return
    if isinstance(formula, And):
        for part in formula.parts:
            _gather_formula(part, variables, edges)
        return
    if isinstance(formula, Or):
        _gather_branches([_collected_formula(part)
                          for part in formula.parts], variables, edges)
        return
    if isinstance(formula, Not):
        if not _quantifier_free(formula.inner):
            raise ShardingError(
                "negated quantifiers are not shardable: a shard-local "
                "∃/∀ ranges over the shard's domain, not the global one")
        # A satisfied negation guarantees no tuple *presence*, hence no
        # Gaifman edges — but its variables still count.
        variables.update(formula.free_vars())
        return
    if isinstance(formula, Exists):
        variables.update(formula.vars)
        _gather_formula(formula.inner, variables, edges)
        return
    if isinstance(formula, Forall):
        raise ShardingError(
            "∀ is not shardable: a shard-local universal ranges over "
            "the shard's domain, so its truth diverges from the global "
            "structure's")
    raise ShardingError(f"cannot prove {type(formula).__name__} "
                        f"shardable; serve it unsharded")


def _collected_expr(expr: WExpr
                    ) -> Tuple[Set[str], Set[FrozenSet[str]]]:
    variables: Set[str] = set()
    edges: Set[FrozenSet[str]] = set()
    _gather_expr(expr, variables, edges)
    return variables, edges


def _collected_formula(formula: Formula
                       ) -> Tuple[Set[str], Set[FrozenSet[str]]]:
    variables: Set[str] = set()
    edges: Set[FrozenSet[str]] = set()
    _gather_formula(formula, variables, edges)
    return variables, edges


def _gather_branches(collected: List[Tuple[Set[str], Set[FrozenSet[str]]]],
                     variables: Set[str],
                     edges: Set[FrozenSet[str]]) -> None:
    """Alternatives guarantee only what *every* branch guarantees."""
    for branch_vars, _ in collected:
        variables.update(branch_vars)
    if collected:
        common = set(collected[0][1])
        for _, branch_edges in collected[1:]:
            common &= branch_edges
        edges.update(common)


def _quantifier_free(formula: Formula) -> bool:
    if isinstance(formula, (Exists, Forall)):
        return False
    parts: Tuple[Formula, ...] = ()
    if isinstance(formula, (And, Or)):
        parts = formula.parts
    elif isinstance(formula, Not):
        parts = (formula.inner,)
    return all(_quantifier_free(part) for part in parts)
