"""The forest compiler: Case 1 of Theorem 6 (Lemma 29).

Compiles sum-of-product blocks over a labeled bounded-depth forest into a
circuit with permanent gates:

1. enumerate the shapes of the block's variable tuple (Lemma 32's mutually
   exclusive decomposition into basic expressions);
2. partially evaluate every bracket under the shape — equalities and parent
   atoms collapse to constants, relation atoms become unary label tests —
   and expand the small residual into an exclusive DNF (Shannon paths);
3. attach the resulting per-class factor lists and run the Claim-1
   recursion bottom-up over the data forest: the gate of a shape fragment
   at node ``v`` is the product of its factors at ``v`` with a permanent
   over (child fragments) x (children of ``v``).

Fragments are hash-consed across shapes and nodes, so the circuit is a DAG
of size linear in the forest with query-dependent constants, bounded depth
(twice the forest height) and bounded fan-out — the Theorem 6 guarantees.

Steps 1-2 are a function of the expression and of a few small facts about
the forest, never of the data: a :class:`ShapeTable` computes them once
per compile and every forest's compiler (step 3) reads them from it.

Step 3 pays only for the nodes a fragment can live at:

* the gate table is *fragment-major*: ``gates[fragment]`` maps each node
  where the fragment's gate is nonzero to that gate, in depth-list order,
  and stores nothing where it is zero.  A one-row permanent over the
  forest roots is then the sum of the table's values (depth 0 lists the
  roots in ``forest.roots`` order), and a permanent row reads
  ``table.get(node)``;
* a fragment is tried only at its *candidate* nodes: the nodes of its
  depth that pass its *leading static tests*, the static label tests
  sorted before its first factor that interns a gate (a dynamic label, a
  selector or a weight — a fragment's factors are sorted by ``repr``, so
  its color tests come first).  A node failing one of those returns zero
  before it interns or records anything, so skipping it leaves gate ids
  and ``recorded`` exactly as a visit would.  Only that prefix may be
  skipped: a node failing a *later* static test has already interned the
  inputs before it (EDGE_F's ``reltup`` test follows the dynamic ``S``
  input), and those ids are part of the plan.

Each fragment is planned once per forest — static or dynamic decided,
label sets and weight supports bound — so the per-node work is the plan's
loop and the children's table lookups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from ..circuits import CircuitBuilder, GateId
from ..logic import Block
from ..logic.fo import (FALSE, TRUE, Atom, Eq, Formula, FuncAtom, LabelAtom,
                        Truth, assign_atoms, atoms_of, conj, map_atoms)
from ..structures import LabeledForest
from .closure import SELECTED, Selector, selector_key
from .shapes import ClassId, Shape, enumerate_shapes

# A factor attached to a shape class, evaluated per data node:
#   ("label", key, positive)  -- 0/1 test of a forest label
#   ("select", position)      -- the selector input of (position, node)
#   ("weight", name)          -- the input gate (name, node)
Factor = Tuple


@dataclass(frozen=True)
class Fragment:
    """A rooted sub-shape with per-class factors, canonical & hash-consed.

    Fragments key every gate table, so the hash is computed once, at
    construction, and the sort key on first use."""

    depth: int
    factors: Tuple[Factor, ...]
    children: Tuple["Fragment", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash",
                           hash((self.depth, self.factors, self.children)))
        object.__setattr__(self, "_sort_key", None)

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> str:
        key = self._sort_key
        if key is None:
            key = repr((self.depth, self.factors,
                        tuple(c.sort_key() for c in self.children)))
            object.__setattr__(self, "_sort_key", key)
        return key


def chain_info(shape: Shape, terms: Sequence[str]):
    """Depth pattern of a term tuple when its classes lie on one root-path.

    Returns ``(depths, deepest_var)`` or ``None`` when some pair of terms is
    incomparable under the shape (a tuple of a relation or weight is a
    clique of the Gaifman graph, hence a chain in any covering forest, so
    incomparable shapes contribute nothing).
    """
    distinct = list(dict.fromkeys(terms))
    for i, a in enumerate(distinct):
        for b in distinct[i + 1:]:
            if shape.relation(a, b)[0] == "incomparable":
                return None
    depths = tuple(shape.depth_of[t] for t in terms)
    deepest = max(terms, key=lambda t: shape.depth_of[t])
    return depths, deepest


def residual_formula(formula: Formula, shape: Shape) -> Formula:
    """Partial evaluation of a bracket under a shape (step 2 above)."""
    def resolve(atom: Formula) -> Formula:
        if isinstance(atom, Truth):
            return atom
        if isinstance(atom, Eq):
            return Truth(shape.same_node(atom.left, atom.right))
        if isinstance(atom, LabelAtom):
            return atom
        if isinstance(atom, Atom):
            if len(atom.terms) == 1:
                return LabelAtom(("rel", atom.relation), atom.terms[0])
            info = chain_info(shape, atom.terms)
            if info is None:
                return FALSE
            depths, deepest = info
            return LabelAtom(("reltup", atom.relation, depths), deepest)
        if isinstance(atom, FuncAtom):
            func = atom.func
            if isinstance(func, tuple) and func and func[0] == "parent":
                steps = func[1] if len(func) > 1 else 1
                target_depth = shape.depth_of[atom.arg] - steps
                target = shape.ancestor_class(atom.arg, target_depth)
                return Truth(target == shape.var_class[atom.out])
            if func == "parent":
                target = shape.ancestor_class(
                    atom.arg, shape.depth_of[atom.arg] - 1)
                return Truth(target == shape.var_class[atom.out])
        raise TypeError(f"forest compiler cannot resolve atom {atom!r}")

    return map_atoms(formula, resolve)


def exclusive_assignments(formula: Formula) -> List[Dict[LabelAtom, bool]]:
    """Shannon expansion: mutually exclusive partial assignments of the
    formula's atoms that make it true (they partition the satisfying set)."""
    formula = assign_atoms(formula, {})
    if formula == TRUE:
        return [{}]
    if formula == FALSE:
        return []
    atom = atoms_of(formula)[0]
    out: List[Dict[LabelAtom, bool]] = []
    for value in (True, False):
        reduced = assign_atoms(formula, {atom: value})
        for assignment in exclusive_assignments(reduced):
            assignment[atom] = value
            out.append(assignment)
    return out


def required_comparable(block: Block) -> Set[FrozenSet[str]]:
    """Pairs of variables that every contributing tuple embeds on one
    root-path.  Two sound sources: (i) variables sharing a weight factor
    (weights are supported on cliques, hence chains); (ii) pairs whose
    crossing atoms, when forced false, make the bracket conjunction
    unsatisfiable as a boolean abstraction."""
    forced: Set[FrozenSet[str]] = set()
    for _, terms in block.weight_factors:
        for x, y in itertools.combinations(set(terms), 2):
            forced.add(frozenset((x, y)))
    combined = conj(*block.brackets)
    for x, y in itertools.combinations(block.vars, 2):
        pair = {x, y}
        if frozenset(pair) in forced:
            continue

        def kill(atom: Formula) -> Formula:
            if isinstance(atom, Eq) and {atom.left, atom.right} == pair:
                return FALSE
            if isinstance(atom, FuncAtom) and {atom.arg, atom.out} == pair:
                return FALSE
            if isinstance(atom, Atom) and len(atom.terms) > 1 and \
                    pair <= set(atom.terms):
                return FALSE
            return atom

        reduced = map_atoms(combined, kill)
        if not exclusive_assignments(reduced):
            forced.add(frozenset(pair))
    return forced


def weight_depth_index(forest: LabeledForest) -> Dict[str, Set[Tuple[int, ...]]]:
    """Realized depth patterns per original weight symbol in this forest.

    The forest encoding stores an arity-r weight tuple under the key
    ``("wtup", name, depths)`` at the chain's deepest node; the index maps
    ``name`` to its realized ``depths`` tuples (update-safe: supports are
    fixed, only values change)."""
    index: Dict[str, Set[Tuple[int, ...]]] = {}
    for key in forest.weights:
        if isinstance(key, tuple) and key and key[0] == "wtup":
            _, name, depths = key
            index.setdefault(name, set()).add(depths)
    return index


def variable_depth_sets(forest: LabeledForest, block: Block,
                        index: Dict[str, Set[Tuple[int, ...]]]
                        ) -> Optional[Dict[str, Set[int]]]:
    """Per-variable allowed depths from declared weight supports.

    A factor ``w(x)`` (unary) restricts ``x`` to depths where ``w`` is
    declared; an arity-r factor restricts each argument position to the
    projection of the realized depth patterns; a selector, supported on
    every node, restricts nothing.  Returns ``None`` when some variable
    has no allowed depth (the block contributes nothing here).
    """
    allowed: Dict[str, Set[int]] = {}

    def restrict(var: str, depths: Set[int]) -> None:
        if var in allowed:
            allowed[var] &= depths
        else:
            allowed[var] = set(depths)

    for name, terms in block.weight_factors:
        if isinstance(name, Selector):
            continue
        if len(terms) == 1:
            support = forest.weights.get(name, {})
            restrict(terms[0], {forest.depth[node] for node in support})
        else:
            patterns = index.get(name, set())
            for position, var in enumerate(terms):
                restrict(var, {depths[position] for depths in patterns})
    if any(not depths for depths in allowed.values()):
        return None
    return allowed


def decompose_block(block: Block, max_depth: int,
                    comparable: Set[FrozenSet[str]],
                    patterns: Dict[str, FrozenSet[Tuple[int, ...]]],
                    allowed: Dict[str, Set[int]]
                    ) -> List[Tuple[Shape, Dict[ClassId, List[Factor]]]]:
    """Steps 1-2 as a function of the query and a forest's *signature*
    alone: the shapes of ``block`` up to ``max_depth`` with per-class
    factor lists, given the realized depth ``patterns`` of its arity >= 2
    weight names and the ``allowed`` depths of its variables."""
    out: List[Tuple[Shape, Dict[ClassId, List[Factor]]]] = []
    for shape in enumerate_shapes(block.vars, max_depth,
                                  comparable_pairs=comparable,
                                  allowed_depths=allowed or None):
        weight_attach: List[Tuple[ClassId, Factor]] = []
        feasible = True
        for name, terms in block.weight_factors:
            if len(terms) == 1:
                weight_attach.append((
                    shape.var_class[terms[0]],
                    ("select", name.position) if isinstance(name, Selector)
                    else ("weight", name)))
                continue
            info = chain_info(shape, terms)
            if info is None:
                feasible = False
                break
            depths, deepest = info
            if depths not in patterns[name]:
                feasible = False  # no declared tuple has this pattern
                break
            weight_attach.append((shape.var_class[deepest],
                                  ("weight", ("wtup", name, depths))))
        if not feasible:
            continue
        residuals = [residual_formula(f, shape) for f in block.brackets]
        combined = conj(*residuals)
        if combined == FALSE:
            continue
        for assignment in exclusive_assignments(combined):
            factors: Dict[ClassId, List[Factor]] = {}
            for atom, positive in sorted(assignment.items(), key=repr):
                cid = shape.var_class[atom.var]
                factors.setdefault(cid, []).append(
                    ("label", atom.label, positive))
            for cid, factor in weight_attach:
                factors.setdefault(cid, []).append(factor)
            out.append((shape, factors))
    return out


class ShapeTable:
    """Lemma 32's decomposition, paid once per compile.

    The shapes of a block and their per-class factors are a function of
    the *expression* and of four small facts about the forest — its
    height, the realized depth patterns of the block's own weight names
    and the depths its variables may take — never of the data.  One
    table, owned by a ``compile_structure_query`` call and handed to
    every :class:`ForestCompiler` of that compile, therefore answers all
    color subsets from a handful of entries (2 for the triangle query on
    a 6x6 grid's 132 forests) and dies with the compile.

    The same holds for an entry's fragments under a color assignment
    (:meth:`fragments`): a class's fragment depends on the entry and on
    the colors of the variables below it, so it is built once per compile
    and shared by every forest whose assignment agrees there.

    Entries are shared between lookups: read them, never mutate them.
    """

    def __init__(self) -> None:
        self._shapes: Dict[
            Tuple, List[Tuple[Shape, Dict[ClassId, List[Factor]]]]] = {}
        #: id of an entry's factors -> (those factors, its class plans,
        #: its fragments by (class, colors below)); the factors are kept
        #: so that a recycled id can never answer for another entry
        self._entries: Dict[int, Tuple[Dict, Dict, Dict]] = {}

    def labeled_shapes(self, block: Block, forest: LabeledForest,
                       index: Optional[Dict[str, Set[Tuple[int, ...]]]] = None
                       ) -> List[Tuple[Shape, Dict[ClassId, List[Factor]]]]:
        """Steps 1-2 for ``block`` over ``forest`` (``index`` is the
        forest's :func:`weight_depth_index` when the caller has it)."""
        max_depth = forest.height() - 1
        if max_depth < 0 and block.vars:
            return []
        if index is None:
            index = weight_depth_index(forest)
        allowed = variable_depth_sets(forest, block, index)
        if allowed is None:
            return []
        patterns = {name: frozenset(index.get(name, ()))
                    for name, terms in block.weight_factors if len(terms) > 1}
        # Constant factors scale a block's value, not its decomposition.
        key = (block.vars, tuple(block.weight_factors),
               tuple(block.brackets), max_depth,
               frozenset(patterns.items()),
               frozenset((var, frozenset(depths))
                         for var, depths in allowed.items()))
        found = self._shapes.get(key)
        if found is None:
            found = self._shapes[key] = decompose_block(
                block, max(max_depth, 0), required_comparable(block),
                patterns, allowed)
        return found

    def fragments(self, shape: Shape, factors: Dict[ClassId, List[Factor]],
                  variables: Sequence[str], assignment: Sequence[int]
                  ) -> List[Fragment]:
        """The root fragments of the entry ``(shape, factors)`` refined by
        a color ``assignment`` of ``variables`` (Lemma 35): every
        variable's class additionally tests its assigned color.

        Equal to decomposing the block with the color tests conjoined as
        a last bracket: positive literals placed last extend every
        Shannon path of the residual by exactly one all-true suffix, in
        the same order.  A fragment's factors are sorted by ``repr`` and
        its children by :meth:`Fragment.sort_key`, so it is canonical."""
        memo = self._entries.get(id(factors))
        if memo is None or memo[0] is not factors:
            memo = self._entries[id(factors)] = (
                factors, _class_plans(shape, factors, variables), {})
        _, plans, built = memo
        return [_fragment(plans, built, root, assignment)
                for root in shape.roots]


def _class_plans(shape: Shape, factors: Dict[ClassId, List[Factor]],
                 variables: Sequence[str]) -> Dict[ClassId, Tuple]:
    """Per class of ``shape``: its depth, child classes, own factors as
    ``(repr, factor)`` pairs, and the positions in ``variables`` of the
    variables at the class and of those below it (its members)."""
    return {cid: (cid[0], shape.children[cid],
                  [(repr(factor), factor) for factor in factors.get(cid, ())],
                  [i for i, var in enumerate(variables)
                   if shape.var_class[var] == cid],
                  [i for i, var in enumerate(variables) if var in cid[1]])
            for cid in shape.classes}


def _fragment(plans: Dict[ClassId, Tuple], built: Dict[Tuple, Fragment],
              cid: ClassId, assignment: Sequence[int]) -> Fragment:
    """The fragment of class ``cid`` under ``assignment``, built once per
    coloring of the variables below it.  A class with every variable
    below it is not kept: its coloring is the whole assignment, which no
    other forest of the compile repeats."""
    depth, children, own, at, below = plans[cid]
    colors = tuple([assignment[i] for i in below]) if assignment else ()
    shared = len(colors) < len(assignment)
    found = built.get((cid, colors)) if shared else None
    if found is None:
        kids = sorted((_fragment(plans, built, child, assignment)
                       for child in children), key=Fragment.sort_key)
        if assignment:
            tests = [("label", ("color", assignment[i]), True) for i in at]
            own = own + [(repr(test), test) for test in tests]
        own = sorted(own, key=itemgetter(0))
        found = Fragment(depth, tuple([factor for _, factor in own]),
                         tuple(kids))
        if shared:
            built[(cid, colors)] = found
    return found


def labeled_shapes_for_block(block: Block, forest: LabeledForest
                             ) -> List[Tuple[Shape, Dict[ClassId, List[Factor]]]]:
    """Steps 1-2: shapes with per-class factor lists for one block — the
    one-shot spelling of :meth:`ShapeTable.labeled_shapes` (a throwaway
    table)."""
    return ShapeTable().labeled_shapes(block, forest)


def color_blocks(block: Block, colors: Sequence[int]
                 ) -> List[Tuple[int, ...]]:
    """Lemma 35: the surjective colorings of one block's variables.

    For the color subset ``colors`` (``|colors| <= |vars|``), one
    assignment — a color per variable, in ``block.vars`` order — per
    surjection onto ``colors``; the block splits into the mutually
    exclusive sum of its refinements by each assignment's color tests.
    The tests are not conjoined here: the decomposition of the block is
    query-only work shared by all assignments (:class:`ShapeTable`), and
    :meth:`ShapeTable.fragments` attaches an assignment's tests to the
    shapes' classes directly.
    """
    wanted = set(colors)
    return [assignment
            for assignment in itertools.product(colors, repeat=len(block.vars))
            if set(assignment) == wanted]


#: Operations of a fragment's factor plan (:meth:`ForestCompiler._plan`).
_TEST, _DYNAMIC, _SELECT, _WEIGHT = range(4)


class ForestCompiler:
    """Step 3: the bottom-up Claim-1 recursion over the data forest.

    One compiler serves one forest.  What outlives the forest is handed
    in: ``builder`` (the circuit under construction), ``recorded`` (the
    input gates' initial values) and ``shapes`` (the compile's
    :class:`ShapeTable`, so the query-only decomposition is paid once
    per compile rather than once per forest); each defaults to a private
    one for one-shot use.

    The gate table is fragment-major and a fragment is tried only at its
    candidate nodes (module docstring).
    """

    def __init__(self, forest: LabeledForest, builder: CircuitBuilder,
                 dynamic_relations: FrozenSet[str] = frozenset(),
                 recorded: Optional[Dict[Hashable, Tuple[str, object]]] = None,
                 shapes: Optional[ShapeTable] = None):
        self.forest = forest
        self.builder = builder
        self.dynamic_relations = dynamic_relations
        #: initial values of emitted input gates, shared across color
        #: subsets: key -> ("w", raw weight) | ("b", bool) |
        #: (SELECTED, None) for a selector, which records no value.
        self.recorded: Dict[Hashable, Tuple[str, object]] = \
            recorded if recorded is not None else {}
        self.shapes = shapes if shapes is not None else ShapeTable()
        #: gates[fragment] -> {node: GateId}, the nonzero gates only
        self.gates: Dict[Fragment, Dict[Hashable, GateId]] = {}
        self._by_depth = forest.nodes_by_depth()
        #: (depth, leading tests) -> the nodes of that depth passing them
        self._candidates: Dict[Tuple, List[Hashable]] = {}

    def _is_dynamic(self, label_key: Hashable) -> bool:
        return (isinstance(label_key, tuple) and len(label_key) >= 2
                and label_key[0] in ("rel", "reltup")
                and label_key[1] in self.dynamic_relations)

    def _decode(self, depths: Optional[Tuple[int, ...]], node) -> Tuple:
        """The original tuple a ``reltup``/``wtup`` key with ``depths``
        (``None`` for a unary one) encodes at ``node``."""
        if depths is None:
            return (node,)
        return tuple(self.forest.ancestor(node, d) for d in depths)

    def compile_blocks(self, blocks: Sequence[Block],
                       colors: Sequence[int] = ()) -> Optional[GateId]:
        """The sum of all blocks' values as a gate (None == constant zero).

        With ``colors`` (Lemma 35) every block is summed over the
        surjective assignments of its variables to ``colors`` — the
        forest carries the ``("color", c)`` labels — and a block with
        fewer variables than colors contributes nothing."""
        builder = self.builder
        index = weight_depth_index(self.forest)
        tops: List[Optional[GateId]] = []
        for block in blocks:
            const_gates = [builder.const(value) for value in block.const_factors]
            if not block.vars:
                # Variable-free block: brackets fold to constants.
                combined = conj(*block.brackets)
                if combined == TRUE:
                    tops.append(builder.mul(const_gates))
                elif combined == FALSE:
                    tops.append(None)
                else:  # pragma: no cover - atoms always carry variables
                    raise ValueError(
                        f"variable-free block with open bracket {combined!r}")
                continue
            labeled = self.shapes.labeled_shapes(block, self.forest, index)
            assignments = color_blocks(block, colors) if colors else [()]
            for assignment in assignments:
                for shape, factors in labeled:
                    root_fragments = self.shapes.fragments(
                        shape, factors, block.vars, assignment)
                    for fragment in root_fragments:
                        self._ensure_fragment(fragment)
                    tables = [self.gates[f] for f in root_fragments]
                    if len(tables) == 1:
                        # The one-row permanent over the roots is the sum
                        # of the row's gates, listed in roots order.
                        gate = builder.add(list(tables[0].values()))
                    else:
                        gate = builder.perm([[table.get(root)
                                              for root in self.forest.roots]
                                             for table in tables])
                    tops.append(builder.mul(const_gates + [gate])
                                if gate is not None else None)
        return builder.add(tops)

    # -- fragment DP -------------------------------------------------------------

    def _ensure_fragment(self, fragment: Fragment) -> None:
        """Compute ``gates[fragment]`` at its candidate nodes (children
        first, once per fragment)."""
        if fragment in self.gates:
            return
        for child in fragment.children:
            self._ensure_fragment(child)
        leading, ops = self._plan(fragment)
        tables = [self.gates[child] for child in fragment.children]
        table: Dict[Hashable, GateId] = {}
        for node in self._nodes(fragment.depth, leading):
            gate = self._compile_at(node, fragment, ops, tables)
            if gate is not None:
                table[node] = gate
        self.gates[fragment] = table

    def _plan(self, fragment: Fragment) -> Tuple[Tuple, List[Tuple]]:
        """``(leading tests, ops)``: the fragment's static label tests
        before its first interning factor, as ``(key, positive)`` pairs,
        and the rest of its factors, each decided static or dynamic and
        bound to this forest's label set or weight support once."""
        labels, weights = self.forest.labels, self.forest.weights
        leading: List[Tuple[Hashable, bool]] = []
        ops: List[Tuple] = []
        for factor in fragment.factors:
            if factor[0] == "label":
                _, key, positive = factor
                if self._is_dynamic(key):
                    depths = key[2] if key[0] == "reltup" else None
                    ops.append((_DYNAMIC, key[1], depths,
                                labels.get(key, ()), positive))
                elif ops:
                    ops.append((_TEST, labels.get(key, ()), positive))
                else:
                    leading.append((key, positive))
            elif factor[0] == "select":
                ops.append((_SELECT, factor[1]))
            elif factor[0] == "weight":
                name = factor[1]
                if isinstance(name, tuple) and name and name[0] == "wtup":
                    _, original, depths = name
                else:
                    original, depths = name, None
                ops.append((_WEIGHT, original, depths,
                            weights.get(name, {})))
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown factor {factor!r}")
        return tuple(leading), ops

    def _nodes(self, depth: int, tests: Tuple) -> List[Hashable]:
        """The nodes of ``depth`` passing every ``(key, positive)`` label
        test, in depth-list order (memoized per prefix of tests)."""
        found = self._candidates.get((depth, tests))
        if found is None:
            if tests:
                key, positive = tests[-1]
                labelled = self.forest.labels.get(key, ())
                found = [node for node in self._nodes(depth, tests[:-1])
                         if (node in labelled) == positive]
            else:
                found = self._by_depth.get(depth, [])
            self._candidates[(depth, tests)] = found
        return found

    def _compile_at(self, node, fragment: Fragment, ops: List[Tuple],
                    tables: List[Dict[Hashable, GateId]]) -> Optional[GateId]:
        """The gate of ``fragment`` at a candidate ``node`` (None ==
        zero), from its factor plan ``ops`` and its children's
        ``tables``."""
        builder = self.builder
        parts: List[Optional[GateId]] = []
        for op in ops:
            kind = op[0]
            if kind == _TEST:
                if (node in op[1]) != op[2]:
                    return None
            elif kind == _DYNAMIC:
                _, relation, depths, labelled, positive = op
                # Key by the decoded original tuple, so the same fact
                # shares one input gate across all color subsets.
                input_key = ("dynrel", relation, self._decode(depths, node),
                             positive)
                self.recorded[input_key] = ("b", (node in labelled) == positive)
                parts.append(builder.input(input_key))
            elif kind == _SELECT:
                input_key = selector_key(op[1], node)
                self.recorded[input_key] = (SELECTED, None)
                parts.append(builder.input(input_key))
            else:
                _, name, depths, support = op
                if node not in support:
                    return None
                input_key = ("w", name, self._decode(depths, node))
                self.recorded[input_key] = ("w", support[node])
                parts.append(builder.input(input_key))
        if tables:
            columns = self.forest.children[node]
            if len(tables) == 1:
                # A one-row permanent is the sum of its row.
                table = tables[0]
                perm = builder.add([table.get(child) for child in columns])
            else:
                perm = builder.perm([[table.get(child) for child in columns]
                                     for table in tables])
            if perm is None:
                return None
            parts.append(perm)
        return builder.mul(parts) if parts else builder.one()


def compile_forest_query(forest: LabeledForest, blocks: Sequence[Block],
                         builder: Optional[CircuitBuilder] = None,
                         dynamic_relations: FrozenSet[str] = frozenset()):
    """Convenience wrapper: compile blocks over a forest into a circuit."""
    builder = builder or CircuitBuilder()
    compiler = ForestCompiler(forest, builder,
                              dynamic_relations=dynamic_relations)
    output = compiler.compile_blocks(blocks)
    return builder.build(output)
