"""The cold compile pays for the query once and for every tuple once.

``compile_structure_query`` answers every color subset's Lemma 32
decomposition from one per-compile
:class:`~repro.core.forest_compiler.ShapeTable` and reads every subset's
facts from one :class:`~repro.core.stages.ColoredFacts` bucketing.  Four families keep that honest:

* a differential test against the code it replaced, kept here as the
  reference: the block refined by a conjoined color bracket and
  decomposed from scratch, fragments built from scratch per assignment,
  and the forest encoder that rescans every tuple of the structure per
  subset;
* golden digests of whole compiled circuits (gate for gate, input for
  input) on five fixed fixtures, optimized and raw;
* the growth guard: the query-only work of a compile is *counted* at two
  sizes and must not move; the per-tuple work is bounded by the tuples;
* the visit guard: the Claim-1 recursion never visits a node that fails
  one of a fragment's leading static tests.
"""

from __future__ import annotations

import hashlib
import itertools

from hypothesis import given, strategies as st

from repro.core import (close_over, color_blocks, compile_structure_query,
                        forest_from_structure, labeled_shapes_for_block,
                        weight_depth_index)
from repro.core import forest_compiler, shapes, stages
from repro.core.forest_compiler import Fragment, ShapeTable
from repro.core.stages import ColoredFacts
from repro.graphs import (Graph, elimination_forest, low_treedepth_coloring,
                          triangulated_grid)
from repro.logic import (Atom, Block, Bracket, Eq, StructureModel, Sum, Weight,
                         eval_expression, normalize)
from repro.logic.fo import LabelAtom, conj
from repro.semirings import NATURAL
from repro.structures import LabeledForest, Structure, graph_structure

from tests.util import weighted_graph_structure

E = lambda x, y: Atom("E", (x, y))
S = lambda x: Atom("S", (x,))
w = lambda x, y: Weight("w", (x, y))

TRIANGLE = Sum(("x", "y", "z"),
               Bracket(E("x", "y") & E("y", "z") & E("z", "x"))
               * w("x", "y") * w("y", "z") * w("z", "x"))
DEGREE = Sum("y", Bracket(E("x", "y")) * w("x", "y"))
EDGE_F = E("x", "y") & S("x") & ~S("y")

#: name -> (expression, its free variables, dynamic relations)
QUERIES = {
    "triangle": (TRIANGLE, (), ()),
    "degree(x)": (DEGREE, ("x",), ()),
    "edge_f(x,y), S dynamic": (Bracket(EDGE_F), ("x", "y"), ("S",)),
    "weight-free path": (Sum(("x", "y", "z"),
                             Bracket(E("x", "y") & E("y", "z"))), (), ()),
    "eq/negation": (Sum(("x", "y"),
                        Bracket(~Eq("x", "y") & ~E("x", "y") & S("x"))
                        * Weight("u", ("y",))), (), ()),
}


def closed(query: str):
    """``(closed form, dynamic relations)`` of a named query."""
    expr, free, dynamic = QUERIES[query]
    return close_over(expr, free), dynamic


# -- the replaced code, kept as the reference -----------------------------------


def refined_block(block: Block, assignment) -> Block:
    """Lemma 35 the old way: the color tests conjoined as a last bracket."""
    tests = [LabelAtom(("color", color), var)
             for var, color in zip(block.vars, assignment)]
    return Block(vars=block.vars,
                 weight_factors=list(block.weight_factors),
                 const_factors=list(block.const_factors),
                 brackets=list(block.brackets) + [conj(*tests)])


def colored(shape, factors, variables, assignment):
    """An assignment's color tests appended to its variables' classes."""
    out = dict(factors)
    for var, color in zip(variables, assignment):
        cid = shape.var_class[var]
        out[cid] = out.get(cid, []) + [("label", ("color", color), True)]
    return out


def build_fragment(shape, cid, factors) -> Fragment:
    """A class's fragment built from scratch, per forest and assignment."""
    children = tuple(sorted(
        (build_fragment(shape, child, factors)
         for child in shape.children[cid]),
        key=Fragment.sort_key))
    own = tuple(sorted(factors.get(cid, []), key=repr))
    return Fragment(cid[0], own, children)


def rescanned_forest(structure: Structure, nodes) -> LabeledForest:
    """The forest encoding the old way: every tuple of the structure is
    visited and tested for membership, per forest."""
    node_set = set(nodes)
    rooted = elimination_forest(structure.gaifman().subgraph(node_set))
    forest = LabeledForest(rooted.parent)
    for is_weight, facts in ((False, structure.relations),
                             (True, structure.weights)):
        for name, tuples in facts.items():
            for tup in tuples:
                if any(element not in node_set for element in tup):
                    continue
                if len(tup) == 1:
                    key, node = (name if is_weight else ("rel", name)), tup[0]
                else:
                    depths = tuple(forest.depth[e] for e in tup)
                    node = max(tup, key=forest.depth.__getitem__)
                    key = ("wtup" if is_weight else "reltup", name, depths)
                if is_weight:
                    forest.set_weight(key, node, tuples[tup])
                else:
                    forest.set_label(key, node)
    return forest


def canonical(labeled):
    """A labeled-shape list up to the order of a class's factors (which
    ``build_fragment`` sorts away)."""
    return [(shape.key(),
             {cid: sorted(own, key=repr) for cid, own in factors.items()})
            for shape, factors in labeled]


# -- (a) table-driven == direct, bucketed == rescanned --------------------------


@st.composite
def small_structures(draw):
    """A random graph on <= 7 vertices as a structure: symmetric ``E``
    with a weight ``w`` per directed edge, a unary ``S`` and a unary
    weight ``u``."""
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=min(len(pairs), 10)))
    structure = graph_structure(Graph(vertices=range(n), edges=chosen))
    for edge in sorted(structure.relations.get("E", ())):
        structure.set_weight("w", edge, draw(st.integers(1, 4)))
    for vertex in range(n):
        if draw(st.booleans()):
            structure.add_tuple("S", (vertex,))
        if draw(st.booleans()):
            structure.set_weight("u", (vertex,), draw(st.integers(1, 3)))
    return structure


@given(structure=small_structures(), query=st.sampled_from(sorted(QUERIES)))
def test_tables_and_buckets_match_the_code_they_replaced(structure, query):
    expr, _ = closed(query)
    blocks = [b for b in normalize(expr) if b.vars]
    width = max(len(b.vars) for b in blocks)
    color_of = low_treedepth_coloring(structure.gaifman(), width)
    palette = sorted(set(color_of.values()))
    table, facts = ShapeTable(), ColoredFacts(structure, color_of)
    for size in range(1, width + 1):
        for subset in itertools.combinations(palette, size):
            part = [v for v in structure.domain if color_of[v] in subset]
            forest = facts.forest(subset)
            expected = rescanned_forest(structure, part)
            assert list(forest.parent.items()) == \
                list(expected.parent.items())
            assert forest.labels == expected.labels
            assert forest.weights == expected.weights
            assert forest_from_structure(structure, part).labels == \
                expected.labels
            for color in subset:
                forest.labels[("color", color)] = set(facts.members[color])
            index = weight_depth_index(forest)
            for block in blocks:
                shared = table.labeled_shapes(block, forest, index)
                assert canonical(shared) == canonical(
                    labeled_shapes_for_block(block, forest))
                for assignment in color_blocks(block, subset):
                    driven = [(shape, colored(shape, factors, block.vars,
                                              assignment))
                              for shape, factors in shared]
                    direct = labeled_shapes_for_block(
                        refined_block(block, assignment), forest)
                    assert canonical(driven) == canonical(direct)
                    for (shape, factors), (_, refined) in zip(shared,
                                                              driven):
                        assert table.fragments(
                            shape, factors, block.vars, assignment) == [
                            build_fragment(shape, root, refined)
                            for root in shape.roots]


@given(structure=small_structures(), query=st.sampled_from(sorted(QUERIES)))
def test_compiled_value_matches_naive(structure, query):
    expr, free, dynamic = QUERIES[query]
    compiled = compile_structure_query(structure, close_over(expr, free),
                                       dynamic_relations=dynamic)
    # Every selector at one sums the query over all its arguments.
    total = Sum(free, expr) if free else expr
    assert compiled.evaluate(NATURAL, selected=1) == eval_expression(
        total, StructureModel(structure, 0), NATURAL)


# -- (b) golden circuits --------------------------------------------------------


def circuit_digest(compiled) -> str:
    """Gate-for-gate, input-for-input identity of a compiled plan."""
    text = repr((compiled.circuit.gates, compiled.circuit.output,
                 list(compiled.recorded.items())))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_fixtures():
    grid3 = weighted_graph_structure(triangulated_grid(3, 3), seed=2)
    grid4 = weighted_graph_structure(triangulated_grid(4, 4), seed=3)
    marked = graph_structure(triangulated_grid(3, 3))
    for index, vertex in enumerate(marked.domain):
        if index % 3 != 1:
            marked.add_tuple("S", (vertex,))
    # Unrelated x, y: two-row root permanents and negated static tests.
    unrelated = graph_structure(triangulated_grid(3, 3))
    for index, vertex in enumerate(unrelated.domain):
        if index % 2 == 0:
            unrelated.add_tuple("S", (vertex,))
        if index % 3 != 2:
            unrelated.set_weight("u", (vertex,), 1 + index % 4)
    return {
        "triangle": (grid3, *closed("triangle")),
        "degree": (grid4, *closed("degree(x)")),
        "edge_f": (marked, *closed("edge_f(x,y), S dynamic")),
        "eq/negation": (unrelated, *closed("eq/negation")),
        "weight-free path": (graph_structure(triangulated_grid(4, 4)),
                             *closed("weight-free path")),
    }


#: name -> (gates, digest), pinned at the commit before the tables (the
#: change is bit-identical by construction; only a renumbering moves it).
#: TRIANGLE re-pinned when clique-guarded blocks stopped compiling on
#: color subsets that are no clique's color set: the same 49 gates,
#: numbered without the inputs those subsets interned.
GOLDEN = {
    "triangle": (49, "bc5d46f064a33df8"),
    "degree": (149, "6447565d5009aeb9"),
    "edge_f": (79, "c41a807f20afb327"),
    "eq/negation": (24, "57c15e7a70a7948b"),
    "weight-free path": (1, "eaabe66f698122b1"),
}

#: The same fixtures compiled with ``optimize=False``: the builder's own
#: interning order, before any pass rebuilds the circuit.  TRIANGLE's raw
#: circuit went 77 -> 73 gates with the same re-pin.  EQ/NEGATION and the
#: weight-free path re-pinned when the builder took over constant folding:
#: their raw circuits now come out folded (the weight-free path 9 -> 5
#: gates, EQ/NEGATION the same 33 with one Add of two constant ones folded
#: to the constant 2).
RAW_GOLDEN = {
    "triangle": (73, "2cc4aa5ff5e6ca6d"),
    "degree": (184, "362e942ac5ecbbb6"),
    "edge_f": (101, "8213e60736513e52"),
    "eq/negation": (33, "9cb9428e77ca71cf"),
    "weight-free path": (5, "40fc2c8c0890324f"),
}


def golden_digests(optimize: bool):
    out = {}
    for name, (structure, expr, dynamic) in golden_fixtures().items():
        compiled = compile_structure_query(structure, expr,
                                           dynamic_relations=dynamic,
                                           optimize=optimize)
        out[name] = (len(compiled.circuit.gates), circuit_digest(compiled))
    return out


def test_golden_circuits_are_bit_identical():
    assert golden_digests(optimize=True) == GOLDEN


def test_raw_golden_circuits_are_bit_identical():
    assert golden_digests(optimize=False) == RAW_GOLDEN


# -- (c) growth guard: counted, not timed ---------------------------------------


def counted_compile(monkeypatch, side: int):
    """Compile TRIANGLE on a ``side`` x ``side`` grid, counting the
    query-only calls (``Shape`` constructions, Shannon expansions) and
    the per-tuple ones (``chain_key``)."""
    counts = {"shapes": 0, "expansions": 0, "chain_keys": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(shapes.Shape, "__init__",
                      counting("shapes", shapes.Shape.__init__))
        patch.setattr(forest_compiler, "exclusive_assignments",
                      counting("expansions",
                               forest_compiler.exclusive_assignments))
        patch.setattr(stages, "chain_key",
                      counting("chain_keys", stages.chain_key))
        structure = weighted_graph_structure(
            triangulated_grid(side, side), seed=side)
        compiled = compile_structure_query(structure, TRIANGLE)
    return counts, compiled


def test_query_only_work_is_constant_in_the_data(monkeypatch):
    small, _ = counted_compile(monkeypatch, 4)
    large, compiled = counted_compile(monkeypatch, 6)
    assert small["shapes"] == large["shapes"] > 0
    assert small["expansions"] == large["expansions"] > 0
    # A binary tuple is placed once per color subset that contains its
    # two colors: 1 + (colors - 2) subsets of size <= 3 — a constant of
    # the class, where the rescan paid one call per (tuple, forest).
    structure = compiled.structure
    tuples = len(structure.relations["E"]) + len(structure.weights["w"])
    stats = compiled.stats()
    assert 0 < large["chain_keys"] <= stats["colors"] * tuples
    assert large["chain_keys"] < stats["color_subsets"] * tuples // 8


# -- (d) the recursion visits only nodes a fragment can live at -----------------


def leading_static_tests(compiler, fragment):
    """The fragment's static label tests before its first factor that
    interns a gate (a dynamic label, a selector or a weight)."""
    tests = []
    for factor in fragment.factors:
        if factor[0] != "label":
            break
        key = factor[1]
        if key[0] in ("rel", "reltup") and \
                key[1] in compiler.dynamic_relations:
            break
        tests.append((key, factor[2]))
    return tests


def counted_visits(monkeypatch, structure, query: str):
    """Compile a named query, counting the ``_compile_at`` visits and
    those whose node fails one of the fragment's leading static tests
    (a visit that can only return ``None`` without interning)."""
    counts = {"visits": 0, "rejects": 0}
    original = forest_compiler.ForestCompiler._compile_at

    def counting(self, node, fragment, *args, **kwargs):
        counts["visits"] += 1
        if any(self.forest.has_label(key, node) != positive
               for key, positive in leading_static_tests(self, fragment)):
            counts["rejects"] += 1
        return original(self, node, fragment, *args, **kwargs)

    expr, dynamic = closed(query)
    with monkeypatch.context() as patch:
        patch.setattr(forest_compiler.ForestCompiler, "_compile_at",
                      counting)
        compile_structure_query(structure, expr, dynamic_relations=dynamic)
    return counts


def test_no_visit_fails_a_leading_static_test(monkeypatch):
    marked = graph_structure(triangulated_grid(8, 8))
    for index, vertex in enumerate(marked.domain):
        if index % 3 != 1:
            marked.add_tuple("S", (vertex,))
    grid = weighted_graph_structure(triangulated_grid(6, 6), seed=6)
    counts = {query: counted_visits(monkeypatch, structure, query)
              for structure, query in ((marked, "edge_f(x,y), S dynamic"),
                                       (grid, "triangle"))}
    assert all(c["visits"] > 0 and c["rejects"] == 0
               for c in counts.values()), counts
