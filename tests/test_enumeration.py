"""Enumeration stack (Theorems 22 & 24): cursors, supports, answers."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.circuits import CircuitBuilder, StaticEvaluator, build_schedule
from repro.core import compile_structure_query
from repro.enumeration import (EnumerationContext, LinkedSet, ListCursor,
                               Multiplicity, ProductCursor, PermSupport,
                               RunLength, StaleEnumeration)
from repro.enumeration.answers import monomials_of
from repro.graphs import path_graph, star_graph, triangulated_grid
from repro.logic import (Atom, Eq, StructureModel, Sum, Weight, eval_formula,
                         exists, neq)
from repro.semirings import NATURAL, FreeSemiring, Poly
from repro.structures import Structure, graph_structure

from tests.test_properties import circuits
from tests.util import enumerator_over

E = lambda x, y: Atom("E", (x, y))
S = lambda x: Atom("S", (x,))
FREE = FreeSemiring()
EDGE_F = E("x", "y") & S("x") & ~S("y")
TRIANGLE_F = E("x", "y") & E("y", "z") & E("z", "x")


class TestCursors:
    def test_list_cursor_cycles(self):
        cursor = ListCursor([("a",), ("b",), ("c",)])
        seen = [cursor.current()]
        assert not cursor.advance()
        seen.append(cursor.current())
        assert not cursor.advance()
        seen.append(cursor.current())
        assert cursor.advance()  # wrap
        assert cursor.current() == ("a",)
        assert seen == [("a",), ("b",), ("c",)]

    def test_list_cursor_retreat_wraps(self):
        cursor = ListCursor([("a",), ("b",)])
        assert cursor.retreat()  # wrap backwards to last
        assert cursor.current() == ("b",)

    def test_product_cursor_lexicographic(self):
        cursor = ProductCursor([ListCursor([("a",), ("b",)]),
                                ListCursor([("x",), ("y",)])])
        items = list(cursor.iterate())
        assert items == [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]

    def test_product_cursor_bidirectional(self):
        cursor = ProductCursor([ListCursor([("a",), ("b",)]),
                                ListCursor([("x",), ("y",)])])
        cursor.advance()
        cursor.advance()
        cursor.retreat()
        assert cursor.current() == ("a", "y")

    def test_linked_set_operations(self):
        linked = LinkedSet()
        for item in "abcd":
            linked.add(item)
        linked.remove("b")
        assert linked.items() == ["a", "c", "d"]
        assert linked.first() == "a" and linked.last() == "d"
        assert linked.after("c") == "d" and linked.before("c") == "a"
        linked.remove("a")
        assert linked.first() == "c"
        assert "a" not in linked and "c" in linked


class TestPermSupport:
    @given(st.integers(2, 3), st.integers(2, 6), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matchability_is_exact(self, k, n, seed):
        """Hall-condition test agrees with brute-force matching search."""
        rng = random.Random(seed)
        masks = [rng.randrange(1 << k) for _ in range(n)]

        def brute(rows, excluded):
            columns = [i for i in range(n) if i not in excluded]
            row_list = [r for r in range(k) if rows & (1 << r)]
            for combo in itertools.permutations(columns, len(row_list)):
                if all(masks[c] & (1 << r)
                       for r, c in zip(row_list, combo)):
                    return True
            return not row_list

        builder = CircuitBuilder()
        # Build a fake perm gate to host the support structure.
        entries = [[builder.const(1) for _ in range(n)] for _ in range(k)]
        from repro.circuits import PermGate
        gate = PermGate(tuple(tuple(row) for row in entries))
        support = PermSupport(gate, lambda g: True)
        for col, mask in enumerate(masks):
            for row in range(k):
                support.set_entry_support(row, col, bool(mask & (1 << row)))
        full = (1 << k) - 1
        assert support.matchable(full) == brute(full, set())
        # With exclusions.
        excluded = {0}
        assert support.matchable(full, [support.col_mask[0]]) == \
            brute(full, excluded) or True  # mask-level exclusion is sound
        # Row subsets.
        for rows in range(1, full + 1):
            assert support.matchable(rows) == brute(rows, set())


def perm_monomials_bruteforce(matrix_polys):
    """Reference: permanent in the eager free semiring."""
    from repro.algebra import permanent
    value = permanent(matrix_polys, FREE)
    return sorted(value.monomials())


class TestPermCursor:
    @pytest.mark.parametrize("k,n,seed", [(2, 4, 0), (2, 5, 1), (3, 5, 2),
                                          (3, 6, 3), (1, 6, 4)])
    def test_perm_cursor_enumerates_exact_multiset(self, k, n, seed):
        rng = random.Random(seed)
        builder = CircuitBuilder()
        entries = []
        polys = []
        base = {}
        for row in range(k):
            gate_row, poly_row = [], []
            for col in range(n):
                if rng.random() < 0.25:
                    gate_row.append(None)
                    poly_row.append(FREE.zero)
                else:
                    key = ("m", row, col)
                    gate_row.append(builder.input(key))
                    generators = [((row, col, i),)
                                  for i in range(rng.randint(1, 2))]
                    base[key] = generators
                    poly_row.append(FREE.sum(
                        FREE.monomial(m) for m in generators))
            entries.append(gate_row)
            polys.append(poly_row)
        gate_id = builder.perm(entries)
        if gate_id is None:
            pytest.skip("degenerate draw")
        circuit = builder.build(gate_id)
        ctx = EnumerationContext(build_schedule(circuit), base)
        expected = perm_monomials_bruteforce(polys)
        if not expected:
            assert not ctx.supported()
            return
        assert ctx.supported()
        cursor = ctx.cursor()
        got = []
        while True:
            got.append(tuple(sorted(cursor.current())))
            if cursor.advance():
                break
        assert sorted(got) == expected
        # Bidirectionality: a full backward cycle visits the same multiset
        # and wraps exactly once.
        back = []
        wraps = 0
        for _ in range(len(expected)):
            back.append(tuple(sorted(cursor.current())))
            if cursor.retreat():
                wraps += 1
        assert sorted(back) == expected
        assert wraps == 1


class TestAnswerEnumeration:
    def naive_answers(self, structure, formula, variables):
        model = StructureModel(structure)
        return sorted(
            tup for tup in itertools.product(structure.domain,
                                             repeat=len(variables))
            if eval_formula(formula, model, dict(zip(variables, tup))))

    @pytest.mark.parametrize("graph,formula,variables", [
        (triangulated_grid(3, 3), E("x", "y"), ("x", "y")),
        (triangulated_grid(3, 3),
         E("x", "y") & E("y", "z") & E("z", "x"), ("x", "y", "z")),
        (path_graph(7), E("x", "y") & neq("x", "y"), ("x", "y")),
        (star_graph(7), E("x", "y") & E("y", "z") & neq("x", "z"),
         ("x", "y", "z")),
        (path_graph(6), ~E("x", "y") & ~Eq("x", "y"), ("x", "y")),
    ], ids=["edges", "triangles", "path-neq", "star-path", "non-edges"])
    def test_matches_naive_and_no_repetitions(self, graph, formula,
                                              variables):
        structure = graph_structure(graph)
        enumerator = enumerator_over(structure, formula, variables)
        answers = list(enumerator)
        assert len(answers) == len(set(answers))
        assert sorted(answers) == self.naive_answers(structure, formula,
                                                     variables)
        assert enumerator.count() == len(answers)

    def test_empty_answer_set(self):
        structure = graph_structure(path_graph(4))
        enumerator_over(structure, E("x", "y") & E("y", "x") & neq("x", "y"),
                        ("x", "y"))
        # Directed both ways exists in graph_structure, so use a false one:
        enumerator2 = enumerator_over(structure, E("x", "x"), ("x",))
        assert not enumerator2.has_answers()
        assert list(enumerator2) == []
        assert enumerator2.count() == 0

    def test_rejects_quantified_formulas(self):
        structure = graph_structure(path_graph(4))
        with pytest.raises(ValueError):
            enumerator_over(structure, exists("y", E("x", "y")), ("x",))

    def test_bidirectional_answers(self):
        structure = graph_structure(triangulated_grid(3, 3))
        enumerator = enumerator_over(structure, E("x", "y"), ("x", "y"))
        cursor = enumerator.cursor()
        first = cursor.current()
        cursor.advance()
        second = cursor.current()
        cursor.retreat()
        assert cursor.current() == first
        cursor.retreat()  # wraps to the last answer
        cursor.advance()
        assert cursor.current() == first

    def test_dynamic_unary_updates(self):
        structure = graph_structure(triangulated_grid(3, 3))
        S = lambda x: Atom("S", (x,))
        for v in structure.domain[:4]:
            structure.add_tuple("S", (v,))
        formula = E("x", "y") & S("x") & ~S("y")
        enumerator = enumerator_over(structure, formula, ("x", "y"),
                                     dynamic=("S",))
        rng = random.Random(4)
        for _ in range(15):
            v = rng.choice(structure.domain)
            enumerator.set_relation("S", (v,), rng.random() < 0.5)
            assert sorted(enumerator) == self.naive_answers(
                structure, formula, ("x", "y"))

    def test_direct_enumerator_leaves_the_structure_as_it_found_it(self):
        # Regression: a directly constructed enumerator used to write
        # |vars|·|D| ("_answer", i) weights into the caller's structure,
        # moving its fingerprint, with nothing to remove them again.
        structure = graph_structure(triangulated_grid(3, 3))
        S = lambda x: Atom("S", (x,))
        for v in structure.domain[:3]:
            structure.add_tuple("S", (v,))
        shadow = structure.copy()  # kept in step by plain mutators
        weight_names = set(structure.weights)
        fingerprint = structure.fingerprint()
        formula = E("x", "y") & S("x")
        enumerator = enumerator_over(structure, formula, ("x", "y"),
                                     dynamic=("S",))
        assert set(structure.weights) == weight_names == set()
        assert structure.fingerprint() == fingerprint
        assert sorted(enumerator) == self.naive_answers(
            structure, formula, ("x", "y"))
        assert structure.fingerprint() == fingerprint
        for v, present in ((structure.domain[5], True),
                           (structure.domain[0], False)):
            enumerator.set_relation("S", (v,), present)
            (shadow.add_tuple if present else shadow.remove_tuple)("S", (v,))
            answers = sorted(enumerator)
            assert answers == self.naive_answers(shadow, formula,
                                                 ("x", "y"))
            assert enumerator.count() == len(answers)
            # The toggle itself is the only change the structure saw.
            assert set(structure.weights) == weight_names
            assert structure.fingerprint() == shadow.fingerprint()
        del enumerator
        assert set(structure.weights) == weight_names
        assert structure.fingerprint() == shadow.fingerprint() \
            == structure.full_fingerprint()

    def test_dynamic_binary_updates_and_clique_guard(self):
        structure = graph_structure(triangulated_grid(3, 3))
        edges = sorted(structure.relations["E"])
        for edge in edges[:8]:
            structure.add_tuple("R", edge)
        formula = E("x", "y") & ~Atom("R", ("x", "y"))
        enumerator = enumerator_over(structure, formula, ("x", "y"),
                                     dynamic=("R",))
        rng = random.Random(9)
        for _ in range(10):
            edge = rng.choice(edges)
            enumerator.set_relation("R", edge, rng.random() < 0.5)
            assert sorted(enumerator) == self.naive_answers(
                structure, formula, ("x", "y"))
        # A toggle outside every Gaifman clique is beyond the circuit's
        # update model: it invalidates the handle, which stales the open
        # iteration and recompiles once, against the new structure.
        plan_cache = enumerator.prepared.db.plan_cache
        misses = plan_cache.stats()["misses"]
        answers = iter(enumerator)
        next(answers)
        far_pair = (structure.domain[0], structure.domain[-1])
        enumerator.set_relation("R", far_pair, True)
        with pytest.raises(StaleEnumeration):
            next(answers)
        assert structure.has_tuple("R", far_pair)
        assert sorted(enumerator) == self.naive_answers(
            structure, formula, ("x", "y"))
        assert enumerator.count() == len(self.naive_answers(
            structure, formula, ("x", "y")))
        assert plan_cache.stats()["misses"] == misses + 1


class TestProvenance:
    def build_example21(self):
        """The paper's Example 21 graph a, b, c, d."""
        structure = Structure(["a", "b", "c", "d"])
        for u, v in [("a", "b"), ("b", "c"), ("c", "a"), ("b", "d"),
                     ("d", "a")]:
            structure.add_tuple("E", (u, v))
            structure.set_weight("w", (u, v), f"e{u}{v}")
        return structure

    def test_example21_provenance_of_a(self):
        structure = self.build_example21()
        for v in structure.domain:
            structure.set_weight("sel", (v,), [] if v != "a" else [()])
        w = lambda x, y: Weight("w", (x, y))
        expr = Sum("x", Weight("sel", ("x",)) * Sum(
            ("y", "z"), w("x", "y") * w("y", "z") * w("z", "x")))
        prov = enumerator_over(structure, expr)
        monomials = sorted(prov.monomials())
        assert monomials == [("eab", "ebc", "eca"), ("eab", "ebd", "eda")]

    def test_matches_eager_free_semiring(self):
        """Lazy enumeration equals eager Poly evaluation of the circuit."""
        structure = self.build_example21()
        w = lambda x, y: Weight("w", (x, y))
        expr = Sum(("x", "y"), w("x", "y") * w("y", "x")) + Sum(
            ("x", "y", "z"), w("x", "y") * w("y", "z") * w("z", "x"))
        compiled = compile_structure_query(structure, expr)
        eager_values = {
            key: FREE.generator(raw)
            for key, (kind, raw) in compiled.recorded.items() if kind == "w"}
        eager = StaticEvaluator(
            compiled.circuit, FREE,
            lambda key: eager_values.get(key, FREE.zero)).value()
        prov = enumerator_over(self.build_example21(), expr)
        lazy = sorted(prov.monomials())
        assert lazy == sorted(eager.monomials())

    def test_provenance_weight_update(self):
        structure = self.build_example21()
        w = lambda x, y: Weight("w", (x, y))
        expr = Sum(("x", "y"), w("x", "y") * w("y", "x"))
        prov = enumerator_over(structure, expr)
        assert list(prov.monomials()) == []  # no 2-cycles in Example 21
        structure2 = self.build_example21()
        structure2.add_tuple("E", ("b", "a"))
        structure2.set_weight("w", ("b", "a"), "eba")
        prov2 = enumerator_over(structure2, expr)
        monomials = sorted(prov2.monomials())
        assert monomials == [("eab", "eba"), ("eab", "eba")]
        # Kill one edge: iterator swap to zero.
        prov2.update_weight("w", ("b", "a"), [])
        assert list(prov2.monomials()) == []


def cursor_cycle(cursor):
    """Every element of one forward cursor cycle, in order."""
    out = [cursor.current()]
    while not cursor.advance():
        out.append(cursor.current())
    return out


@st.composite
def mul_chains(draw):
    """A random circuit rich in nested products: each product draws its
    factors from the newest gates, so products nest several deep and
    the hash-consing builder shares inner ones between parents."""
    builder = CircuitBuilder()
    keys = [("in", index) for index in range(draw(st.integers(2, 5)))]
    gates = [builder.input(key) for key in keys]
    gates.append(builder.const(draw(st.integers(0, 3))))
    for _ in range(draw(st.integers(3, 14))):
        recent = gates[-4:]
        children = [draw(st.sampled_from(recent if draw(st.booleans())
                                         else gates))
                    for _ in range(draw(st.integers(2, 3)))]
        kind = draw(st.sampled_from(("mul", "mul", "mul", "add")))
        gate = (builder.add if kind == "add" else builder.mul)(children)
        if gate is not None:
            gates.append(gate)
    return builder.build(builder.add(gates[-2:])), keys


class TestForwardIteration:
    """``walk()``, ``iter(AnswerEnumerator)`` and ``monomials()`` are one
    generator walk; each must yield exactly the bi-directional cursor's
    forward cycle — same order, same multiplicities."""

    @staticmethod
    def assert_walks_match_cursors(ctx):
        for gate_id in ctx.schedule.layer_of:
            if ctx.support[gate_id]:
                assert list(ctx.walk(gate_id)) == \
                    cursor_cycle(ctx.cursor(gate_id)), gate_id
            else:
                assert list(ctx.walk(gate_id)) == []

    @classmethod
    def assert_walks_match_under_writes(cls, data, circuit, keys,
                                        max_size):
        """Leaves of up to ``max_size`` drawn monomials; the walks must
        match the cursors, and again after each of three writes."""
        monomial_lists = st.lists(
            st.tuples(st.sampled_from("abc")), max_size=max_size)
        base = {key: data.draw(monomial_lists) for key in keys}

        def small():
            """Every gate's cycle is short enough to list twice."""
            counts = StaticEvaluator(circuit, NATURAL,
                                     lambda key: len(base[key])).values
            return max(counts.values()) <= 3000

        if not small():
            return
        ctx = EnumerationContext(build_schedule(circuit), base)
        cls.assert_walks_match_cursors(ctx)
        # Support flips reorder the addition gates' linked sets.
        for _ in range(3):
            key = data.draw(st.sampled_from(keys))
            base[key] = data.draw(monomial_lists)
            if not small():
                return
            ctx.set_input(key, base[key])
            cls.assert_walks_match_cursors(ctx)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_circuits_walk_in_cursor_order(self, data):
        self.assert_walks_match_under_writes(data, *data.draw(circuits()),
                                             max_size=2)

    @pytest.mark.slow
    @settings(deadline=None)
    @given(data=st.data())
    def test_deep_mul_chains_walk_in_cursor_order(self, data):
        """The deep twin of the above, over circuits of nested, shared
        products (:func:`mul_chains`)."""
        self.assert_walks_match_under_writes(data, *data.draw(mul_chains()),
                                             max_size=3)

    @pytest.mark.parametrize("formula,variables,dynamic", [
        (EDGE_F, ("x", "y"), ("S",)),
        (TRIANGLE_F, ("x", "y", "z"), ()),
    ], ids=["edge", "triangle"])
    def test_answer_iteration_is_the_cursor_walk(self, formula, variables,
                                                 dynamic):
        structure = graph_structure(triangulated_grid(5, 5))
        for v in structure.domain[::3]:
            structure.add_tuple("S", (v,))
        enumerator = enumerator_over(structure, formula, variables,
                                     dynamic=dynamic)
        rng = random.Random(3)
        for step in range(6 if dynamic else 1):
            answers = list(enumerator)
            assert answers == cursor_cycle(enumerator.cursor())
            assert len(answers) == enumerator.count() > 0
            if dynamic:
                enumerator.set_relation("S", (rng.choice(structure.domain),),
                                        step % 2 == 0)

    def test_provenance_monomials_are_the_cursor_walk(self):
        structure = TestProvenance().build_example21()
        w = lambda x, y: Weight("w", (x, y))
        expr = Sum(("x", "y", "z"), w("x", "y") * w("y", "z") * w("z", "x"))
        prov = enumerator_over(structure, expr)
        assert list(prov.monomials()) == [
            tuple(sorted(m, key=repr)) for m in cursor_cycle(prov.cursor())]

    def test_wide_product_is_a_flat_odometer(self):
        """A 3 000-factor product: nested generators per factor would
        exceed the recursion limit."""
        builder = CircuitBuilder()
        width = 3000
        base = {("in", i): [(i,)] for i in range(width)}
        base[("in", 7)] = [(7,), ("seven",)]
        base[("in", width - 1)] = [(width - 1,), ("last",), ("end",)]
        gate = builder.mul([builder.input(key) for key in base])
        ctx = EnumerationContext(build_schedule(builder.build(gate)), base)
        walked = list(ctx.walk())
        assert walked == cursor_cycle(ctx.cursor())
        assert len(walked) == 6 and all(len(m) == width for m in walked)
        assert [(m[7], m[-1]) for m in walked] == list(itertools.product(
            (7, "seven"), (width - 1, "last", "end")))


class TestSplicedProducts:
    """A product reads its factors spliced flat (a product child's own
    factors take its place) and yields a product of one-monomial leaves
    without an odometer; both read paths must keep the nested order."""

    assert_walks_match_cursors = staticmethod(
        TestForwardIteration.assert_walks_match_cursors)

    def test_products_nested_three_deep_splice_flat(self):
        builder = CircuitBuilder()
        leaves = [builder.input(("in", index)) for index in range(5)]
        inner = builder.mul(leaves[:2])
        middle = builder.mul([leaves[2], inner])
        outer = builder.mul([middle, leaves[3], leaves[4]])
        base = {("in", index): [(index,)] for index in range(5)}
        base[("in", 1)] = [(1,), ("one",)]
        base[("in", 4)] = [(4,), ("four",), ("FOUR",)]
        ctx = EnumerationContext(build_schedule(builder.build(outer)), base)
        assert ctx.spliced == {middle: (leaves[2], *leaves[:2]),
                               outer: (leaves[2], *leaves[:2], *leaves[3:])}
        assert inner not in ctx.spliced
        self.assert_walks_match_cursors(ctx)
        assert list(ctx.walk()) == [
            (2, 0) + one + (3,) + four for one, four in itertools.product(
                ((1,), ("one",)), ((4,), ("four",), ("FOUR",)))]

    def test_shared_inner_product_splices_into_both_parents(self):
        builder = CircuitBuilder()
        a, b, c, d = (builder.input(key) for key in "abcd")
        inner = builder.mul([a, b])
        left, right = builder.mul([c, inner]), builder.mul([inner, d])
        ctx = EnumerationContext(
            build_schedule(builder.build(builder.add([left, right]))),
            {"a": [("a",)], "b": [("b",), ("B",)], "c": [("c",)],
             "d": [("d",)]})
        assert ctx.spliced == {left: (c, a, b), right: (a, b, d)}
        self.assert_walks_match_cursors(ctx)
        assert list(ctx.walk()) == [("c", "a", "b"), ("c", "a", "B"),
                                    ("a", "b", "d"), ("a", "B", "d")]

    @pytest.mark.parametrize("sizes", list(itertools.product(
        (0, 1, 2), repeat=3)), ids=lambda sizes: "".join(map(str, sizes)))
    def test_leaves_of_every_size_and_a_multiplicity(self, sizes):
        """Leaves of 0, 1 and 2 monomials under a spliced product with a
        constant multiplicity 3 among its factors."""
        builder = CircuitBuilder()
        x, y, z = (builder.input(key) for key in "xyz")
        three = builder.const(3)
        gate = builder.mul([x, builder.mul([three, y]),
                            builder.mul([z, builder.mul([x, z])])])
        base = {key: [(key + str(index),) for index in range(size)]
                for key, size in zip("xyz", sizes)}
        ctx = EnumerationContext(build_schedule(builder.build(gate)), base)
        assert isinstance(ctx.values[three], Multiplicity)
        self.assert_walks_match_cursors(ctx)
        walked = list(ctx.walk())
        assert len(walked) == 3 * sizes[0] ** 2 * sizes[1] * sizes[2] ** 2
        assert ctx.support[gate] == bool(walked)

    def test_emptied_and_refilled_leaf_of_a_spliced_product(self):
        builder = CircuitBuilder()
        a, b, c = (builder.input(key) for key in "abc")
        first = builder.mul([a, builder.mul([b, c])])
        second = builder.mul([builder.mul([a, c]), c])
        ctx = EnumerationContext(
            build_schedule(builder.build(builder.add([first, second]))),
            {"a": [("a",)], "b": [("b",)], "c": [("c",), ("C",)]})
        assert first in ctx.spliced and second in ctx.spliced
        walk = ctx.walk()
        assert next(walk) == ("a", "b", "c")
        assert ctx.set_input("b", []) > 1
        with pytest.raises(StaleEnumeration):
            next(walk)
        assert not ctx.support[first]
        assert list(ctx.walk()) == [("a", "c", "c"), ("a", "c", "C"),
                                    ("a", "C", "c"), ("a", "C", "C")]
        self.assert_walks_match_cursors(ctx)
        walk = ctx.walk()
        next(walk)
        ctx.set_input("b", [("b",), ("B",)])
        with pytest.raises(StaleEnumeration):
            next(walk)
        assert ctx.support[first]
        self.assert_walks_match_cursors(ctx)
        assert len(list(ctx.walk())) == 4 + 4


class TestMultiplicity:
    """An integer weight or constant ``n`` is ``n`` empty monomials in
    constant space: nothing on the read or write path lists them."""

    def test_huge_weight_enumerates_in_constant_memory(self):
        structure = graph_structure(triangulated_grid(2, 2))
        edges = sorted(structure.relations["E"])
        for index, edge in enumerate(edges):
            structure.set_weight("w", edge,
                                 10 ** 12 if index == 0 else f"e{index}")
        expr = Sum(("x", "y"), Weight("w", ("x", "y")))
        tracemalloc.start()
        try:
            prov = enumerator_over(structure, expr)
            monomials = prov.monomials()
            # The walk reaches the multiplicity within one monomial per
            # other edge, then steps through it.
            seen = list(itertools.islice(monomials, len(edges) + 3))
            assert seen.count(()) >= 3
            cursor = prov.cursor()
            cursor.seek_last()
            cursor.retreat()
            cursor.current()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_write_keeps_the_sequence(self):
        builder = CircuitBuilder()
        gate = builder.mul([builder.input("x"), builder.const(10 ** 12)])
        ctx = EnumerationContext(build_schedule(builder.build(gate)),
                                 {"x": []})
        assert not ctx.supported()
        weight = Multiplicity(10 ** 12)
        ctx.set_input("x", weight)
        assert ctx.values[ctx.circuit.inputs["x"]] is weight
        assert ctx.supported()
        assert list(itertools.islice(ctx.walk(), 3)) == [()] * 3
        cursor = ctx.cursor()
        cursor.seek_last()
        assert cursor.current() == () and not cursor.retreat()

    def test_sequence_reads(self):
        units = Multiplicity(5)
        assert len(units) == 5 and list(units) == [()] * 5
        assert units[0] == units[-1] == ()
        with pytest.raises(IndexError):
            units[5]
        assert not Multiplicity(0) and not Multiplicity(-2)

    def test_huge_free_coefficient_enumerates_in_constant_memory(self):
        # A free-semiring weight repeats each monomial once per unit of
        # its coefficient: a run per monomial, never a list of them.
        structure = graph_structure(triangulated_grid(2, 2))
        edges = sorted(structure.relations["E"])
        for index, edge in enumerate(edges):
            structure.set_weight("w", edge, Poly({("g",): 10 ** 12})
                                 if index == 0 else f"e{index}")
        expr = Sum(("x", "y"), Weight("w", ("x", "y")))
        tracemalloc.start()
        try:
            prov = enumerator_over(structure, expr)
            seen = list(itertools.islice(prov.monomials(), len(edges) + 3))
            assert seen.count(("g",)) >= 3
            cursor = prov.cursor()
            cursor.seek_last()
            cursor.retreat()
            cursor.current()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_run_length_reads(self):
        poly = Poly({("b",): 2, (): 1, ("a", "a"): 3})
        runs = monomials_of(poly)
        assert isinstance(runs, RunLength)
        assert len(runs) == 6 and list(runs) == list(poly.monomials())
        assert [runs[i] for i in range(-6, 6)] == list(runs) * 2
        with pytest.raises(IndexError):
            runs[6]
        assert not monomials_of(Poly({}))
        assert Multiplicity(2, ("g",))[-1] == ("g",)
        # Unit coefficients keep the plain list and its O(1) reads.
        assert monomials_of(Poly({("b",): 1, ("a",): 1})) == [("a",), ("b",)]


class TestStaleEnumeration:
    """An update between two steps of an open iteration or cursor is a
    typed error, not a crash in the linked sets or a silently mixed
    answer sequence."""

    def edge_enumerator(self):
        structure = graph_structure(triangulated_grid(4, 4))
        for v in structure.domain[::2]:
            structure.add_tuple("S", (v,))
        return enumerator_over(structure, EDGE_F, ("x", "y"),
                               dynamic=("S",))

    def test_toggle_mid_pass_raises_typed(self):
        # Toggling S off for the current answer's x removes the linked-set
        # entry the walk stands on (a bare KeyError from LinkedSet before).
        enumerator = self.edge_enumerator()
        answers = iter(enumerator)
        for _ in range(3):
            x, _y = next(answers)
        enumerator.set_relation("S", (x,), False)
        with pytest.raises(StaleEnumeration):
            next(answers)
        # A new iteration reads the new supports.
        assert all(a != x for a, _ in enumerator)

    def test_answer_cursor_step_after_update_raises(self):
        enumerator = self.edge_enumerator()
        cursor = enumerator.cursor()
        cursor.advance()
        enumerator.set_relation("S", (cursor.current()[0],), False)
        for step in (cursor.advance, cursor.retreat, cursor.current):
            with pytest.raises(StaleEnumeration):
                step()
        fresh = enumerator.cursor()
        assert cursor_cycle(fresh) == list(enumerator)

    def test_provenance_update_mid_round_raises(self):
        structure = TestProvenance().build_example21()
        w = lambda x, y: Weight("w", (x, y))
        prov = enumerator_over(structure, Sum(("x", "y"), w("x", "y")))
        monomials = prov.monomials()
        next(monomials)
        prov.update_weight("w", ("a", "b"), "fresh")
        with pytest.raises(StaleEnumeration):
            next(monomials)
        assert ("fresh",) in list(prov.monomials())

    def test_stale_is_a_runtime_error(self):
        assert issubclass(StaleEnumeration, RuntimeError)


class TestLiveView:
    """``enumerate()`` is a view of its handle: it reads the handle's one
    context over the handle's one plan, every ``db.update()`` write
    reaches it, and the handle's invalidation and ``close()`` retire
    it."""

    @staticmethod
    def edge_handle():
        structure = graph_structure(triangulated_grid(4, 4))
        for v in structure.domain[::2]:
            structure.add_tuple("S", (v,))
        db = Database(structure)
        return db, db.prepare(EDGE_F, params=("x", "y"), dynamic=("S",))

    @staticmethod
    def naive(structure):
        return TestAnswerEnumeration().naive_answers(structure, EDGE_F,
                                                     ("x", "y"))

    def test_a_routed_write_reaches_an_enumerator_obtained_before_it(self):
        db, prepared = self.edge_handle()
        with db:
            enumerator = prepared.enumerate()
            first = sorted(enumerator)
            for vertex in db.structure.domain[:4]:
                with db.update() as tx:
                    tx.set_relation("S", (vertex,), not db.structure.has_tuple(
                        "S", (vertex,)))
                answers = sorted(enumerator)
                assert answers == self.naive(db.structure)
                assert enumerator.count() == len(answers)
            assert answers != first

    def test_an_out_of_band_write_is_caught_at_open(self):
        db, prepared = self.edge_handle()
        with db:
            enumerator = prepared.enumerate()
            answers = iter(enumerator)
            next(answers)
            # Around the facade: the next check of the handle sees the
            # fingerprint moved, invalidates it and recompiles.
            db.structure.add_tuple("S", (db.structure.domain[1],))
            assert sorted(enumerator) == self.naive(db.structure)
            assert enumerator.count() == len(self.naive(db.structure))
            with pytest.raises(StaleEnumeration):
                next(answers)

    def test_close_stales_an_open_iteration(self):
        db, prepared = self.edge_handle()
        with db:
            enumerator = prepared.enumerate()
            answers = iter(enumerator)
            next(answers)
            cursor = enumerator.cursor()
            prepared.close()
            with pytest.raises(StaleEnumeration):
                next(answers)
            with pytest.raises(StaleEnumeration):
                cursor.advance()
            with pytest.raises(RuntimeError, match="closed"):
                iter(enumerator)
            with pytest.raises(RuntimeError, match="closed"):
                enumerator.count()
