"""Structures, signatures, labeled forests, unary structures."""

from __future__ import annotations

import pytest

from repro.graphs import path_graph, triangulated_grid
from repro.structures import (LabeledForest, Signature, Structure,
                              graph_structure)


class TestSignature:
    def test_symbols_build_atoms(self):
        sig = Signature()
        E = sig.relation("E", 2)
        w = sig.weight("w", 2)
        atom = E("x", "y")
        weight = w("x", "y")
        assert atom.relation == "E" and weight.name == "w"
        with pytest.raises(ValueError):
            E("x")
        with pytest.raises(ValueError):
            sig.relation("E", 3)
        with pytest.raises(ValueError):
            sig.weight("E", 1)

    def test_build_helper(self):
        sig = Signature.build(relations=[("E", 2), ("R", 1)],
                              weights=[("w", 2)])
        assert sig.relations["E"].arity == 2
        assert sig.weights["w"].arity == 2


class TestStructure:
    def test_arity_enforcement(self):
        structure = Structure(range(5))
        structure.add_tuple("E", (0, 1))
        with pytest.raises(ValueError):
            structure.add_tuple("E", (0, 1, 2))
        with pytest.raises(ValueError):
            structure.add_tuple("E", (0, 99))

    def test_gaifman_graph_cliques(self):
        structure = Structure(range(4))
        structure.add_tuple("T", (0, 1, 2))
        gaifman = structure.gaifman()
        assert gaifman.is_clique([0, 1, 2])
        assert not gaifman.has_edge(0, 3)

    def test_gaifman_includes_weight_support(self):
        structure = Structure(range(3))
        structure.set_weight("w", (0, 2), 5)
        assert structure.gaifman().has_edge(0, 2)

    def test_gaifman_memo_survives_value_only_weight_writes(self,
                                                            monkeypatch):
        """The graph reads tuple keys only: overwriting a weight value
        folds the digest and keeps the memo; a new tuple, a removal and
        a rehash drop it.  Every fingerprint read is cross-checked
        against a full rehash."""
        monkeypatch.setenv("REPRO_VERIFY_FINGERPRINT", "1")
        structure = graph_structure(path_graph(4))
        structure.set_weight("w", (0, 1), 5)
        graph = structure.gaifman()
        before = structure.fingerprint()
        structure.set_weight("w", (0, 1), 6)
        assert structure.fingerprint() != before
        assert structure.gaifman() is graph
        structure.set_weight("w", (0, 2), 1)  # a new tuple: a new edge
        assert structure.gaifman() is not graph
        assert structure.gaifman().has_edge(0, 2)
        for remove in (lambda: structure.remove_weight("w", (0, 2)),
                       lambda: structure.remove_tuple("E", (0, 1)),
                       lambda: structure.remove_weight("w"),
                       structure.rehash):
            graph = structure.gaifman()
            remove()
            structure.fingerprint()
            assert structure.gaifman() is not graph
        assert not structure.gaifman().has_edge(0, 2)

    def test_validate_weight_support(self):
        structure = Structure(range(3))
        structure.add_tuple("E", (0, 1))
        structure.set_weight("w", (0, 1), 3)
        structure.validate()
        structure.set_weight("w", (1, 2), 4)
        with pytest.raises(ValueError):
            structure.validate()

    def test_graph_structure_directed(self):
        structure = graph_structure(path_graph(3))
        assert structure.has_tuple("E", (0, 1))
        assert structure.has_tuple("E", (1, 0))
        undirected = graph_structure(path_graph(3), directed=False)
        assert len(undirected.relations["E"]) == 2

    def test_size_and_copy(self):
        structure = graph_structure(triangulated_grid(2, 2))
        clone = structure.copy()
        clone.add_tuple("R", (clone.domain[0],))
        assert "R" not in structure.relations
        assert structure.size() > len(structure.domain)


class TestLabeledForest:
    def build(self):
        parent = {1: None, 2: 1, 3: 1, 4: 2, 5: 2}
        return LabeledForest(parent, labels={"R": {2, 4}},
                             weights={"w": {1: 10, 4: 2}})

    def test_depths_and_paths(self):
        forest = self.build()
        assert forest.depth == {1: 0, 2: 1, 3: 1, 4: 2, 5: 2}
        assert forest.path[4] == [1, 2, 4]
        assert forest.height() == 3

    def test_ancestors(self):
        forest = self.build()
        assert forest.ancestor(4, 0) == 1
        assert forest.ancestor(4, 5) is None
        assert forest.ancestor_up(4, 1) == 2
        assert forest.ancestor_up(4, 9) == 1  # saturates at the root

    def test_labels_and_weights(self):
        forest = self.build()
        assert forest.has_label("R", 2) and not forest.has_label("R", 3)
        forest.set_label("R", 3)
        assert forest.has_label("R", 3)
        forest.set_label("R", 3, present=False)
        assert not forest.has_label("R", 3)
        assert forest.weight("w", 1) == 10
        assert forest.weight("w", 5, zero=-1) == -1

    def test_bottom_up_order(self):
        forest = self.build()
        order = forest.bottom_up()
        position = {node: i for i, node in enumerate(order)}
        for node, par in forest.parent.items():
            if par is not None:
                assert position[node] < position[par]

    def test_cycle_detection(self):
        with pytest.raises(ValueError):
            LabeledForest({1: 2, 2: 1})
