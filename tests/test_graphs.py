"""Sparse-graph substrate: degeneracy, treedepth, colorings, generators."""

from __future__ import annotations

import itertools

import pytest

from repro.graphs import (Graph, Orientation, bounded_depth_forest,
                          caterpillar, complete_graph, cycle_graph,
                          degeneracy_ordering, dfs_forest,
                          elimination_forest, enumerate_cliques,
                          exact_treedepth, fraternal_transitive_step,
                          greedy_coloring, grid_graph, longest_path_at_most,
                          low_treedepth_coloring, path_graph,
                          random_bounded_degree, random_tree, sparse_binomial,
                          star_graph, treedepth_forest, triangulated_grid,
                          verify_low_treedepth)

GRAPHS = {
    "path10": path_graph(10),
    "cycle8": cycle_graph(8),
    "star9": star_graph(9),
    "grid4": grid_graph(4, 4),
    "tri4": triangulated_grid(4, 4),
    "tree": random_tree(25, seed=3),
    "binomial": sparse_binomial(40, 2.0, seed=7),
    "bdeg": random_bounded_degree(30, 3, seed=5),
}


class TestGraph:
    def test_basic_operations(self):
        g = Graph([1, 2, 3], [(1, 2), (2, 3)])
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(1, 3)
        assert g.degree(2) == 2 and g.edge_count() == 2
        g.add_edge(1, 1)  # self-loops ignored
        assert g.edge_count() == 2

    def test_clique_and_subgraph(self):
        g = Graph()
        g.add_clique([1, 2, 3])
        assert g.is_clique([1, 2, 3]) and g.edge_count() == 3
        sub = g.subgraph([1, 2])
        assert sub.edge_count() == 1 and len(sub) == 2

    def test_components(self):
        g = Graph(range(5), [(0, 1), (2, 3)])
        comps = sorted(sorted(c) for c in g.connected_components())
        assert comps == [[0, 1], [2, 3], [4]]


class TestDegeneracy:
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_ordering_invariant(self, name):
        g = GRAPHS[name]
        ordering, degeneracy = degeneracy_ordering(g)
        assert sorted(ordering, key=repr) == sorted(g.vertices(), key=repr)
        position = {v: i for i, v in enumerate(ordering)}
        worst = max((sum(1 for u in g.neighbors(v) if position[u] > position[v])
                     for v in ordering), default=0)
        assert worst <= degeneracy

    def test_known_degeneracies(self):
        assert degeneracy_ordering(path_graph(10))[1] == 1
        assert degeneracy_ordering(cycle_graph(8))[1] == 2
        assert degeneracy_ordering(complete_graph(5))[1] == 4
        assert degeneracy_ordering(grid_graph(5, 5))[1] == 2

    @pytest.mark.parametrize("name", ["grid4", "tri4", "tree"])
    def test_orientation_acyclic_bounded(self, name):
        g = GRAPHS[name]
        orientation = Orientation(g)
        _, degeneracy = degeneracy_ordering(g)
        assert orientation.out_degree <= degeneracy
        for v in g.vertices():
            for u in orientation.out[v]:
                assert orientation.position[u] > orientation.position[v]

    def test_clique_enumeration_matches_bruteforce(self):
        g = triangulated_grid(3, 3)
        for size in (1, 2, 3):
            fast = {frozenset(c) for c in enumerate_cliques(g, size)}
            slow = {frozenset(c)
                    for c in itertools.combinations(g.vertices(), size)
                    if g.is_clique(c)}
            assert fast == slow


class TestTreedepth:
    def test_exact_values(self):
        assert exact_treedepth(path_graph(1)) == 1
        assert exact_treedepth(path_graph(3)) == 2
        assert exact_treedepth(path_graph(7)) == 3
        assert exact_treedepth(star_graph(6)) == 2
        assert exact_treedepth(complete_graph(4)) == 4
        assert exact_treedepth(cycle_graph(5)) == 4  # ceil(log2 5) + 1

    @pytest.mark.parametrize("name", ["path10", "grid4", "tree", "star9"])
    def test_forests_cover(self, name):
        g = GRAPHS[name]
        for forest in (dfs_forest(g), elimination_forest(g)):
            assert forest.covers(g)
            assert sorted(forest.parent, key=repr) == \
                sorted(g.vertices(), key=repr)

    def test_elimination_forest_shallow_on_paths(self):
        ef = elimination_forest(path_graph(128))
        assert ef.height() <= 9          # ~ log2(128) + 1
        assert dfs_forest(path_graph(128)).height() == 128

    def test_treedepth_forest_optimal_height(self):
        g = path_graph(7)
        forest = treedepth_forest(g)
        assert forest.covers(g)
        assert forest.height() == exact_treedepth(g)

    def test_longest_path_bound(self):
        assert longest_path_at_most(star_graph(8), 3)
        assert not longest_path_at_most(path_graph(6), 5)

    def test_ancestor_navigation(self):
        forest = elimination_forest(path_graph(8))
        for v in forest.parent:
            path = forest.ancestors(v)
            assert path[-1] == v
            for depth, node in enumerate(path):
                assert forest.depth[node] == depth
                assert forest.ancestor(v, depth) == node


class TestColoring:
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_greedy_coloring_proper(self, name):
        g = GRAPHS[name]
        colors = greedy_coloring(g)
        assert all(colors[u] != colors[v] for u, v in g.edges())
        _, degeneracy = degeneracy_ordering(g)
        assert len(set(colors.values())) <= degeneracy + 1

    def test_augmentation_is_supergraph(self):
        g = grid_graph(4, 4)
        augmented = fraternal_transitive_step(g)
        for u, v in g.edges():
            assert augmented.has_edge(u, v)
        assert augmented.edge_count() >= g.edge_count()

    @pytest.mark.parametrize("name,p", [("path10", 2), ("grid4", 2),
                                        ("tree", 2), ("cycle8", 3)])
    def test_low_treedepth_property(self, name, p):
        g = GRAPHS[name]
        coloring = low_treedepth_coloring(g, p)
        assert set(coloring) == set(g.vertices())
        # The union of any <= p classes must induce small treedepth.
        assert verify_low_treedepth(g, coloring, p, depth_bound=2 ** (p + 2))

    def test_coloring_proper_after_augmentation(self):
        g = triangulated_grid(3, 3)
        coloring = low_treedepth_coloring(g, 2)
        assert all(coloring[u] != coloring[v] for u, v in g.edges())


class TestGenerators:
    def test_shapes_and_sizes(self):
        assert len(grid_graph(3, 4)) == 12
        assert grid_graph(3, 4).edge_count() == 2 * 12 - 3 - 4
        assert triangulated_grid(3, 3).edge_count() == \
            grid_graph(3, 3).edge_count() + 4
        assert star_graph(7).max_degree() == 6
        assert caterpillar(4, 2).edge_count() == 3 + 8

    def test_bounded_depth_forest(self):
        g, parent = bounded_depth_forest(40, 3, seed=2)
        depth = {}
        for v in sorted(parent, key=lambda v: (parent[v] is not None, v)):
            depth[v] = 0 if parent[v] is None else depth[parent[v]] + 1
        assert max(depth.values()) <= 2

    def test_random_bounded_degree(self):
        g = random_bounded_degree(50, 3, seed=1)
        assert g.max_degree() <= 3

    def test_sparse_binomial_density(self):
        g = sparse_binomial(300, 2.0, seed=5)
        assert 0 < g.edge_count() < 3 * 300

    def test_random_tree_is_tree(self):
        g = random_tree(30, seed=9)
        assert g.edge_count() == 29
        assert len(g.connected_components()) == 1
