import random

import pytest

from oddcolor.generate import GenerationBudgetError, _two_core_component, generate_girth_instances
from oddcolor.graphs import Graph, girth, hypothesis_check

from oracles import girth_instances_reference, girth_reference


def outcome(generate, n, min_girth, count, seed):
    """The graphs, or the budget error's message."""
    try:
        return generate(n, min_girth, count, seed)
    except GenerationBudgetError as exc:
        return f"budget: {exc}"


class TestGenerator:
    def test_properties_hold(self):
        graphs = generate_girth_instances(14, 7, count=8, seed=3)
        assert len(graphs) == 8
        for g in graphs:
            assert g.n <= 14
            assert g.is_connected()
            assert min(g.degree(v) for v in range(g.n)) >= 2
            assert girth(g) >= 7  # independent recheck

    def test_girth_instances_pass_hypothesis(self):
        for g in generate_girth_instances(12, 7, count=5, seed=9):
            assert hypothesis_check(g, frozenset()).passes

    def test_deterministic_per_seed(self):
        a = generate_girth_instances(12, 6, count=4, seed=11)
        b = generate_girth_instances(12, 6, count=4, seed=11)
        assert a == b
        c = generate_girth_instances(12, 6, count=4, seed=12)
        assert a != c  # overwhelmingly likely

    def test_small_girth_allowed(self):
        graphs = generate_girth_instances(8, 3, count=5, seed=1)
        assert all(girth(g) >= 3 for g in graphs)

    def test_unreachable_raises_budget_error(self):
        # an 11-cycle cannot fit on 10 vertices, and minimum degree 2 rules
        # out everything acyclic
        with pytest.raises(GenerationBudgetError):
            generate_girth_instances(10, 11, count=1, seed=0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_girth_instances(10, 2, count=1, seed=0)
        with pytest.raises(ValueError):
            generate_girth_instances(2, 3, count=1, seed=0)

    # up to girth 11 the two ball radii reach p = 4 and q = 5
    @pytest.mark.parametrize("min_girth", range(3, 12))
    def test_same_graphs_as_per_candidate_bfs(self, min_girth):
        graphs_compared = 0
        for n in [*range(3, 15), 20, 33, 50, 80]:
            for seed, count in ((0, 1), (1, 2), (7, 3)):
                got = outcome(generate_girth_instances, n, min_girth, count, seed)
                assert got == outcome(girth_instances_reference, n, min_girth, count, seed)
                graphs_compared += not isinstance(got, str)
        assert graphs_compared >= 20

    # larger graphs, where balls grow by many accepted edges per vertex
    @pytest.mark.parametrize(("n", "min_girth"), [(120, 7), (200, 9)])
    def test_same_graphs_as_per_candidate_bfs_at_scale(self, n, min_girth):
        assert generate_girth_instances(n, min_girth, 1, n) == girth_instances_reference(
            n, min_girth, 1, n
        )

    def test_large_instance_properties(self):
        (g,) = generate_girth_instances(600, 7, 1, 600)
        assert g.is_connected()
        assert min(g.degree(v) for v in range(g.n)) >= 2
        assert girth_reference(g) >= 7


def random_forest_edges(n, edges):
    """The edges of ``edges`` that join two trees, in order: a forest."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    forest = []
    for u, v in edges:
        if find(u) != find(v):
            root[find(u)] = find(v)
            forest.append((u, v))
    return forest


def test_two_core_component_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(30)
    cases = [
        (0, []),
        (5, []),  # isolated vertices only
        (7, [(0, 1), (1, 2), (1, 3), (3, 4), (5, 6)]),  # a forest
        # two triangles, the later one listed first, and a tail
        (8, [(5, 6), (6, 7), (5, 7), (0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),
        # two 4-cycles joined by a path that peels away
        (10, [(4, 5), (5, 6), (6, 7), (4, 7), (7, 8), (8, 9), (0, 1), (1, 2), (2, 3), (0, 3)]),
    ]
    for _ in range(300):
        n = rng.randint(1, 30)
        p = rng.choice((0.03, 0.06, 0.1, 0.2))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        kind = rng.random()
        if kind < 0.3:
            edges = random_forest_edges(n, edges)
        elif kind < 0.5:  # a relabeled copy beside the graph: cores of equal size
            copy = rng.sample(range(n, 2 * n), n)
            edges += [(copy[u], copy[v]) for u, v in edges]
            n *= 2
        cases.append((n, edges))
    ties = 0
    for n, edges in cases:
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        comps = sorted(map(sorted, nx.connected_components(nx.k_core(g, 2))))
        best = max(comps, key=len, default=[])  # the first, by smallest vertex, on ties
        ties += [len(c) for c in comps].count(len(best)) > 1
        relabel = {v: i for i, v in enumerate(best)}
        expected = None if len(best) < 3 else Graph(len(best), [(relabel[u], relabel[v]) for u, v in g.subgraph(best).edges])
        assert _two_core_component(adj) == expected
    assert ties >= 20
