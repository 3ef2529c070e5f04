import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from oddcolor.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_cycles,
    girth,
    hypothesis_check,
    one_edge_pairs,
    one_subdivision,
    path_graph,
    r_length,
    r_set,
    relaxed_flags,
)

from fixtures import grid_with_diagonals, torus_quadrangulation
from oracles import (
    cycle_edge_set,
    cycles_by_subsets,
    enumerate_cycles_reference,
    five_pairs_reference,
    girth_reference,
    is_r_relaxed,
)


def small_random_graph(rng, max_n=8):
    n = rng.randint(1, max_n)
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
    return Graph(n, edges)


def order_oracle_corpus():
    """(name, graph, R): seeded random graphs, K7, subdivided K_n, tori and
    planar grids with diagonals, each with a seeded random R."""
    rng = random.Random(2026)
    graphs = []
    for i in range(30):
        n = rng.randint(5, 12)
        p = rng.choice((0.2, 0.3, 0.45))
        graphs.append((f"random-{i}", Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])))
    graphs.append(("K7", complete_graph(7)))
    graphs += [(f"sK{h}", one_subdivision(complete_graph(h))) for h in (4, 5, 6)]
    graphs += [(f"T{k}", torus_quadrangulation(k).graph) for k in (3, 4, 5, 6)]
    graphs += [(f"grid-{w}", grid_with_diagonals(w, w, seed=w).graph) for w in (4, 6, 8)]
    out = []
    for name, g in graphs:
        for share in (0, 4, 2):
            r = frozenset(rng.sample(g.edges, len(g.edges) // share if share else 0))
            out.append((f"{name}/R{share}", g, r))
    return out


class TestGraphBasics:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            Graph(-1, [])

    def test_add_edge_rejects_an_existing_edge(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 1\) already present$"):
            cycle_graph(4).add_edge(1, 0)

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(ValueError, match="^a cycle needs at least 3 vertices$"):
            cycle_graph(2)

    def test_parallel_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.edges == ((0, 1),)

    def test_edges_sorted(self):
        g = Graph(4, [(3, 2), (1, 0), (2, 0)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))

    def test_adjacency_symmetric(self):
        g = complete_graph(5)
        for u, v in combinations(range(5), 2):
            assert (v in g.adj[u]) == (u in g.adj[v])

    def test_remove_vertex_relabels_densely(self):
        g = cycle_graph(5)
        h, relabel = g.remove_vertex(2)
        assert h.n == 4
        assert relabel == {0: 0, 1: 1, 3: 2, 4: 3}
        assert h.edges == ((0, 1), (0, 3), (2, 3))

    def test_r_set_membership_checked(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            r_set(g, [(0, 2)])
        assert r_set(g, [(1, 0)]) == frozenset({(0, 1)})

    def test_is_connected_small_cases(self):
        assert Graph(0, []).is_connected()
        assert Graph(1, []).is_connected()
        assert not Graph(2, []).is_connected()
        assert not Graph(3, [(0, 1)]).is_connected()  # 2 isolated
        assert not Graph(3, [(1, 2)]).is_connected()  # 0 isolated
        assert path_graph(4).is_connected()

    def test_is_connected_matches_components_and_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(8)
        seen = set()
        for _ in range(300):
            g = small_random_graph(rng)
            h = nx.Graph(g.edges)
            h.add_nodes_from(range(g.n))
            assert g.is_connected() == (len(g.components()) <= 1)
            assert g.is_connected() == (g.n <= 1 or nx.is_connected(h))
            seen.add(g.is_connected())
        assert seen == {False, True}


class TestCycles:
    def test_canonical_under_rotation_reflection(self):
        # each cycle comes out once, from its smallest vertex toward the
        # smaller of that vertex's two cycle-neighbors, however it is labeled
        for perm in permutations(range(5)):
            g = Graph(5, zip(perm, perm[1:] + perm[:1]))
            (vs,) = enumerate_cycles(g, 5)
            assert vs[0] == 0 and vs[1] < vs[-1]
            assert Graph(5, zip(vs, vs[1:] + vs[:1])) == g


class TestRLength:
    def test_five_cycle_one_marked_edge(self):
        g = cycle_graph(5)
        assert r_length((0, 1, 2, 3, 4), r_set(g, [(0, 1)])) == 6

    def test_triangle_two_marked_edges(self):
        g = complete_graph(3)
        assert r_length((0, 1, 2), r_set(g, [(0, 1), (1, 2)])) == 5

    def test_square_disjoint_from_r(self):
        assert r_length((0, 1, 2, 3), frozenset()) == 4

    def test_lower_bound_with_equality_iff_disjoint(self):
        rng = random.Random(7)
        for _ in range(50):
            g = small_random_graph(rng)
            cycles = enumerate_cycles(g, 6)
            if not cycles or not g.edges:
                continue
            r = frozenset(rng.sample(g.edges, rng.randint(0, len(g.edges))))
            for c in cycles:
                L, edges = r_length(c, r), cycle_edge_set(c)
                assert L >= len(edges) == len(c)
                assert (L == len(edges)) == (not (edges & r))


class TestRRelaxed:
    def test_odd_degree_is_relaxed(self):
        g = complete_graph(4)  # 3-regular
        assert relaxed_flags(g, frozenset()) == [True] * 4

    def test_even_degree_with_marked_edge(self):
        g = cycle_graph(4)
        assert not relaxed_flags(g, frozenset())[0]
        assert relaxed_flags(g, r_set(g, [(0, 1)]))[0]

    def test_isolated_is_relaxed(self):
        g = Graph(2, [])
        assert relaxed_flags(g, frozenset())[0]

    def test_relaxed_flags_match_per_vertex_check(self):
        for name, g, r in order_oracle_corpus():
            assert relaxed_flags(g, r) == [is_r_relaxed(v, g, r) for v in range(g.n)], name

    def test_monotone_in_r(self):
        rng = random.Random(3)
        for _ in range(40):
            g = small_random_graph(rng)
            if not g.edges:
                continue
            edges = list(g.edges)
            rng.shuffle(edges)
            cut = rng.randint(0, len(edges))
            small = frozenset(edges[: cut // 2])
            big = small | frozenset(edges[:cut])
            for was, now in zip(relaxed_flags(g, small), relaxed_flags(g, big)):
                assert now or not was


class TestEnumerateCycles:
    def test_c5_single_cycle(self):
        assert len(enumerate_cycles(cycle_graph(5), 5)) == 1

    def test_k4_counts(self):
        cycles = enumerate_cycles(complete_graph(4), 4)
        assert sum(1 for c in cycles if len(c) == 3) == 4
        assert sum(1 for c in cycles if len(c) == 4) == 3

    def test_tree_has_none(self):
        assert enumerate_cycles(path_graph(8), 10) == []

    def test_bound_respected(self):
        cycles = enumerate_cycles(complete_graph(5), 3)
        assert all(len(c) == 3 for c in cycles)
        assert len(cycles) == 10

    def test_matches_subset_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            g = small_random_graph(rng)
            got = set(enumerate_cycles(g, g.n if g.n >= 3 else 3))
            assert got == cycles_by_subsets(g, g.n)

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cycles(cycle_graph(4), 2)

    def test_same_list_as_recursive_oracle(self):
        """Same cycles in the same order, for every bound the library uses
        and for bounds up to n on the small graphs; with R, the oracle's
        cycles of r-length within the bound, and the search's r-length of
        each is ``r_length``'s."""
        for name, g, r in order_oracle_corpus():
            bounds = range(3, 7) if g.n > 10 else range(3, max(g.n, 6) + 1)
            for bound in bounds:
                want = [c for c in enumerate_cycles_reference(g, bound) if r_length(c, r) <= bound]
                lengths = []
                assert enumerate_cycles(g, bound, r, r_lengths=lengths) == want, (name, bound)
                assert lengths == [r_length(c, r) for c in want], (name, bound)

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_long_bound_at_default_recursion_limit(self):
        assert enumerate_cycles(cycle_graph(1500), 1500) == [tuple(range(1500))]


class TestGirth:
    def test_cycles(self):
        assert girth(cycle_graph(7)) == 7
        assert girth(complete_graph(4)) == 3

    def test_forest_infinite(self):
        assert girth(path_graph(4)) is math.inf
        assert girth(Graph(3, [])) is math.inf

    def test_subdivided_k7(self):
        assert girth(one_subdivision(complete_graph(7))) == 6

    def test_long_cycle(self):
        assert girth(cycle_graph(5000)) == 5000

    @staticmethod
    def oracle_corpus():
        """Seeded random graphs at several densities, forests, sparse graphs
        with a few long cycles and hanging trees, cycles, subdivided K_n and
        torus quadrangulations."""
        rng = random.Random(20)
        graphs = []
        for n in range(1, 31):
            pairs = list(combinations(range(n), 2))
            for p in (0.05, 0.1, 0.2, 0.4):
                graphs.append(Graph(n, [e for e in pairs if rng.random() < p]))
            # a random tree: each vertex joins an earlier one
            graphs.append(Graph(n, [(v, rng.randrange(v)) for v in range(1, n)]))
        for n in range(4, 61, 2):
            # a random tree plus one to three chords, under shuffled labels
            edges = [(v, rng.randrange(v)) for v in range(1, n)]
            edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))]
            label = rng.sample(range(n), n)
            graphs.append(Graph(n, [(label[u], label[w]) for u, w in edges]))
        graphs += [cycle_graph(n) for n in range(3, 40)]
        graphs += [one_subdivision(complete_graph(h)) for h in range(3, 8)]
        graphs += [torus_quadrangulation(k).graph for k in (3, 4, 5, 8)]
        return graphs

    def test_matches_per_edge_oracle(self):
        corpus = self.oracle_corpus()
        girths = [girth(g) for g in corpus]
        assert girths == [girth_reference(g) for g in corpus]
        # the corpus holds forests and every girth from 3 up to the long cycles
        assert math.inf in girths and set(range(3, 40)) <= set(girths)
        assert all(type(gi) is int for gi in girths if gi is not math.inf)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for g in self.oracle_corpus():
            h = nx.Graph(g.edges)
            h.add_nodes_from(range(g.n))
            assert girth(g) == nx.girth(h)


class TestHypothesisCheck:
    def test_c7_passes(self):
        assert hypothesis_check(cycle_graph(7), frozenset()).passes

    def test_c6_fails_with_witness(self):
        rep = hypothesis_check(cycle_graph(6), frozenset())
        assert not rep.passes
        assert rep.forbidden_cycles[0][1] == 6
        assert len(rep.forbidden_cycles[0][0]) == 6

    def test_two_five_cycles_sharing_one_edge(self):
        # 0-1 shared; 0-1-2-3-4 and 0-1-5-6-7
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                      (1, 5), (5, 6), (6, 7), (0, 7)])
        rep = hypothesis_check(g, frozenset())
        assert not rep.passes
        assert len(rep.five_pairs) == 1
        _, _, shared = rep.five_pairs[0]
        assert shared == (0, 1)
        # the 8-cycle around both has r-length 8: not itself a violation
        assert all(L in (3, 4, 6) for _, L in rep.forbidden_cycles) or not rep.forbidden_cycles

    def test_marking_both_helps(self):
        # same two pentagons: putting the shared edge in R lifts both cycles
        # to r-length 6, which trips the forbidden-length clause instead
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                      (1, 5), (5, 6), (6, 7), (0, 7)])
        rep = hypothesis_check(g, r_set(g, [(0, 1)]))
        assert not rep.passes
        assert rep.five_pairs == ()
        assert {L for _, L in rep.forbidden_cycles} == {6}

    def test_subdivided_k7_rejected(self):
        rep = hypothesis_check(one_subdivision(complete_graph(7)), frozenset())
        assert not rep.passes
        assert any(L == 6 for _, L in rep.forbidden_cycles)

    def test_same_witnesses_in_same_order_as_pairwise_oracle(self):
        five_pairs = 0
        for name, g, r in order_oracle_corpus():
            cycles = enumerate_cycles_reference(g, 6)
            forbidden = [(c, r_length(c, r)) for c in cycles if r_length(c, r) in (3, 4, 6)]
            fives = [c for c in cycles if r_length(c, r) == 5]
            rep = hypothesis_check(g, r)
            assert rep.forbidden_cycles == tuple(forbidden), name
            assert rep.five_pairs == tuple(five_pairs_reference(fives)), name
            assert rep.passes == (not forbidden and not rep.five_pairs)
            five_pairs += len(rep.five_pairs)
        assert five_pairs > 1000  # the corpus exercises the pairing

    @given(st.integers(5, 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_no_cycle_of_length_3_4_6_or_8_passes(self, n, data):
        # the corollary with R empty: the graph is grown edge by edge from a
        # drawn order, keeping an edge only if networkx finds no cycle of a
        # banned length through the graph; 5- and 7-cycles may stay
        nx = pytest.importorskip("networkx")
        order = data.draw(st.permutations(list(combinations(range(n), 2))))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        for e in order:
            h.add_edge(*e)
            if any(len(c) in (3, 4, 6, 8) for c in nx.simple_cycles(h, length_bound=8)):
                h.remove_edge(*e)
        assert hypothesis_check(Graph(n, h.edges), frozenset()).passes

    def test_girth_seven_always_passes(self):
        rng = random.Random(5)
        g = cycle_graph(9)
        for _ in range(20):
            r = frozenset(rng.sample(g.edges, rng.randint(0, 9)))
            assert hypothesis_check(g, r).passes


class TestOneEdgePairs:
    def pairs(self, cycles):
        return [(cycles[i], cycles[j], e) for i, j, e in one_edge_pairs(cycles)]

    def test_pairs_sharing_more_edges_are_dropped(self):
        # the r-length-5 cycles of K5 and K6 under random R, and of the
        # hypothesis corpus, include pairs sharing two or more edges
        rng = random.Random(24)
        families = [(f"K{n}/{t}", complete_graph(n)) for n in (5, 6) for t in range(6)]
        families += [(name, g) for name, g, _ in order_oracle_corpus()]
        multi = single = 0
        for name, g in families:
            r = frozenset(rng.sample(g.edges, rng.randint(0, len(g.edges) // 2)))
            fives = [c for c in enumerate_cycles_reference(g, 5) if r_length(c, r) == 5]
            assert self.pairs(fives) == five_pairs_reference(fives), name
            for c1, c2 in combinations(fives, 2):
                k = len(cycle_edge_set(c1) & cycle_edge_set(c2))
                multi += k >= 2
                single += k == 1
        assert multi > 1000 and single > 1000

    def test_triangles_pair_on_any_shared_edge(self):
        # two distinct triangles share at most one edge, so every pair
        # sharing an edge is reported
        rng = random.Random(3)
        graphs = [complete_graph(n) for n in range(3, 8)]
        graphs += [small_random_graph(rng, 10) for _ in range(40)]
        for g in graphs:
            triangles = enumerate_cycles_reference(g, 3)
            want = [
                (a, b, min(cycle_edge_set(a) & cycle_edge_set(b)))
                for a, b in combinations(triangles, 2)
                if cycle_edge_set(a) & cycle_edge_set(b)
            ]
            assert self.pairs(triangles) == want, g


class TestOneSubdivision:
    def test_triangle_becomes_hexagon(self):
        s = one_subdivision(complete_graph(3))
        assert (s.n, len(s.edges)) == (6, 6)
        assert girth(s) == 6
        assert all(s.degree(v) == 2 for v in range(6))

    def test_k4_counts(self):
        s = one_subdivision(complete_graph(4))
        assert (s.n, len(s.edges)) == (10, 12)

    def test_k7(self):
        s = one_subdivision(complete_graph(7))
        assert (s.n, len(s.edges)) == (28, 42)
        assert girth(s) == 6

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=30, deadline=None)
    def test_bipartite_and_girth_doubles(self, n, data):
        all_edges = list(combinations(range(n), 2))
        chosen = data.draw(st.sets(st.sampled_from(all_edges), min_size=1))
        g = Graph(n, chosen)
        s = one_subdivision(g)
        # bipartition: branch vertices vs subdivision vertices
        assert all(
            (u < g.n) != (v < g.n) for u, v in s.edges
        )
        gi = girth(g)
        if gi is not math.inf:
            assert girth(s) == 2 * gi
        else:
            assert girth(s) is math.inf
