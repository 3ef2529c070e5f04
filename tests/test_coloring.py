import random
import time
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from oddcolor import coloring, jsonio
from oddcolor.generate import generate_girth_instances
from oddcolor.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    one_subdivision,
    path_graph,
    r_set,
)
from oddcolor.coloring import (
    ListAssignment,
    ListViolationError,
    PartialColoringError,
    ReductionError,
    RelaxedInstance,
    extend_low_degree,
    is_odd_coloring,
    is_relaxed_odd,
    odd_chromatic_number,
    reduce_low_degree,
    sampled_choosability,
    solve,
    solver_order,
    uniform_lists,
    _smallest_odd_color,
)

from oracles import (
    brute_force_relaxed_odd,
    chromatic_number,
    connected_graphs_up_to_iso,
    solve_chronological_reference,
    solver_order_reference,
)


def random_instance(rng, max_n=8, max_k=4):
    while True:
        n = rng.randint(1, max_n)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
        g = Graph(n, edges)
        break
    k = rng.randint(1, max_k)
    r = frozenset(rng.sample(g.edges, rng.randint(0, len(g.edges)))) if g.edges else frozenset()
    if rng.random() < 0.5:
        lists = uniform_lists(n, k)
    else:
        lists = ListAssignment(
            tuple(frozenset(rng.sample(range(1, 2 * max_k + 1), k)) for _ in range(n))
        )
    return RelaxedInstance(g, r, lists)


class TestVerifiers:
    def test_proper(self):
        def proper(g, c):
            # with every edge in R every vertex is relaxed: only properness counts
            inst = RelaxedInstance(g, frozenset(g.edges), ListAssignment((frozenset(c.values()),) * g.n))
            return is_relaxed_odd(inst, c)

        c4 = cycle_graph(4)
        assert proper(c4, {0: 1, 1: 2, 2: 1, 3: 2})
        assert not proper(Graph(2, [(0, 1)]), {0: 1, 1: 1})
        assert not proper(c4, {0: 1, 1: 2, 2: 2, 3: 1})
        assert proper(complete_graph(4), {v: v for v in range(4)})

    def test_partial_rejected(self):
        with pytest.raises(PartialColoringError):
            is_odd_coloring(cycle_graph(3), {0: 1, 1: 2})

    def test_odd_witness_smallest(self):
        # extend_low_degree protects the smallest color seen an odd number
        # of times, and a vertex with none fails the parity condition
        assert _smallest_odd_color([1, 2, 3]) == 1
        assert _smallest_odd_color([1, 1, 2]) == 2
        assert _smallest_odd_color([1, 1]) is None
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert is_odd_coloring(g, {0: 9, 1: 1, 2: 1, 3: 2})
        g2 = Graph(3, [(0, 1), (0, 2)])
        assert not is_odd_coloring(g2, {0: 9, 1: 1, 2: 1})

    def test_odd_coloring(self):
        c5 = cycle_graph(5)
        assert is_odd_coloring(c5, {i: i + 1 for i in range(5)})
        c6 = cycle_graph(6)
        assert not is_odd_coloring(c6, {i: 1 + i % 2 for i in range(6)})
        isolated = Graph(3, [])
        assert is_odd_coloring(isolated, {0: 1, 1: 1, 2: 1})

    def test_relaxed_all_edges_reduces_to_proper(self):
        c6 = cycle_graph(6)
        inst = RelaxedInstance(c6, r_set(c6, c6.edges), uniform_lists(6, 2))
        two = {i: 1 + i % 2 for i in range(6)}
        assert is_relaxed_odd(inst, two)  # proper suffices, parity waived

    def test_relaxed_empty_matches_odd_on_even_graphs(self):
        c6 = cycle_graph(6)
        inst = RelaxedInstance(c6, frozenset(), uniform_lists(6, 3))
        rng = random.Random(0)
        for _ in range(50):
            c = {v: rng.randint(1, 3) for v in range(6)}
            assert is_relaxed_odd(inst, c) == is_odd_coloring(c6, c)

    def test_odd_degree_vertices_need_no_witness(self):
        k4 = complete_graph(4)  # 3-regular: every proper coloring passes
        inst = RelaxedInstance(k4, frozenset(), uniform_lists(4, 4))
        c = {0: 1, 1: 2, 2: 3, 3: 4}
        assert is_relaxed_odd(inst, c)

    def test_list_violation_distinct_from_properness(self):
        g = Graph(2, [(0, 1)])
        inst = RelaxedInstance(g, frozenset(), uniform_lists(2, 2))
        with pytest.raises(ListViolationError):
            is_relaxed_odd(inst, {0: 7, 1: 1})
        assert is_relaxed_odd(inst, {0: 1, 1: 1}) is False
        # a list violation is reported even when the coloring is not proper
        with pytest.raises(ListViolationError):
            is_relaxed_odd(inst, {0: 7, 1: 7})

    def test_uniform_size_enforced(self):
        with pytest.raises(ValueError):
            ListAssignment((frozenset({1}), frozenset({1, 2})))

    @pytest.mark.parametrize("e", [(0, 2), (1, 0)])
    def test_r_edge_not_in_the_graph_rejected(self, e):
        # (0, 2) is no edge of the path 0-1-2; (1, 0) is the edge (0, 1)
        # reversed, and R holds edges as sorted pairs
        with pytest.raises(ValueError, match=rf"^relaxation edge \({e[0]}, {e[1]}\) is not in the graph$"):
            RelaxedInstance(path_graph(3), frozenset({e}), uniform_lists(3, 2))

    def test_too_few_lists_rejected(self):
        with pytest.raises(ValueError, match="^list assignment must cover every vertex$"):
            RelaxedInstance(path_graph(3), frozenset(), uniform_lists(2, 2))


class TestSolve:
    def test_c5_four_unsat_five_sat(self):
        c5 = cycle_graph(5)
        assert solve(RelaxedInstance(c5, frozenset(), uniform_lists(5, 4))) is None
        got = solve(RelaxedInstance(c5, frozenset(), uniform_lists(5, 5)))
        assert got is not None
        assert is_odd_coloring(c5, got)

    def test_single_vertex(self):
        g = Graph(1, [])
        got = solve(RelaxedInstance(g, frozenset(), uniform_lists(1, 1)))
        assert got == {0: 1}

    def test_solution_always_verifies(self):
        rng = random.Random(17)
        for _ in range(120):
            inst = random_instance(rng)
            got = solve(inst)
            if got is not None:
                assert is_relaxed_odd(inst, got)

    def test_agrees_with_brute_force(self):
        rng = random.Random(23)
        for _ in range(120):
            inst = random_instance(rng)
            want = brute_force_relaxed_odd(inst, solver_order_reference(inst.graph))
            assert solve(inst) == want

    def test_monotone_in_relaxation_set(self):
        rng = random.Random(29)
        for _ in range(60):
            inst = random_instance(rng)
            if not inst.graph.edges or solve(inst) is None:
                continue
            extra = frozenset(
                rng.sample(inst.graph.edges, rng.randint(0, len(inst.graph.edges)))
            )
            bigger = RelaxedInstance(inst.graph, inst.r | extra, inst.lists)
            assert solve(bigger) is not None

    @pytest.mark.parametrize(
        "palette",
        [(0, 1, 2, 3, 4), (-7, -1, 0, 2, 5), (-(10**9), 0, 10**6, 10**6 + 1, 2**70)],
    )
    def test_any_integer_colors(self, palette):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 7)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.45])
            k = rng.randint(1, 4)
            lists = ListAssignment(
                tuple(frozenset(rng.sample(palette, k)) for _ in range(n))
            )
            r = frozenset(rng.sample(g.edges, rng.randint(0, len(g.edges))))
            inst = RelaxedInstance(g, r, lists)
            assert solve(inst) == brute_force_relaxed_odd(inst, solver_order_reference(g))

    def test_large_k_builds_each_list_once(self):
        """One shared list of 5,000 colors.  Building its bit mask once per
        vertex took 0.8-1.8 s; once per distinct list it takes milliseconds."""
        inst = RelaxedInstance(cycle_graph(1000), frozenset(), uniform_lists(1000, 5000))
        started = time.perf_counter()
        got = solve(inst)
        assert time.perf_counter() - started < 1
        assert is_relaxed_odd(inst, got)

    def test_every_k_past_n_runs_the_same_search(self):
        """With one list everywhere, an uncolored vertex's forbidden colors
        are colors already used, at most n - 1 of them, and position p tries
        ranks up to p only: every k >= n + 1 gives the coloring of n + 1."""
        rng = random.Random(43)
        for _ in range(150):
            n = rng.randint(1, 8)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.45])
            r = frozenset(rng.sample(g.edges, rng.randint(0, len(g.edges))))
            want = solve(RelaxedInstance(g, r, uniform_lists(n, n + 1)))
            for k in (n + 2, n + 5, 3 * n + 7):
                assert solve(RelaxedInstance(g, r, uniform_lists(n, k))) == want


class TestSymmetryCut:
    """With one list at every vertex, ``solve`` skips colors no earlier vertex
    has opened; it must still return the oracle's first coloring, and lists
    that differ anywhere must keep the full search."""

    @staticmethod
    def instances(rng, lists_for, count):
        """Random graphs on at most 7 vertices, sparse to complete, with
        empty and non-empty relaxation sets."""
        for i in range(count):
            n = rng.randint(1, 7)
            p = rng.choice((0.3, 0.5, 0.7, 0.9, 1.0))
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            r = frozenset()
            if g.edges and i % 2:
                r = frozenset(rng.sample(g.edges, rng.randint(1, len(g.edges))))
            yield RelaxedInstance(g, r, lists_for(rng, n))

    @staticmethod
    def assert_matches_oracle(insts):
        outcomes = set()
        for inst in insts:
            got = solve(inst)
            assert got == brute_force_relaxed_odd(inst, solver_order_reference(inst.graph))
            outcomes.add((got is not None, bool(inst.r)))
        # both verdicts, each with and without a relaxation set
        assert outcomes == {(True, False), (True, True), (False, False), (False, True)}

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_uniform_lists(self, k):
        rng = random.Random(50 + k)
        self.assert_matches_oracle(self.instances(rng, lambda rng, n: uniform_lists(n, k), 150))

    @pytest.mark.parametrize(
        "palette", [(-7, 0, 2**70), (-7, -1, 0, 2, 5), (-(10**9), 0, 3, 10**6, 2**70)]
    )
    def test_equal_lists_from_a_file(self, palette):
        """Equal but separate frozensets over a sparse palette, each vertex's
        list written in its own order, as ``jsonio`` loads them."""

        def from_file(rng, n):
            obj = {"schema": 1, "n": n, "edges": []}
            obj["lists"] = {str(v): rng.sample(palette, len(palette)) for v in range(n)}
            return jsonio.instance_from_json(obj).lists

        rng = random.Random(len(palette))
        self.assert_matches_oracle(self.instances(rng, from_file, 150))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_uniform_but_one_vertex(self, k):
        """One vertex swaps a color of {1..k} for k + 1 or k + 2."""

        def one_off(rng, n):
            lists = [frozenset(range(1, k + 1))] * n
            v = rng.randrange(n)
            lists[v] = lists[v] - {rng.randint(1, k)} | {k + rng.randint(1, 2)}
            return ListAssignment(tuple(lists))

        rng = random.Random(60 + k)
        self.assert_matches_oracle(self.instances(rng, one_off, 150))


class TestPropagation:
    """Propagation colors only what every solution extending the choices
    already made must give, so ``solve`` must return the chronological
    search's first coloring, or its None, everywhere."""

    @staticmethod
    def random_instance(rng):
        """n in 6..30: a girth 4-6 generated graph from n = 16, a sparse
        random graph below; k in 2..4, uniform or random k-lists from a
        palette of k + 2; up to 3 relaxation edges."""
        n = rng.randint(6, 30)
        if n >= 16:
            g = generate_girth_instances(n, rng.randint(4, 6), 1, rng.randrange(10**6))[0]
        else:
            p = rng.uniform(1.5, 3.5) / (n - 1)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        k = rng.choice((2, 3, 4))
        uniform = rng.random() < 0.5
        if uniform:
            lists = uniform_lists(g.n, k)
        else:
            lists = ListAssignment(
                tuple(frozenset(rng.sample(range(1, k + 3), k)) for _ in range(g.n))
            )
        chosen = rng.sample(range(len(g.edges)), min(len(g.edges), rng.randint(0, 3)))
        return RelaxedInstance(g, frozenset(g.edges[i] for i in chosen), lists), uniform

    def test_matches_chronological_search_on_random_instances(self):
        rng = random.Random(1101)
        outcomes = set()
        for _ in range(1200):
            inst, uniform = self.random_instance(rng)
            got = solve(inst)
            assert got == solve_chronological_reference(inst)
            outcomes.add((got is not None, uniform))
        # both verdicts, each with uniform and with random lists
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("n", range(40, 61, 4))
    def test_matches_chronological_search_on_hard_girth7_graphs(self, n):
        """perfbench's hard family: k = 3 on girth-7 graphs, where the
        chronological search retries thousands of levels in between."""
        g = generate_girth_instances(n, 7, 1, 7000 + n)[0]
        inst = RelaxedInstance(g, frozenset(), uniform_lists(g.n, 3))
        assert solve(inst) == solve_chronological_reference(inst)

    def test_matches_chronological_search_on_random_lists(self):
        """perfbench's lists family: random 3-lists from 1..6 on girth-7
        graphs, where no symmetry cap applies."""
        draw = random.Random(99)
        for n in range(30, 64, 3):
            g = generate_girth_instances(n, 7, 1, 7100 + n)[0]
            lists = ListAssignment(
                tuple(frozenset(draw.sample(range(1, 7), 3)) for _ in range(g.n))
            )
            inst = RelaxedInstance(g, frozenset(), lists)
            assert solve(inst) == solve_chronological_reference(inst)

    def test_matches_chronological_search_on_forced_chains(self):
        """At k = 3 every color of a cycle after the first two is forced, at
        k = 4 only those where the cycle closes; with and without an R edge,
        which relaxes its ends."""
        outcomes = set()
        for n, k in product(range(3, 61), (3, 4)):
            c = cycle_graph(n)
            for r in (frozenset(), frozenset(c.edges[:1])):
                inst = RelaxedInstance(c, r, uniform_lists(n, k))
                got = solve(inst)
                assert got == solve_chronological_reference(inst)
                outcomes.add((got is not None, bool(r)))
        assert outcomes == {(True, False), (True, True), (False, False), (False, True)}


@pytest.mark.usefixtures("default_recursion_limit")
class TestLongCycles:
    def test_c5000(self):
        c = cycle_graph(5000)
        assert solve(RelaxedInstance(c, frozenset(), uniform_lists(5000, 3))) is None
        inst = RelaxedInstance(c, frozenset(), uniform_lists(5000, 5))
        assert is_relaxed_odd(inst, solve(inst))

    def test_memory_grows_linearly(self):
        """The UNSAT search forces every color of C_n after the first two
        onto one trail and backtracks through it.  Linear growth doubles the
        traced peak when n doubles; per-level state that kept a bit mask
        over the earlier positions would take O(n^2) bits, and the peak
        would grow 3.2-fold at these sizes."""
        peaks = []
        for n in (5000, 10000):
            inst = RelaxedInstance(cycle_graph(n), frozenset(), uniform_lists(n, 3))
            tracemalloc.start()
            try:
                assert solve(inst) is None
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] / peaks[0] <= 2.6

    @pytest.mark.parametrize("n", [1500, 1501, 1502])
    def test_three_colors_iff_three_divides_n(self, n):
        inst = RelaxedInstance(cycle_graph(n), frozenset(), uniform_lists(n, 3))
        got = solve(inst)
        assert (got is not None) == (n % 3 == 0)
        if got is not None:
            assert is_relaxed_odd(inst, got)


class TestSolverOrder:
    def test_matches_reference_on_small_connected_graphs(self):
        for n in range(1, 8):
            for g in connected_graphs_up_to_iso(n):
                assert solver_order(g) == solver_order_reference(g), g.edges

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(31)
        for n in [300] + [rng.randint(1, 300) for _ in range(24)]:
            mean_degree = rng.choice((1.0, 2.0, 3.0, 6.0))
            p = mean_degree / max(n - 1, 1)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            assert solver_order(g) == solver_order_reference(g)

    def test_matches_reference_on_the_graph_atlas(self):
        # every graph on at most 7 vertices, disconnected ones, isolated
        # vertices and the empty graph included
        nx = pytest.importorskip("networkx")
        atlas = nx.graph_atlas_g()
        assert len(atlas) == 1253
        for h in atlas:
            g = Graph(h.number_of_nodes(), list(h.edges))
            assert solver_order(g) == solver_order_reference(g), g.edges

    def test_matches_reference_where_counts_rise_before_a_class(self):
        # the high-degree vertices come first and give the lower classes
        # their placed-neighbor counts: the branch vertices of a subdivided
        # K_h, and a star's center with the cycle vertices it touches (every
        # one of them, without leaves, makes a wheel)
        shapes = [one_subdivision(complete_graph(h)) for h in range(1, 13)]
        for length, step, leaves in product((*range(3, 13), 16), (1, 2, 3, 5), (0, 1, 4)):
            hub = length
            edges = [(i, (i + 1) % length) for i in range(length)]
            edges += [(hub, i) for i in range(0, length, step)]
            edges += [(hub, hub + 1 + j) for j in range(leaves)]
            shapes.append(Graph(length + 1 + leaves, edges))
        for g in shapes:
            assert solver_order(g) == solver_order_reference(g), g.edges

    @given(st.integers(1, 30), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_mixed_degrees(self, n, data):
        # a few hubs over a sparse background, so the degree classes vary
        # in size and the counts climb both inside and across classes
        pairs = list(combinations(range(n), 2))
        hubs = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        hub_edges = [e for e in pairs if e[0] in hubs or e[1] in hubs]
        edges = set(data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n))) if pairs else set()
        if hub_edges:
            edges |= set(data.draw(st.lists(st.sampled_from(hub_edges), max_size=3 * n)))
        g = Graph(n, sorted(edges))
        assert solver_order(g) == solver_order_reference(g)

    def test_built_once_per_call(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return solver_order(g)

        monkeypatch.setattr(coloring, "solver_order", counted)
        c5 = cycle_graph(5)
        assert odd_chromatic_number(c5) == 5  # five solver runs, k = 1..5
        assert calls == [c5]
        calls.clear()
        rep = sampled_choosability(c5, 4, frozenset(), 12, 5, seed=2)
        assert [t for t, _ in rep.refutations] == [2]
        assert calls == [c5]


class TestOddChromatic:
    def test_c5(self):
        assert odd_chromatic_number(cycle_graph(5)) == 5

    def test_empty_graph_needs_no_color(self):
        assert odd_chromatic_number(Graph(0, [])) == 0

    def test_c6_matches_oracle(self):
        c6 = cycle_graph(6)
        inst2 = RelaxedInstance(c6, frozenset(), uniform_lists(6, 2))
        inst3 = RelaxedInstance(c6, frozenset(), uniform_lists(6, 3))
        assert brute_force_relaxed_odd(inst2) is None
        assert brute_force_relaxed_odd(inst3) is not None
        assert odd_chromatic_number(c6) == 3

    def test_subdivided_k4_is_four(self):
        s = one_subdivision(complete_graph(4))
        assert odd_chromatic_number(s) == 4

    def test_lower_bound_from_host_chromatic(self):
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(2, 4)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.6]
            h = Graph(n, edges)
            assert odd_chromatic_number(one_subdivision(h)) >= chromatic_number(h)


class TestSampledChoosability:
    def test_c5_k5_no_refutation(self):
        rep = sampled_choosability(cycle_graph(5), 5, frozenset(), 100, 10, seed=1)
        assert not rep.refuted
        assert rep.summary() == "no refutation found"

    def test_c5_k4_uniform_refuted(self):
        # universe == k forces every list to {1..4}, the known bad assignment
        rep = sampled_choosability(cycle_graph(5), 4, frozenset(), 3, 4, seed=1)
        assert rep.refuted
        assert rep.refutations[0][1] == ((1, 2, 3, 4),) * 5

    def test_k2(self):
        rep = sampled_choosability(Graph(2, [(0, 1)]), 2, frozenset(), 30, 4, seed=2)
        assert not rep.refuted

    def test_deterministic_per_seed(self):
        a = sampled_choosability(cycle_graph(5), 4, frozenset(), 10, 8, seed=7)
        b = sampled_choosability(cycle_graph(5), 4, frozenset(), 10, 8, seed=7)
        assert a == b

    def test_same_refutations_as_a_built_palette(self):
        # colors are drawn by index from range(1, universe + 1); drawing from
        # the same colors as a list gives the same lists from the same seed
        c6 = cycle_graph(6)
        cases = [
            (cycle_graph(5), frozenset(), 4, 5, 1),
            (complete_graph(4), frozenset(), 3, 7, 2),
            (c6, frozenset(), 2, 3, 0),
            (c6, r_set(c6, [(0, 1)]), 2, 4, 5),
        ]
        refuted = 0
        for g, r, k, universe, seed in cases:
            rng = random.Random(seed)
            palette = list(range(1, universe + 1))
            want = []
            for t in range(30):
                lists = ListAssignment(tuple(frozenset(rng.sample(palette, k)) for _ in range(g.n)))
                if solve(RelaxedInstance(g, r, lists)) is None:
                    want.append((t, tuple(tuple(sorted(s)) for s in lists.lists)))
            rep = sampled_choosability(g, k, r, 30, universe, seed)
            assert rep.refutations == tuple(want)
            refuted += len(want)
        assert 0 < refuted < 120

    def test_universe_validated(self):
        with pytest.raises(ValueError):
            sampled_choosability(cycle_graph(5), 5, frozenset(), 5, 4, seed=0)


class TestReduceExtend:
    def test_pendant_case(self):
        p3 = path_graph(3)
        rec = reduce_low_degree(p3, frozenset(), 2)
        reduced, rr = rec.reduced_graph, rec.reduced_r
        assert rec.case == "pendant"
        assert reduced.n == 2 and rr == frozenset()

    def test_relaxed_edge_case(self):
        c7 = cycle_graph(7)
        rec = reduce_low_degree(c7, r_set(c7, [(0, 1)]), 0)
        assert rec.case == "relaxed_edge"

    def test_bridge_case_adds_marked_edge(self):
        c7 = cycle_graph(7)
        rec = reduce_low_degree(c7, frozenset(), 0)
        reduced, rr = rec.reduced_graph, rec.reduced_r
        assert rec.case == "bridge"
        assert reduced.n == 6 and len(reduced.edges) == 6
        assert rr == frozenset({(0, 5)})  # relabeled neighbors 1, 6

    def test_adjacent_neighbors_rejected(self):
        k3 = complete_graph(3)
        with pytest.raises(ReductionError):
            reduce_low_degree(k3, frozenset(), 0)

    def test_high_degree_rejected(self):
        with pytest.raises(ReductionError):
            reduce_low_degree(complete_graph(4), frozenset(), 0)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError, match="^unknown vertex 7$"):
            reduce_low_degree(cycle_graph(7), frozenset(), 7)

    def test_lists_of_the_reduced_graph_rejected(self):
        rec = reduce_low_degree(cycle_graph(7), frozenset(), 0)
        with pytest.raises(ValueError, match="^lists must cover the original graph$"):
            extend_low_degree(rec, {}, uniform_lists(6, 5))

    def _roundtrip(self, g, r, v, lists=None):
        lists = lists or uniform_lists(g.n, 5)
        rec = reduce_low_degree(g, r, v)
        reduced, rr = rec.reduced_graph, rec.reduced_r
        reduced_lists = ListAssignment(
            tuple(
                lists[old]
                for old, _ in sorted(rec.relabel.items(), key=lambda kv: kv[1])
            )
        )
        sub = solve(RelaxedInstance(reduced, rr, reduced_lists))
        assert sub is not None
        full = extend_low_degree(rec, sub, lists)
        assert is_relaxed_odd(RelaxedInstance(g, r, lists), full)
        return full

    def test_roundtrip_pendant(self):
        self._roundtrip(path_graph(3), frozenset(), 2)

    def test_roundtrip_bridge_on_cycle(self):
        self._roundtrip(cycle_graph(7), frozenset(), 3)

    def test_roundtrip_relaxed_edge(self):
        c7 = cycle_graph(7)
        self._roundtrip(c7, r_set(c7, [(2, 3)]), 3)

    def test_roundtrip_isolated(self):
        g = Graph(4, [(1, 2), (2, 3)])
        self._roundtrip(g, frozenset(), 0)

    def test_invalid_reduced_coloring_rejected(self):
        c7 = cycle_graph(7)
        rec = reduce_low_degree(c7, frozenset(), 0)
        lists = uniform_lists(7, 5)
        bad = {v: 1 for v in range(6)}  # not even proper on the reduced graph
        with pytest.raises(ValueError):
            extend_low_degree(rec, bad, lists)

    def test_five_list_required(self):
        c7 = cycle_graph(7)
        rec = reduce_low_degree(c7, frozenset(), 0)
        with pytest.raises(ValueError):
            extend_low_degree(rec, {}, uniform_lists(7, 4))
