import random
import time
from itertools import combinations
from math import factorial, prod

import pytest

from oddcolor.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    girth,
    one_subdivision,
    path_graph,
)
from oddcolor.embedding import (
    EmbeddedGraph,
    RotationSystem,
    embed_search,
    normalize_signatures,
    sorted_rotation,
    trace_faces,
)

from fixtures import (
    analyze_embedded,
    bowtie_planar,
    cube_graph,
    cube_planar,
    k4_planar,
    petersen_graph,
    torus_quadrangulation,
)
from oracles import embeds_brute_force, is_planar, trace_faces_orientable_oracle


def random_embedded(rng, max_n=7, signed=True):
    while True:
        n = rng.randint(2, max_n)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        if g.is_connected():
            break
    rot = []
    for v in range(g.n):
        order = sorted(g.adj[v])
        rng.shuffle(order)
        rot.append(order)
    signs = [rng.choice((-1, 1)) if signed else 1 for _ in g.edges]
    return EmbeddedGraph(g, RotationSystem(g, rot, signs))


class TestTraceFaces:
    def test_c4_two_squares(self):
        emb = EmbeddedGraph(cycle_graph(4), sorted_rotation(cycle_graph(4)))
        assert sorted(f.length for f in emb.faces) == [4, 4]

    def test_k4_planar_four_triangles(self):
        emb = k4_planar()
        assert sorted(f.length for f in emb.faces) == [3, 3, 3, 3]
        assert emb.euler_genus == 0

    def test_k4_agrees_with_orientable_oracle(self):
        g = complete_graph(4)
        rng = random.Random(2)
        for _ in range(25):
            rot = []
            for v in range(4):
                order = sorted(g.adj[v])
                rng.shuffle(order)
                rot.append(order)
            mine = sorted(
                f.length for f in trace_faces(g, RotationSystem(g, rot))
            )
            assert mine == trace_faces_orientable_oracle(g, rot)

    def test_single_edge_one_face_of_length_two(self):
        g = Graph(2, [(0, 1)])
        emb = EmbeddedGraph(g, sorted_rotation(g))
        assert [f.length for f in emb.faces] == [2]

    def test_path_outer_face_counts_edges_twice(self):
        g = path_graph(3)
        emb = EmbeddedGraph(g, sorted_rotation(g))
        assert [f.length for f in emb.faces] == [4]

    def test_bowtie_outer_face_length_six(self):
        emb = bowtie_planar()
        assert sorted(f.length for f in emb.faces) == [3, 3, 6]
        outer = max(emb.faces, key=lambda f: f.length)
        # the shared vertex appears twice on the outer walk
        assert [v for v, _ in outer.darts].count(2) == 2

    def test_dart_conservation(self):
        rng = random.Random(9)
        for _ in range(60):
            emb = random_embedded(rng)
            assert sum(f.length for f in emb.faces) == 2 * len(emb.graph.edges)

    def test_every_dart_in_exactly_one_face(self):
        rng = random.Random(10)
        for _ in range(30):
            emb = random_embedded(rng)
            per_edge = {i: 0 for i in range(len(emb.graph.edges))}
            for f in emb.faces:
                for _, e in f.darts:
                    per_edge[e] += 1
            assert all(c == 2 for c in per_edge.values())

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            trace_faces(g, sorted_rotation(g))

    def test_invalid_rotation_rejected(self):
        g = cycle_graph(3)
        with pytest.raises(ValueError):
            RotationSystem(g, [[1, 2], [0, 2], [0, 0]])
        with pytest.raises(ValueError):
            RotationSystem(g, [[1, 2], [0, 2], [0, 1]], [1, 1])
        with pytest.raises(ValueError):
            RotationSystem(g, [[1, 2], [0, 2], [0, 1]], [1, 1, 2])


class TestEulerGenus:
    def test_cube_planar(self):
        emb = cube_planar()
        assert len(emb.faces) == 6
        assert emb.euler_genus == 0

    def test_c4(self):
        emb = EmbeddedGraph(cycle_graph(4), sorted_rotation(cycle_graph(4)))
        assert emb.euler_genus == 0

    def test_torus_grid(self):
        emb = torus_quadrangulation(4)
        assert emb.euler_genus == 2
        assert all(f.length == 4 for f in emb.faces)

    def test_nonnegative_for_all_rotations(self):
        rng = random.Random(13)
        for _ in range(60):
            emb = random_embedded(rng)
            assert emb.euler_genus >= 0

    def test_all_positive_signs_orientable_even(self):
        rng = random.Random(14)
        for _ in range(40):
            emb = random_embedded(rng, signed=False)
            assert emb.is_orientable()
            assert emb.euler_genus % 2 == 0

    def test_crosscap_cycle_projective(self):
        g = cycle_graph(3)
        emb = EmbeddedGraph(g, RotationSystem(g, [[1, 2], [0, 2], [0, 1]], [-1, 1, 1]))
        assert [f.length for f in emb.faces] == [6]
        assert emb.euler_genus == 1
        assert not emb.is_orientable()


class TestFaceAdjacency:
    """``Analysis.shared``, ``neighbors`` and ``corners`` of embedded graphs."""

    def test_c4_inner_outer_share_all(self):
        emb = EmbeddedGraph(cycle_graph(4), sorted_rotation(cycle_graph(4)))
        adj = analyze_embedded(emb).shared
        assert adj == {(0, 1): frozenset({0, 1, 2, 3})}

    def test_k4_each_pair_one_edge(self):
        emb = k4_planar()
        adj = analyze_embedded(emb).shared
        assert len(adj) == 6  # all four faces pairwise adjacent
        assert all(len(es) == 1 for es in adj.values())

    def test_path_self_incidence(self):
        g = path_graph(3)
        emb = EmbeddedGraph(g, sorted_rotation(g))
        assert analyze_embedded(emb).shared == {(0, 0): frozenset({0, 1})}

    def test_neighbors_exclude_self_incidence(self):
        k4 = analyze_embedded(k4_planar())
        assert k4.neighbors == tuple(frozenset({0, 1, 2, 3} - {f}) for f in range(4))
        g = path_graph(3)
        assert analyze_embedded(EmbeddedGraph(g, sorted_rotation(g))).neighbors == (frozenset(),)
        bowtie = analyze_embedded(bowtie_planar())
        outer = bowtie.lengths.index(6)
        assert bowtie.neighbors[outer] == frozenset(range(3)) - {outer}
        assert all(bowtie.neighbors[f] == {outer} for f in range(3) if f != outer)

    def test_corners_follow_the_walk(self):
        # the path 0-1-2 has one face, walked 0 -> 1 -> 2 -> 1 -> 0: the
        # middle vertex has two corners, each end one corner that turns back
        g = path_graph(3)
        emb = EmbeddedGraph(g, sorted_rotation(g))
        a = analyze_embedded(emb)
        e01, e12 = g.edge_index((0, 1)), g.edge_index((1, 2))
        assert a.corners[0] == ((0, e01, e01),)
        assert a.corners[2] == ((0, e12, e12),)
        assert sorted(a.corners[1]) == [(0, e01, e12), (0, e12, e01)]
        # one vertex, no edges: one face with an empty walk, no corners
        point = Graph(1, [])
        assert analyze_embedded(EmbeddedGraph(point, sorted_rotation(point))).corners == ((),)

    def test_corners_match_the_face_walks(self):
        rng = random.Random(11)
        for emb in [bowtie_planar(), k4_planar(), torus_quadrangulation(4)] + [
            random_embedded(rng) for _ in range(20)
        ]:
            a = analyze_embedded(emb)
            want = [[] for _ in range(emb.graph.n)]
            for fi, f in enumerate(emb.faces):
                for i, (v, dep) in enumerate(f.darts):
                    want[v].append((fi, f.darts[i - 1][1], dep))
            assert [list(cs) for cs in a.corners] == want
            assert [len(cs) for cs in a.corners] == [emb.graph.degree(v) for v in range(emb.graph.n)]


class TestNormalizeSignatures:
    def test_tree_edges_positive_and_faces_preserved(self):
        rng = random.Random(21)
        for _ in range(40):
            emb = random_embedded(rng)
            norm = normalize_signatures(emb)
            assert sorted(f.length for f in norm.faces) == sorted(
                f.length for f in emb.faces
            )
            assert norm.euler_genus == emb.euler_genus
            # find a spanning tree and check its signs
            g = norm.graph
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for w in sorted(g.adj[u]):
                    if w not in seen:
                        seen.add(w)
                        assert norm.rotation.signs[g.edge_index((u, w))] == 1
                        stack.append(w)

    def test_search_results_come_back_unchanged(self):
        """``embed_search`` fixes the spanning-tree signs to +1 itself, so
        normalizing its result switches no vertex and traces no faces."""
        cases = [
            (complete_graph(5), 1),  # projective plane, from the signed phase
            (complete_graph(7), 2),
            (torus_quadrangulation(5).graph, 2),
            (complete_bipartite_graph(3, 3), 1),
        ]
        kinds = set()
        for g, max_genus in cases:
            emb = embed_search(g, max_genus)
            assert normalize_signatures(emb) is emb
            kinds.add(emb.is_orientable())
        assert kinds == {True, False}

    def test_switching_needed_gives_a_new_embedding(self):
        g = complete_graph(4)
        emb = EmbeddedGraph(g, sorted_rotation(g, [-1] + [1] * (len(g.edges) - 1)))
        norm = normalize_signatures(emb)
        assert norm is not emb
        assert norm.rotation.signs[0] == 1
        assert norm.euler_genus == emb.euler_genus


class TestEmbedSearch:
    def test_k5_not_planar(self):
        assert embed_search(complete_graph(5), 0) is None

    def test_k5_torus(self):
        emb = embed_search(complete_graph(5), 2)
        assert emb is not None and emb.euler_genus <= 2

    def test_k5_projective(self):
        emb = embed_search(complete_graph(5), 1)
        assert emb is not None
        assert emb.euler_genus == 1
        assert not emb.is_orientable()

    def test_k6_projective_fast(self):
        started = time.perf_counter()
        emb = embed_search(complete_graph(6), 1)
        assert time.perf_counter() - started < 1.0
        assert emb is not None
        assert emb.euler_genus == 1
        assert not emb.is_orientable()

    def test_large_torus_at_default_recursion_limit(self, default_recursion_limit):
        emb = embed_search(torus_quadrangulation(20).graph, 2)
        assert emb is not None and emb.euler_genus == 2

    def test_klein_bottle_only(self):
        # two K3,3 joined by a bridge: Euler genus adds over blocks, so the
        # orientable genus is 2 (Euler genus 4) and the non-orientable one 2
        k33 = complete_bipartite_graph(3, 3)
        g = Graph(12, list(k33.edges) + [(u + 6, v + 6) for u, v in k33.edges] + [(0, 6)])
        assert embed_search(g, 1) is None
        emb = embed_search(g, 2)
        assert emb is not None
        assert emb.euler_genus == 2
        assert not emb.is_orientable()

    def test_c5_planar_two_faces(self):
        emb = embed_search(cycle_graph(5), 0)
        assert emb is not None
        assert len(emb.faces) == 2

    def test_k33(self):
        assert embed_search(complete_bipartite_graph(3, 3), 0) is None
        emb = embed_search(complete_bipartite_graph(3, 3), 1)
        assert emb is not None and emb.euler_genus == 1

    def test_trees_trivially_planar(self):
        emb = embed_search(path_graph(6), 0)
        assert emb is not None and emb.euler_genus == 0

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            embed_search(Graph(4, [(0, 1), (2, 3)]), 0)

    def test_bad_genus_rejected(self):
        with pytest.raises(ValueError):
            embed_search(cycle_graph(3), 3)

    def test_agrees_with_planarity_oracle(self):
        rng = random.Random(31)
        checked = 0
        while checked < 35:
            n = rng.randint(3, 8)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
            g = Graph(n, edges)
            if not g.is_connected():
                continue
            checked += 1
            assert (embed_search(g, 0) is not None) == is_planar(g)

    def test_agrees_with_networkx_planarity(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(33)
        for _ in range(60):
            n = rng.randint(5, 12)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 3.2 / n])
            if not g.is_connected():
                continue
            planar, _ = nx.check_planarity(nx.Graph(g.edges))
            assert (embed_search(g, 0) is not None) == planar

    def test_agrees_with_brute_force_oracle(self):
        # the oracle enumerates every rotation system, times every cotree
        # sign vector, so the random graphs are kept to at most 600 rotation
        # systems; so few edges seldom make a non-planar graph, hence K3,3
        # and K3,3 plus an edge
        k33 = complete_bipartite_graph(3, 3)
        graphs = [k33, Graph(6, list(k33.edges) + [(0, 1)])]
        rng = random.Random(32)
        while len(graphs) < 40:
            n = rng.randint(2, 6)
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.6])
            if g.is_connected() and prod(factorial(g.degree(v) - 1) for v in range(n)) <= 600:
                graphs.append(g)
        for g in graphs:
            for max_genus in (0, 1, 2):
                emb = embed_search(g, max_genus)
                assert (emb is not None) == embeds_brute_force(g, max_genus)
                assert emb is None or emb.euler_genus <= max_genus

    @pytest.mark.parametrize(
        "name, max_genus",
        [("cube", 0), ("K33", 1), ("petersen", 1), ("sK4", 0), ("sK4", 1), ("sK33", 1)],
    )
    def test_agrees_with_brute_force_oracle_at_tight_slack(self, name, max_genus):
        # 2E - min_faces * girth is 0 to 6 darts: open walks have little
        # room to wander, so the distance cut in the face search fires often
        g = {
            "cube": cube_graph(),
            "K33": complete_bipartite_graph(3, 3),
            "petersen": petersen_graph(),
            "sK4": one_subdivision(complete_graph(4)),
            "sK33": one_subdivision(complete_bipartite_graph(3, 3)),
        }[name]
        m = len(g.edges)
        assert 0 <= 2 * m - (m - g.n + 2 - max_genus) * girth(g) <= 6
        emb = embed_search(g, max_genus)
        assert (emb is not None) == embeds_brute_force(g, max_genus)
        assert emb is None or emb.euler_genus <= max_genus

    def test_known_nonplanar_cases(self):
        for g in (complete_graph(5), complete_bipartite_graph(3, 3), petersen_graph()):
            assert embed_search(g, 0) is None
        for g in (complete_graph(4), cube_graph()):
            assert embed_search(g, 0) is not None

    def test_deterministic(self):
        a = embed_search(complete_graph(5), 2)
        b = embed_search(complete_graph(5), 2)
        assert a.rotation == b.rotation
