import gc
import hashlib
import random
import time
from itertools import combinations
from math import factorial, prod

import pytest

from oddcolor import embedding
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
    embed_search,
    sorted_rotation,
    trace_faces,
)
from oddcolor.generate import generate_girth_instances

from fixtures import (
    analyze_embedded,
    bowtie_planar,
    cube_graph,
    cube_planar,
    k4_planar,
    petersen_graph,
    torus_quadrangulation,
    wheel_planar,
)
from oracles import (
    dfs_tree_reference,
    embeds_brute_force,
    face_search_reference,
    is_orientable_reference,
    is_planar,
    switched_reference,
    trace_faces_orientable_oracle,
    trace_faces_reference,
)


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
    return EmbeddedGraph(g, rot, signs)


class TestTraceFaces:
    def test_c4_two_squares(self):
        emb = sorted_rotation(cycle_graph(4))
        assert sorted(len(f) for f in emb.faces) == [4, 4]

    def test_k4_planar_four_triangles(self):
        emb = k4_planar()
        assert sorted(len(f) for f in emb.faces) == [3, 3, 3, 3]
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
                len(f) for f in trace_faces(EmbeddedGraph(g, rot))
            )
            assert mine == trace_faces_orientable_oracle(g, rot)

    def test_single_edge_one_face_of_length_two(self):
        g = Graph(2, [(0, 1)])
        emb = sorted_rotation(g)
        assert [len(f) for f in emb.faces] == [2]

    def test_path_outer_face_counts_edges_twice(self):
        g = path_graph(3)
        emb = sorted_rotation(g)
        assert [len(f) for f in emb.faces] == [4]

    def test_bowtie_outer_face_length_six(self):
        emb = bowtie_planar()
        assert sorted(len(f) for f in emb.faces) == [3, 3, 6]
        outer = max(emb.faces, key=len)
        # the shared vertex appears twice on the outer walk
        assert [v for v, _ in outer].count(2) == 2

    def test_dart_conservation(self):
        rng = random.Random(9)
        for _ in range(60):
            emb = random_embedded(rng)
            assert sum(len(f) for f in emb.faces) == 2 * len(emb.graph.edges)

    def test_every_dart_in_exactly_one_face(self):
        """Each edge index occurs exactly twice over all walks, and each walk
        chains every dart's head to the next dart's tail.  A dart itself may
        occur twice, since each walk runs as its trace met it."""
        rng = random.Random(10)
        for _ in range(30):
            emb = random_embedded(rng)
            per_edge = {i: 0 for i in range(len(emb.graph.edges))}
            for f in emb.faces:
                for i, (v, e) in enumerate(f):
                    per_edge[e] += 1
                    assert sum(emb.graph.edges[e]) - v == f[(i + 1) % len(f)][0]  # head to next tail
            assert all(c == 2 for c in per_edge.values())

    def test_matches_flag_reference_on_random_signed_rotations(self):
        rng = random.Random(12)
        edge = Graph(2, [(0, 1)])
        embs = [
            sorted_rotation(Graph(1, [])),
            sorted_rotation(edge),
            sorted_rotation(edge, [-1]),
        ] + [random_embedded(rng) for _ in range(300)]
        for emb in embs:
            ref = trace_faces_reference(emb)
            sides = [[] for _ in emb.graph.edges]
            for fi, f in enumerate(ref):
                for _, e in f:
                    sides[e].append(fi)
            assert emb.faces == ref
            assert list(analyze_embedded(emb).sides) == [tuple(s) for s in sides]
            assert trace_faces(emb) == ref
        degrees = {len(order) for emb in embs for order in emb.rotation}
        assert {0, 1, 2} <= degrees
        assert any(-1 in emb.signs for emb in embs[3:])

    def test_first_read_traces_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(embedding, "trace_faces", lambda emb: calls.append(emb) or trace_faces(emb))
        emb = sorted_rotation(complete_graph(4))
        assert calls == []
        assert analyze_embedded(emb).sides[0] and emb.faces and emb.euler_genus == 2
        assert len(calls) == 1

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="face tracing needs a connected graph"):
            sorted_rotation(g)

    def test_invalid_rotation_rejected(self):
        g = cycle_graph(3)
        with pytest.raises(ValueError, match=r"^rotation\[2\]: "):
            EmbeddedGraph(g, [[1, 2], [0, 2], [0, 0]])
        with pytest.raises(ValueError, match="^signs: expected 3 entries"):
            EmbeddedGraph(g, [[1, 2], [0, 2], [0, 1]], [1, 1])
        with pytest.raises(ValueError, match=r"^signs\[2\]: "):
            EmbeddedGraph(g, [[1, 2], [0, 2], [0, 1]], [1, 1, 2])
        with pytest.raises(ValueError, match="^rotation must list every vertex$"):
            EmbeddedGraph(g, [[1, 2], [0, 2]])

    @pytest.mark.parametrize(
        "other, g, v",
        [
            (complete_graph(3), path_graph(3), 0),
            # C4 with another labelling: 0-1-3-2-0
            (cycle_graph(4), Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]), 0),
        ],
    )
    def test_rotation_of_another_graph_rejected(self, other, g, v):
        rotation = sorted_rotation(other).rotation
        with pytest.raises(ValueError, match=rf"^rotation\[{v}\]: expected an order of the neighbors"):
            EmbeddedGraph(g, rotation)


class TestEulerGenus:
    def test_cube_planar(self):
        emb = cube_planar()
        assert len(emb.faces) == 6
        assert emb.euler_genus == 0

    def test_c4(self):
        emb = sorted_rotation(cycle_graph(4))
        assert emb.euler_genus == 0

    def test_torus_grid(self):
        emb = torus_quadrangulation(4)
        assert emb.euler_genus == 2
        assert all(len(f) == 4 for f in emb.faces)

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
        emb = EmbeddedGraph(g, [[1, 2], [0, 2], [0, 1]], [-1, 1, 1])
        assert [len(f) for f in emb.faces] == [6]
        assert emb.euler_genus == 1
        assert not emb.is_orientable()


class TestIsOrientable:
    def test_agrees_with_dfs_oracle(self):
        rng = random.Random(15)
        kinds = set()
        for _ in range(250):
            emb = random_embedded(rng)
            assert emb.is_orientable() == is_orientable_reference(emb)
            kinds.add(emb.is_orientable())
        assert kinds == {True, False}

    def test_small_cases_agree_with_dfs_oracle(self):
        tree = path_graph(4)
        k4 = complete_graph(4)
        cases = [
            (sorted_rotation(tree, [-1, 1, -1]), True),
            (sorted_rotation(Graph(1, [])), True),
            (sorted_rotation(k4, [1] * 5 + [-1]), False),
        ]
        for emb, orientable in cases:
            assert emb.is_orientable() == is_orientable_reference(emb) == orientable

    def test_normalizing_keeps_orientability(self):
        rng = random.Random(16)
        for _ in range(100):
            emb = random_embedded(rng)
            assert switched_reference(emb).is_orientable() == is_orientable_reference(emb)


class TestFaceAdjacency:
    """``Analysis.shared``, ``neighbors`` and ``corners`` of embedded graphs."""

    def test_c4_inner_outer_share_all(self):
        emb = sorted_rotation(cycle_graph(4))
        adj = analyze_embedded(emb).shared
        assert adj == {(0, 1): frozenset({0, 1, 2, 3})}

    def test_k4_each_pair_one_edge(self):
        emb = k4_planar()
        adj = analyze_embedded(emb).shared
        assert len(adj) == 6  # all four faces pairwise adjacent
        assert all(len(es) == 1 for es in adj.values())

    def test_path_self_incidence(self):
        g = path_graph(3)
        emb = sorted_rotation(g)
        assert analyze_embedded(emb).shared == {(0, 0): frozenset({0, 1})}

    def test_neighbors_exclude_self_incidence(self):
        k4 = analyze_embedded(k4_planar())
        assert k4.neighbors == tuple(frozenset({0, 1, 2, 3} - {f}) for f in range(4))
        g = path_graph(3)
        assert analyze_embedded(sorted_rotation(g)).neighbors == (frozenset(),)
        bowtie = analyze_embedded(bowtie_planar())
        outer = bowtie.lengths.index(6)
        assert bowtie.neighbors[outer] == frozenset(range(3)) - {outer}
        assert all(bowtie.neighbors[f] == {outer} for f in range(3) if f != outer)

    def test_corners_follow_the_walk(self):
        # the path 0-1-2 has one face, walked 0 -> 1 -> 2 -> 1 -> 0: the
        # middle vertex has two corners, each end one corner that turns back
        g = path_graph(3)
        emb = sorted_rotation(g)
        a = analyze_embedded(emb)
        e01, e12 = g.edge_index((0, 1)), g.edge_index((1, 2))
        assert a.corners[0] == ((0, e01, e01),)
        assert a.corners[2] == ((0, e12, e12),)
        assert sorted(a.corners[1]) == [(0, e01, e12), (0, e12, e01)]
        # one vertex, no edges: one face with an empty walk, no corners
        point = Graph(1, [])
        assert analyze_embedded(sorted_rotation(point)).corners == ((),)

    def test_corners_match_the_face_walks(self):
        rng = random.Random(11)
        for emb in [bowtie_planar(), k4_planar(), torus_quadrangulation(4)] + [
            random_embedded(rng) for _ in range(20)
        ]:
            a = analyze_embedded(emb)
            want = [[] for _ in range(emb.graph.n)]
            for fi, f in enumerate(emb.faces):
                for i, (v, dep) in enumerate(f):
                    want[v].append((fi, f[i - 1][1], dep))
            assert [list(cs) for cs in a.corners] == want
            assert [len(cs) for cs in a.corners] == [emb.graph.degree(v) for v in range(emb.graph.n)]

    def test_edges_at_match_the_reference_faces(self):
        rng = random.Random(16)
        revisits = 0
        for _ in range(300):
            emb = random_embedded(rng)
            g, a = emb.graph, analyze_embedded(emb)
            for fi, f in enumerate(trace_faces_reference(emb)):
                on_face = {e for _, e in f}
                for v in range(g.n):
                    assert a.edges_at(v, fi) == sorted(e for e in on_face if v in g.edges[e])
                revisits += len(f) > len({v for v, _ in f})
        assert revisits > 100  # walks that visit a vertex twice


def tree_signs_positive(emb: EmbeddedGraph) -> bool:
    g = emb.graph
    return all(emb.signs[g.edge_index(t)] == 1 for t in dfs_tree_reference(g))


class TestNormalizeSignatures:
    """Switching vertices, by ``switched_reference``, keeps the traced faces."""

    def test_tree_edges_positive_and_faces_preserved(self):
        rng = random.Random(21)
        for _ in range(40):
            emb = random_embedded(rng)
            norm = switched_reference(emb)
            assert sorted(map(len, norm.faces)) == sorted(map(len, emb.faces))
            assert norm.euler_genus == emb.euler_genus
            assert norm.is_orientable() == emb.is_orientable()
            assert tree_signs_positive(norm)

    def test_search_results_come_back_unchanged(self):
        """An orientable find has every sign +1, so switching it to that
        form changes nothing; a signed find keeps its faces under it."""
        cases = [
            (complete_graph(5), 1),  # projective plane, from the signed phase
            (complete_graph(7), 2),
            (torus_quadrangulation(5).graph, 2),
            (complete_bipartite_graph(3, 3), 1),
        ]
        kinds = set()
        for g, max_genus in cases:
            emb = embed_search(g, max_genus)
            norm = switched_reference(emb)
            if emb.is_orientable():
                assert (norm.rotation, norm.signs) == (emb.rotation, emb.signs)
            assert sorted(map(len, norm.faces)) == sorted(map(len, emb.faces))
            assert norm.euler_genus == emb.euler_genus
            kinds.add(emb.is_orientable())
        assert kinds == {True, False}

    def test_switching_needed_gives_a_new_embedding(self):
        g = complete_graph(4)
        emb = sorted_rotation(g, [-1] + [1] * (len(g.edges) - 1))
        norm = switched_reference(emb)
        assert norm.signs != emb.signs and norm.rotation != emb.rotation
        assert norm.signs[0] == 1
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

    @pytest.mark.parametrize("max_genus", [0, 1, 2])
    def test_null_graph_rejected(self, max_genus):
        with pytest.raises(ValueError, match="at least one vertex"):
            embed_search(Graph(0, []), max_genus)

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
        # hubs of degree 6 to 9, where closing a rotation walks the longest path
        for k in range(6, 10):
            for g in (wheel_planar(k).graph, complete_bipartite_graph(2, k)):
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
                assert_traced(emb, max_genus)

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
        assert_traced(emb, max_genus)

    @pytest.mark.parametrize("name", ["K4+leaf", "K33+leaf", "C5+chord+path", "cube+leaf", "sK4+path"])
    def test_pendant_paths_keep_the_girth_bound(self, name):
        # every face walk of a connected graph that is not a tree holds a
        # cycle, so a pendant path leaves the face-length bound at the girth;
        # the search finds what it finds with the bound 3, and agrees with
        # brute force
        h, tail = {
            "K4+leaf": (complete_graph(4), 1),
            "K33+leaf": (complete_bipartite_graph(3, 3), 1),
            "C5+chord+path": (Graph(5, list(cycle_graph(5).edges) + [(0, 2)]), 2),
            "cube+leaf": (cube_graph(), 1),
            "sK4+path": (one_subdivision(complete_graph(4)), 2),
        }[name]
        g = Graph(h.n + tail, list(h.edges) + [(h.n - 1 + i, h.n + i) for i in range(tail)])
        assert min(g.degree(v) for v in range(g.n)) == 1
        for max_genus in (0, 1, 2):
            emb = embed_search(g, max_genus)
            assert (emb is not None) == embeds_brute_force(g, max_genus)
            tables = embedding._dart_tables(g)
            for min_faces, min_len, signed in phase_args(g, max_genus):
                assert min_len == girth(h)
                found = embedding._face_search(tables, min_faces, min_len, signed)
                assert found == embedding._face_search(tables, min_faces, 3, signed)

    def test_known_nonplanar_cases(self):
        for g in (complete_graph(5), complete_bipartite_graph(3, 3), petersen_graph()):
            assert embed_search(g, 0) is None
        for g in (complete_graph(4), cube_graph()):
            assert embed_search(g, 0) is not None

    def test_deterministic(self):
        a = embed_search(complete_graph(5), 2)
        b = embed_search(complete_graph(5), 2)
        assert (a.rotation, a.signs) == (b.rotation, b.signs)


def phase_args(g, max_genus):
    """The arguments ``embed_search`` passes to each run of the face search:
    the orientable one, then, when max_genus >= 1, the signed one."""
    min_len = girth(g)
    sphere_faces = len(g.edges) - g.n + 2
    out = [(sphere_faces - (max_genus - max_genus % 2), min_len, False)]
    if max_genus >= 1:
        out.append((sphere_faces - max_genus, min_len, True))
    return out


def cotree_reference_search(g, min_faces, min_len):
    """``face_search_reference`` with the signs of the ``dfs_tree_reference``
    edges fixed to +1 and all others free: every surface up to switching,
    with no switching rule."""
    tree = {g.edge_index(t) for t in dfs_tree_reference(g)}
    cotree = frozenset(e for e in range(len(g.edges)) if e not in tree)
    return face_search_reference(g, min_faces, min_len, cotree)


def assert_traced(emb, max_genus):
    """A find's Euler genus, by the reference tracer, is at most max_genus,
    and ``is_orientable`` agrees with the reference."""
    if emb is not None:
        g = emb.graph
        assert 2 - (g.n - len(g.edges) + len(trace_faces_reference(emb))) <= max_genus
        assert emb.is_orientable() == is_orientable_reference(emb)


def forced_walk_stop(g):
    """Where the first face walk from the smallest dart, (0, min adj[0]),
    first meets a vertex of degree >= 3: (that vertex, darts walked), or
    None when the walk gets back to its first dart before."""
    dart, walked = (0, min(g.adj[0])), 1
    while True:
        u, w = dart
        if g.degree(w) >= 3:
            return w, walked
        dart = (w, next((x for x in g.adj[w] if x != u), u))
        if dart == (0, min(g.adj[0])):
            return None
        walked += 1


class TestMirrorCut:
    """The face search skips one of each mirror pair at the first choice of
    the first face walk; it must find the embedding the uncut search finds,
    and refute exactly what it refutes."""

    @staticmethod
    def assert_same_search(g, genera=(0, 1, 2)):
        tables = embedding._dart_tables(g)
        for max_genus in genera:
            runs = phase_args(g, max_genus)
            expected = face_search_reference(g, *runs[0][:2])
            assert embedding._face_search(tables, *runs[0]) == expected, (g.edges, max_genus, "orientable")
            if max_genus >= 1:
                # the signed run searches up to vertex switching, so only its
                # verdict is held to the reference's cotree run
                found = embedding._face_search(tables, *runs[1])
                expected = cotree_reference_search(g, *runs[1][:2])
                assert (found is None) == (expected is None), (g.edges, max_genus, "signed")

    def test_random_connected_graphs(self):
        rng = random.Random(13)
        checked = nonplanar = 0
        while checked < 320:
            n = rng.randint(4, 8)
            p = rng.choice((0.35, 0.5))
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            if not g.is_connected() or len(g.edges) < n:
                continue
            self.assert_same_search(g)
            nonplanar += embed_search(g, 0) is None
            checked += 1
        assert 0 < nonplanar < checked

    @pytest.mark.parametrize("host", ["K4", "K33"])
    def test_subdivided_walk_crosses_degree_two(self, host):
        h = complete_graph(4) if host == "K4" else complete_bipartite_graph(3, 3)
        g = one_subdivision(h)
        z, walked = forced_walk_stop(g)
        assert walked == 2 and z != 0
        self.assert_same_search(g)

    def test_walk_returns_to_vertex_zero(self):
        # triangle 0-1-2 hanging off K4 on {0, 3, 4, 5}: the walk 0-1-2
        # comes back to 0, where closing the face at dart (0, 1) is a choice
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (0, 5), (3, 4), (4, 5), (3, 5)])
        assert forced_walk_stop(g) == (0, 3)
        self.assert_same_search(g)

    @pytest.mark.parametrize(
        "n, edges, stop",
        [
            # a pendant vertex 1 at the start of the walk, then K4 at 0
            (5, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (3, 4), (2, 4)], (0, 2)),
            # the walk goes 0-1-2, turns at the pendant 2, and leaves 0 for K4
            (7, [(0, 1), (1, 2), (0, 3), (3, 4), (3, 5), (3, 6), (4, 5), (5, 6), (4, 6)], (3, 5)),
        ],
    )
    def test_pendant_vertex_on_the_walk(self, n, edges, stop):
        g = Graph(n, edges)
        assert forced_walk_stop(g) == stop
        self.assert_same_search(g)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_cycle_has_no_cut(self, n):
        g = cycle_graph(n)
        assert forced_walk_stop(g) is None
        self.assert_same_search(g)

    @pytest.mark.parametrize("name", ["27c", "28a", "28b", "28c", "29a", "31c"])
    def test_girth_seven_refutations_stand(self, name):
        n, i = int(name[:2]), "abc".index(name[2])
        g = generate_girth_instances(n, 7, 3, 5000 + n)[i]
        assert embed_search(g, 2) is None
        self.assert_same_search(g, genera=(2,))


class TestSwitchingRule:
    """With every sign chosen, the face search gives an edge into a vertex
    no walk has reached the sign +1 only.  That run must refute exactly what
    the reference's cotree run refutes, and every embedding it finds must
    trace to a small enough genus."""

    @staticmethod
    def assert_same_verdict(g, max_genus):
        _, (min_faces, min_len, signed) = phase_args(g, max_genus)
        found = embedding._face_search(embedding._dart_tables(g), min_faces, min_len, signed)
        expected = cotree_reference_search(g, min_faces, min_len)
        assert (found is None) == (expected is None), (g.edges, max_genus)
        if found is not None:
            assert_traced(EmbeddedGraph(g, *found), max_genus)

    def test_atlas_verdicts(self):
        nx = pytest.importorskip("networkx")
        checked = 0
        for h in nx.graph_atlas_g():
            n, m = h.number_of_nodes(), h.number_of_edges()
            if n == 0 or m < n or not nx.is_connected(h):
                continue
            g = Graph(n, [tuple(sorted(e)) for e in h.edges()])
            for euler_genus in (1, 2, 3):
                # Euler's bound: the faces needed fit at girth length each
                if m - n + 2 - euler_genus <= 2 * m // girth(g):
                    self.assert_same_verdict(g, euler_genus)
                    checked += 1
        assert checked > 2000

    def test_hunt_catalogue_verdicts(self):
        for n in range(16, 33):
            for g in generate_girth_instances(n, 7, 3, 5000 + n):
                for max_genus in (1, 2):
                    self.assert_same_verdict(g, max_genus)

    @pytest.mark.parametrize(
        "name, max_genus, runs",
        [("K4", 0, 1), ("27c", 2, 2), ("K5", 1, 2), ("K7", 1, 2)],
    )
    def test_runs_per_call(self, monkeypatch, name, max_genus, runs):
        # an orientable find stops after the first run; a refutation and a
        # signed find both end with the signed run, also when Euler's bound
        # refutes both runs at their roots (at Euler genus 1 K7 needs 15
        # faces of three edge sides each, 45 of its 42)
        g, finds = {
            "K4": (complete_graph(4), True),
            "27c": (generate_girth_instances(27, 7, 3, 5027)[2], False),
            "K5": (complete_graph(5), True),
            "K7": (complete_graph(7), False),
        }[name]
        calls = []
        face_search = embedding._face_search

        def counted(tables, min_faces, min_len, signed=False):
            calls.append((min_faces, min_len, signed))
            return face_search(tables, min_faces, min_len, signed)

        monkeypatch.setattr(embedding, "_face_search", counted)
        emb = embed_search(g, max_genus)
        assert (emb is not None) == finds
        assert calls == phase_args(g, max_genus)[:runs]


class TestFaceBudget:
    """Each face is at least the girth long, so the faces a run still needs
    must fit in the darts left as each face opens; at the root of a run that
    is Euler's bound, min_faces * girth <= 2E."""

    @staticmethod
    def euler_refuted(g, euler_genus):
        return len(g.edges) - g.n + 2 - euler_genus > 2 * len(g.edges) // girth(g)

    @staticmethod
    def assert_refuted(g, max_genus):
        if max_genus <= 2:
            assert embed_search(g, max_genus) is None, (g.edges, max_genus)
        tables = embedding._dart_tables(g)
        for run in phase_args(g, max_genus):
            assert embedding._face_search(tables, *run) is None, (g.edges, max_genus, run)

    def test_atlas_pairs_euler_refutes(self):
        # the pairs TestSwitchingRule.test_atlas_verdicts leaves out, four
        # graphs on 7 vertices at Euler genus 1, and 48 at Euler genus 0
        nx = pytest.importorskip("networkx")
        checked = []
        for h in nx.graph_atlas_g():
            n, m = h.number_of_nodes(), h.number_of_edges()
            if n == 0 or m < n or not nx.is_connected(h):
                continue
            g = Graph(n, [tuple(sorted(e)) for e in h.edges()])
            for euler_genus in (0, 1, 2, 3):
                if self.euler_refuted(g, euler_genus):
                    self.assert_refuted(g, euler_genus)
                    checked.append(euler_genus)
        assert (checked.count(0), checked.count(1), len(checked)) == (48, 4, 52)

    @pytest.mark.parametrize("n", [30, 40])
    def test_large_complete_graphs_refuted_at_the_root(self, n):
        g = complete_graph(n)
        assert self.euler_refuted(g, 2)
        started = time.perf_counter()
        self.assert_refuted(g, 2)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("name, max_genus", [("K4", 0), ("cube", 0), ("K7", 2), ("K44", 2), ("T4", 2)])
    def test_exact_budget_still_finds(self, name, max_genus):
        # every face of these embeddings is exactly the girth long, so the
        # orientable run's faces use up every dart
        g = {
            "K4": complete_graph(4),
            "cube": cube_graph(),
            "K7": complete_graph(7),
            "K44": complete_bipartite_graph(4, 4),
            "T4": torus_quadrangulation(4).graph,
        }[name]
        (min_faces, min_len, _), *_ = phase_args(g, max_genus)
        assert min_faces * min_len == 2 * len(g.edges)
        emb = embed_search(g, max_genus)
        assert emb is not None and emb.euler_genus == max_genus and emb.is_orientable()
        assert all(len(face) == min_len for face in emb.faces)


class TestFaceSearchState:
    """What the face search builds per call, and what it leaves behind."""

    # SHA-256 of repr([(rotation, signs) or None, ...]) over the 51 hunt
    # catalogue graphs: 41, 23 and 10 of them are refuted.  Pin 0 was
    # recorded at commit 55dc3aa, before the dart tables were built once per
    # call; pins 1 and 2 when a signed find began returning the embedding of
    # the run that chooses every sign, not that of a spanning-tree run
    PINS = {
        0: "fe9f2e707045bf9f1542c238bc603a2623fe87660add5672048045dcadbe71d6",
        1: "ed601549d98337f2a43d6cfb1f6035c8aafea9c3a858ce978f2245101f5b2ed6",
        2: "cf517cf4bad03f7e832eeec8033737f1ecb22307fc5a6f02d157985b58df79ef",
    }
    REFUTED = {0: 41, 1: 23, 2: 10}

    @pytest.mark.parametrize("max_genus", [0, 1, 2])
    def test_hunt_catalogue_embeddings_pinned(self, max_genus):
        graphs = [g for n in range(16, 33) for g in generate_girth_instances(n, 7, 3, 5000 + n)]
        found = [None if e is None else (e.rotation, e.signs) for e in (embed_search(g, max_genus) for g in graphs)]
        assert found.count(None) == self.REFUTED[max_genus]
        assert hashlib.sha256(repr(found).encode()).hexdigest() == self.PINS[max_genus]

    def test_dart_tables_built_once_per_call(self, monkeypatch):
        calls = []
        dart_tables = embedding._dart_tables

        def counted(g):
            calls.append(g)
            return dart_tables(g)

        monkeypatch.setattr(embedding, "_dart_tables", counted)
        k5 = complete_graph(5)
        # the orientable phase fails at Euler genus 0, the signed one finds
        # the projective plane
        emb = embed_search(k5, 1)
        assert emb is not None and emb.euler_genus == 1
        assert calls == [k5]

    def test_search_leaves_no_reference_cycle(self):
        graphs = [complete_graph(5), complete_graph(6)]
        graphs += generate_girth_instances(29, 7, 3, 5029)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for g in graphs:
                for max_genus in (0, 1, 2):
                    gc.collect()
                    embed_search(g, max_genus)
                    assert gc.collect() == 0, (g.n, max_genus)
        finally:
            if enabled:
                gc.enable()
