import random
from itertools import combinations

import pytest

from oddcolor.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    hypothesis_check,
    r_set,
)
from oddcolor.embedding import EmbeddedGraph, sorted_rotation
from oddcolor.audit import (
    FACE_LEMMAS,
    LEMMA_STATEMENTS,
    _entry,
    analyze,
    check_degree_lemmas,
    check_face_lemmas,
    check_four_vertex_configs,
    check_relaxed_neighborhoods,
    check_triangle_lemmas,
    full_audit,
)

from fixtures import (
    analyze_embedded,
    embed_planar,
    lemma_4v_two_supported_graph,
    lemma_44_supported_graph,
    mcgee_graph,
    pentagon_hub_chain_planar,
    pentagons_with_two_candidates_planar,
    petersen_graph,
    rotation_from_coords,
    theta_planar,
    torus_quadrangulation,
    tri_quad_planar,
    tri_quad_wheel_planar,
    two_squares_planar,
)
from oracles import is_r_relaxed, triangle_lemmas_reference

EMPTY = frozenset()


def by_lemma(entries):
    return {e.lemma: e for e in entries}


class TestDegreeLemmas:
    def test_c5_every_vertex_flagged(self):
        frag = by_lemma(check_degree_lemmas(analyze(cycle_graph(5), EMPTY)))
        assert frag["L3.1"].verdict == "holds"
        assert len(frag["L3.2"].witnesses) == 5

    def test_petersen_clean(self):
        frag = by_lemma(check_degree_lemmas(analyze(petersen_graph(), EMPTY)))
        assert frag["L3.2"].verdict == "holds"

    def test_disconnected_flagged(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        frag = by_lemma(check_degree_lemmas(analyze(g, EMPTY)))
        assert frag["L3.1"].verdict == "violated"
        assert frag["L3.1"].witnesses[0]["components"] == [[0, 1, 2], [3, 4, 5]]


class TestRelaxedNeighborhoods:
    def test_petersen_all_relaxed_everywhere(self):
        # 3-regular: every vertex is relaxed, so every 3-vertex violates
        frag = by_lemma(check_relaxed_neighborhoods(analyze(petersen_graph(), EMPTY)))
        assert len(frag["L3.3"].witnesses) == 10

    def test_four_regular_clean(self):
        frag = by_lemma(check_relaxed_neighborhoods(analyze(complete_graph(5), EMPTY)))
        assert frag["L3.3"].verdict == "holds"
        assert frag["L3.6"].verdict == "holds"  # nobody is relaxed with empty R

    def test_relaxed_four_vertex_with_relaxed_neighbors(self):
        # star of 4 triangles: center has degree 4 after adding a marked edge
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
        r = r_set(g, [(1, 2)])
        frag = by_lemma(check_relaxed_neighborhoods(analyze(g, r)))
        # center 0: degree 4, relaxed? no marked edge at 0, even degree: not relaxed
        assert frag["L3.6"].verdict == "holds"
        r2 = r_set(g, [(0, 1), (0, 2), (0, 3), (0, 4)])
        frag2 = by_lemma(check_relaxed_neighborhoods(analyze(g, r2)))
        assert frag2["L3.6"].verdict == "violated"
        assert frag2["L3.6"].witnesses[0]["vertex"] == 0


class TestTriangleLemmas:
    def test_unmarked_triangle_flagged(self):
        frag = by_lemma(check_triangle_lemmas(analyze(complete_graph(3), EMPTY)))
        assert frag["L3.4"].verdict == "violated"
        assert any(w.get("r_length") == 3 for w in frag["L3.4"].witnesses)

    def test_doubly_marked_triangle_passes_length(self):
        k3 = complete_graph(3)
        frag = by_lemma(check_triangle_lemmas(analyze(k3, r_set(k3, [(0, 1), (1, 2)]))))
        assert frag["L3.4"].verdict == "holds"
        assert frag["L3.5"].verdict == "holds"  # no degree-3 vertex in K3

    def test_three_vertex_on_triangle(self):
        # K4: every vertex has degree 3 and sits on triangles
        frag = by_lemma(check_triangle_lemmas(analyze(complete_graph(4), EMPTY)))
        assert frag["L3.5"].verdict == "violated"
        assert len(frag["L3.5"].witnesses) == 12  # 4 triangles x 3 vertices

    def test_k4_triangles_share_edges(self):
        frag = by_lemma(check_triangle_lemmas(analyze(complete_graph(4), EMPTY)))
        assert frag["L3.10"].verdict == "violated"
        assert len(frag["L3.10"].witnesses) == 6  # C(4,2) pairs sharing one edge

    def test_girth_seven_vacuous(self):
        frag = by_lemma(check_triangle_lemmas(analyze(mcgee_graph(), EMPTY)))
        assert all(frag[l].verdict == "holds" for l in ("L3.4", "L3.5", "L3.10"))

    def test_length_check_monotone_for_off_triangle_edges(self):
        # a triangle carrying exactly two marked edges is clean; marking any
        # edge outside it cannot create a length violation on it
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        r = r_set(g, [(0, 1), (1, 2)])
        before = by_lemma(check_triangle_lemmas(analyze(g, r)))
        assert before["L3.4"].verdict == "holds"
        for extra in ((2, 3), (3, 4)):
            after = by_lemma(check_triangle_lemmas(analyze(g, r | r_set(g, [extra]))))
            assert not any(
                "r_length" in w for w in after["L3.4"].witnesses
            )

    def test_same_witnesses_as_reference_triangles(self):
        rng = random.Random(24)
        graphs = [Graph(n, []) for n in range(4)] + [Graph(2, [(0, 1)])]
        graphs += [complete_graph(n) for n in range(3, 8)]
        graphs += [Graph(9, [(0, 1), (1, 2), (0, 2), (2, 3), (5, 6)])]  # isolated 4, 7, 8
        for _ in range(60):
            n = rng.randint(0, 12)
            p = rng.choice((0.2, 0.4, 0.7))
            graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
        seen = set()
        for g in graphs:
            r = frozenset(e for e in g.edges if rng.random() < 0.4)
            got = {e.lemma: list(e.witnesses) for e in check_triangle_lemmas(analyze(g, r))}
            assert got == triangle_lemmas_reference(g, r), (g, sorted(r))
            seen.update(lemma for lemma, w in got.items() if w)
        assert seen == {"L3.4", "L3.5", "L3.10"}


class TestLemmasImpliedByHypotheses:
    """On instances that pass the cycle hypotheses, L3.4 and L3.10 hold,
    and L3.5 follows from L3.3: a triangle of r-length 5 has two R edges,
    which touch all three of its vertices, so a 3-vertex on it has two
    relaxed neighbors."""

    def test_random_instances_with_random_rotations(self):
        rng = random.Random(8)
        instances = l35 = 0
        while instances < 300:
            n = rng.randint(5, 11)
            p = rng.choice((0.3, 0.45, 0.6))
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            r = frozenset(e for e in g.edges if rng.random() < 0.5)
            if not g.is_connected() or not hypothesis_check(g, r).passes:
                continue
            instances += 1
            rotation = [rng.sample(sorted(g.adj[v]), g.degree(v)) for v in range(n)]
            signs = [rng.choice((1, -1)) for _ in g.edges]
            rep = by_lemma(full_audit(analyze(g, r, EmbeddedGraph(g, rotation, signs))).entries)
            assert rep["L3.4"].verdict == rep["L3.10"].verdict == "holds", (g, sorted(r))
            l33 = {w["vertex"] for w in rep["L3.3"].witnesses}
            assert {w["vertex"] for w in rep["L3.5"].witnesses} <= l33, (g, sorted(r))
            l35 += len(rep["L3.5"].witnesses)
        assert l35 > 50  # the hypotheses leave triangles with 3-vertices


class TestFourVertexConfigs:
    def test_two_supported_pattern(self):
        g = lemma_4v_two_supported_graph()
        frag = by_lemma(check_four_vertex_configs(analyze(g, EMPTY)))
        assert frag["L3.7"].verdict == "violated"
        w = frag["L3.7"].witnesses[0]
        assert (w["x"], w["y"], w["z"]) == (0, 1, 2)
        # recheck the witness independently
        assert g.degree(w["x"]) == 4
        assert g.degree(w["y"]) == 3 and g.degree(w["z"]) == 3
        assert is_r_relaxed(w["support_y"], g, EMPTY)
        assert is_r_relaxed(w["support_z"], g, EMPTY)
        assert is_r_relaxed(w["relaxed_in_closed_nbhd"], g, EMPTY)

    def test_all_neighbors_supported_pattern(self):
        # degree-4 vertex whose 4 neighbors are supported 3-vertices
        edges = [(0, i) for i in (1, 2, 3, 4)]
        nxt = 5
        for i in (1, 2, 3, 4):
            edges += [(i, nxt), (i, nxt + 1)]
            nxt += 2
        g = Graph(nxt, edges)
        frag = by_lemma(check_four_vertex_configs(analyze(g, EMPTY)))
        assert frag["L3.8"].verdict == "violated"
        assert frag["L3.8"].witnesses[0]["vertex"] == 0

    def test_adjacent_pair_pattern(self):
        g = lemma_44_supported_graph()
        frag = by_lemma(check_four_vertex_configs(analyze(g, EMPTY)))
        assert frag["L3.9"].verdict == "violated"
        w = frag["L3.9"].witnesses[0]
        assert (w["x"], w["y"]) == (0, 1)
        assert w["x_children"] == [2, 3]
        assert w["y_children"] == [5, 6]

    def test_cubic_graph_vacuous(self):
        frag = by_lemma(check_four_vertex_configs(analyze(mcgee_graph(), EMPTY)))
        assert all(frag[l].verdict == "holds" for l in ("L3.7", "L3.8", "L3.9"))


class TestFaceLemmas:
    def test_quadrangulation_every_vertex_flagged(self):
        emb = torus_quadrangulation(4)
        frag = by_lemma(check_face_lemmas(analyze_embedded(emb, EMPTY)))
        assert frag["L3.16"].verdict == "violated"
        assert len(frag["L3.16"].witnesses) == 16
        for lemma in ("L3.11", "L3.12-unnamed", "L3.13", "L3.14", "L3.15"):
            assert frag[lemma].verdict == "holds"

    def test_girth_seven_cubic_embedding_vacuous(self):
        # no genus <= 2 embedding exists for a cubic girth-7 graph (Euler
        # counting), so audit an arbitrary rotation: faces are all long
        g = mcgee_graph()
        emb = sorted_rotation(g)
        assert min(len(f) for f in emb.faces) >= 7
        frag = by_lemma(check_face_lemmas(analyze_embedded(emb, EMPTY)))
        assert all(e.verdict == "holds" for e in frag.values())

    def test_triangle_beside_quad_non_relaxed_vertex(self):
        emb = tri_quad_planar()
        frag = by_lemma(check_face_lemmas(analyze_embedded(emb, EMPTY)))
        assert frag["L3.11"].verdict == "violated"
        flagged = {
            w["non_relaxed_vertex"]
            for w in frag["L3.11"].witnesses
            if "non_relaxed_vertex" in w
        }
        assert flagged == {2, 3, 4}  # the even-degree vertices on the two faces

    def test_triangle_beside_quad_all_relaxed_passes(self):
        emb = tri_quad_planar()
        g = emb.graph
        r = r_set(g, [(1, 2), (0, 2), (1, 3), (0, 4)])  # everyone touched
        frag = by_lemma(check_face_lemmas(analyze_embedded(emb, r)))
        assert frag["L3.11"].verdict == "holds"

    def test_two_quads_sharing_edge_with_low_degree_end(self):
        emb = two_squares_planar()
        assert sorted(len(f) for f in emb.faces) == [4, 4, 6]
        frag = by_lemma(check_face_lemmas(analyze_embedded(emb, EMPTY)))
        assert frag["L3.13"].verdict == "violated"
        assert {w["vertex"] for w in frag["L3.13"].witnesses} == {1, 4}

    def test_three_vertex_on_two_pentagons_and_a_quad(self):
        # degree-3 hub 0 with spokes to 1, 2, 3; the three sectors are closed
        # by outer paths of lengths 3, 3, 2, giving faces 5, 5, 4 around 0
        g = Graph(
            9,
            [(0, 1), (0, 2), (0, 3),
             (1, 4), (4, 5), (5, 2),
             (2, 6), (6, 7), (7, 3),
             (3, 8), (8, 1)],
        )
        emb = embed_planar(
            g,
            {0: (0.0, 0.0), 1: (0.0, 1.5), 2: (-1.3, -0.75), 3: (1.3, -0.75),
             4: (-1.41, 1.69), 5: (-2.17, 0.38),
             6: (-0.75, -2.07), 7: (0.75, -2.07), 8: (1.9, 1.1)},
        )
        lengths = sorted(len(f) for f in emb.faces)
        assert lengths == [4, 5, 5, 8]
        frag = by_lemma(check_face_lemmas(analyze_embedded(emb, EMPTY)))
        assert frag["L3.15"].verdict == "violated"
        assert frag["L3.15"].witnesses[0]["vertex"] == 0


    def test_two_pentagons_with_no_unique_neighbor(self):
        emb = pentagons_with_two_candidates_planar()
        assert sorted(len(f) for f in emb.faces) == [3, 5, 5, 5]
        frag = by_lemma(check_face_lemmas(analyze_embedded(emb, EMPTY)))
        assert frag["L3.14"].verdict == "holds" and not frag["L3.14"].witnesses


class TestFullAudit:
    def test_c5_not_shaped(self):
        emb = sorted_rotation(cycle_graph(5))
        rep = full_audit(analyze_embedded(emb, EMPTY))
        assert not rep.counterexample_shaped
        assert by_lemma(rep.entries)["L3.2"].verdict == "violated"

    def test_quadrangulation_not_shaped(self):
        rep = full_audit(analyze_embedded(torus_quadrangulation(4), EMPTY))
        assert not rep.counterexample_shaped
        assert by_lemma(rep.entries)["L3.16"].verdict == "violated"

    def test_matches_fragment_union(self):
        a = analyze_embedded(theta_planar(), EMPTY)
        rep = full_audit(a)
        pieces = (
            check_degree_lemmas(a)
            + check_relaxed_neighborhoods(a)
            + check_triangle_lemmas(a)
            + check_four_vertex_configs(a)
            + check_face_lemmas(a)
        )
        assert {e.lemma: e for e in rep.entries} == {e.lemma: e for e in pieces}

    def test_graph_only_skips_face_lemmas(self):
        g = cycle_graph(7)
        rep = full_audit(analyze(g, EMPTY))
        for lemma in FACE_LEMMAS:
            assert by_lemma(rep.entries)[lemma].verdict == "skipped"
        embedded = full_audit(analyze_embedded(sorted_rotation(g), EMPTY))
        assert [e for e in rep.entries if e.lemma not in FACE_LEMMAS] == [
            e for e in embedded.entries if e.lemma not in FACE_LEMMAS
        ]

    def test_embedding_of_another_graph_rejected(self):
        # the paw (a triangle with a pendant edge) has as many edges as C4,
        # and C6 one more vertex than C5: neither embedding is of the graph
        paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        for g, other in ((cycle_graph(4), paw), (cycle_graph(5), cycle_graph(6))):
            with pytest.raises(ValueError, match="the embedding is of another graph"):
                analyze(g, EMPTY, sorted_rotation(other))

    def test_report_json_shape(self):
        rep = full_audit(analyze(cycle_graph(5), EMPTY))
        js = rep.to_json()
        assert all({"lemma", "statement", "verdict", "witnesses"} <= set(e) for e in js)


def random_grid_embedding(rng):
    """A grid of up to 5 x 5 with random edges missing and random diagonals,
    drawn straight, then up to two vertices' rotations shuffled and about
    one edge sign in twenty flipped: many faces of lengths 3 to 6."""
    while True:
        w, h = rng.randint(3, 5), rng.randint(3, 5)
        coords = {i * w + j: (j, i) for i in range(h) for j in range(w)}
        edges = [(v, v + 1) for v in coords if v % w < w - 1 and rng.random() < 0.85]
        edges += [(v, v + w) for v in coords if v + w < w * h and rng.random() < 0.85]
        for v in coords:
            if v % w < w - 1 and v + w < w * h and rng.random() < 0.3:
                edges.append(rng.choice(((v, v + w + 1), (v + 1, v + w))))
        g = Graph(w * h, edges)
        if g.is_connected():
            break
    rotation = rotation_from_coords(g, coords)
    for v in rng.sample(range(g.n), rng.randint(0, 2)):
        rng.shuffle(rotation[v])
    return EmbeddedGraph(g, rotation, [-1 if rng.random() < 0.05 else 1 for _ in g.edges])


def relabel_ints(x, ids):
    """``x`` with every int i in it, dict keys too, replaced by ids[i]."""
    if isinstance(x, int):
        return ids[x]
    if isinstance(x, list):
        return [relabel_ints(y, ids) for y in x]
    if isinstance(x, dict):
        return {relabel_ints(k, ids): relabel_ints(v, ids) for k, v in x.items()}
    return x  # a witness field name


class TestWitnessOrder:
    """Each lemma lists its witnesses in repr order, which every report and
    golden digest pins; the per-lemma sort keys must give that order on
    vertex and face ids of one, two and three digits."""

    def test_repr_order_on_random_rotation_systems(self):
        rng = random.Random(27)
        reports, most_faces = [], 0
        for k in range(500):
            if k % 2:
                emb = random_grid_embedding(rng)
                g = emb.graph
            else:
                n = rng.randint(4, 14)
                p = rng.choice((0.25, 0.4, 0.6))
                g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
                emb = None  # one instance in ten, and every disconnected one
                if g.is_connected() and rng.random() >= 0.1:
                    rotation = [rng.sample(sorted(g.adj[v]), g.degree(v)) for v in range(n)]
                    emb = EmbeddedGraph(g, rotation, [rng.choice((1, -1)) for _ in g.edges])
            most_faces = max(most_faces, len(emb.faces) if emb else 0)
            r = frozenset(e for e in g.edges if rng.random() < 0.2)
            reports.append(full_audit(analyze(g, r, emb)))
        assert most_faces >= 11  # two-digit face ids occur
        # L3.12 at the wheel's 4-vertex; L3.14 and L3.15 on twelve hubs,
        # whose vertex ids run to three digits; both L3.11 witness shapes on
        # one face pair of the kite, a triangle on two edges of its 4-face
        kite = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)])
        kite_coords = {0: (-1, 0), 1: (0, 1), 2: (1, 0), 3: (0, -1)}
        for emb in (
            tri_quad_wheel_planar(),
            pentagon_hub_chain_planar(12),
            embed_planar(kite, kite_coords),
        ):
            reports.append(full_audit(analyze_embedded(emb, EMPTY)))
        seen = set()
        for rep in reports:
            for e in rep.entries:
                assert list(e.witnesses) == sorted(e.witnesses, key=repr), e.lemma
                if e.witnesses:
                    seen.add(e.lemma)
                    # the same shapes with every id moved into 0..199, where
                    # ids like 7, 17 and 170 are prefixes of one another
                    ids = rng.sample(range(200), 200)
                    moved = [relabel_ints(w, ids) for w in e.witnesses]
                    assert list(_entry(e.lemma, moved[::-1]).witnesses) == sorted(moved, key=repr)
        assert seen == set(LEMMA_STATEMENTS)


class TestWitnessesSelfVerify:
    """Every reported violation, re-evaluated from its witness alone,
    satisfies the negated lemma condition."""

    def recheck(self, emb, r, entry, w):
        g = emb.graph
        lemma = entry.lemma
        if lemma == "L3.2":
            assert g.degree(w["vertex"]) <= 2
        elif lemma == "L3.3":
            v = w["vertex"]
            assert g.degree(v) == 3
            assert len(w["relaxed_neighbors"]) >= 2
            assert all(
                u in g.adj[v] and is_r_relaxed(u, g, r) for u in w["relaxed_neighbors"]
            )
        elif lemma == "L3.4":
            vs = w["cycle"]
            assert all(g.has_edge(vs[i], vs[(i + 1) % 3]) for i in range(3))
            if "r_length" in w:
                assert w["r_length"] != 5
            else:
                assert not is_r_relaxed(w["non_relaxed_vertex"], g, r)
        elif lemma == "L3.5":
            assert g.degree(w["vertex"]) == 3
        elif lemma == "L3.10":
            ea = {tuple(sorted((w["cycle_a"][i], w["cycle_a"][(i + 1) % 3]))) for i in range(3)}
            eb = {tuple(sorted((w["cycle_b"][i], w["cycle_b"][(i + 1) % 3]))) for i in range(3)}
            assert ea & eb
        elif lemma == "L3.13":
            assert g.degree(w["vertex"]) <= 3
            fa, fb = emb.faces[w["face_a"]], emb.faces[w["face_b"]]
            assert len(fa) == 4 and len(fb) == 4
            assert w["vertex"] in {v for v, _ in fa} & {v for v, _ in fb}
            # every edge has two sides, so an edge on both walks has one on each
            assert len({e for _, e in fa} & {e for _, e in fb}) == 1
        elif lemma == "L3.16":
            v = w["vertex"]
            assert g.degree(v) == 4
            assert all(len(emb.faces[fi]) == 4 for fi in w["faces"])

    def test_known_fixtures(self):
        cases = [
            (torus_quadrangulation(4), EMPTY),
            (tri_quad_planar(), EMPTY),
            (sorted_rotation(cycle_graph(5)), EMPTY),
            (sorted_rotation(complete_graph(4)), EMPTY),
            (sorted_rotation(cycle_graph(4)), EMPTY),  # two 4-faces sharing four edges
            (two_squares_planar(), EMPTY),
        ]
        seen = set()
        for emb, r in cases:
            rep = full_audit(analyze_embedded(emb, r))
            for entry in rep.violated():
                for w in entry.witnesses:
                    self.recheck(emb, r, entry, w)
                    seen.add(entry.lemma)
        assert {"L3.2", "L3.4", "L3.13", "L3.16"} <= seen
