import pytest

from oddcolor.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    r_set,
)
from oddcolor.embedding import sorted_rotation
from oddcolor.audit import (
    FACE_LEMMAS,
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
    petersen_graph,
    theta_planar,
    torus_quadrangulation,
    tri_quad_planar,
)
from oracles import is_r_relaxed

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
        # two squares glued on an edge: 2x1 planar grid
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
        emb = embed_planar(
            g, {0: (0, 1), 1: (1, 1), 2: (2, 1), 3: (0, 0), 4: (1, 0), 5: (2, 0)}
        )
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
        ]
        seen = set()
        for emb, r in cases:
            rep = full_audit(analyze_embedded(emb, r))
            for entry in rep.violated():
                for w in entry.witnesses:
                    self.recheck(emb, r, entry, w)
                    seen.add(entry.lemma)
        assert {"L3.2", "L3.4", "L3.16"} <= seen
