import random
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from oddcolor import discharge
from oddcolor.graphs import Graph, complete_graph, cycle_graph, one_subdivision, r_set
from oddcolor.embedding import sorted_rotation
from oddcolor.audit import AuditReport, full_audit
from oddcolor.discharge import (
    RULE_TWELFTHS,
    Transfer,
    charge_report,
    generate_transfers,
    hunt,
    initial_charges,
    settle,
)

from fixtures import (
    analyze_embedded,
    cube_planar,
    face_of_length,
    grid_with_diagonals,
    k4_planar,
    k7_torus,
    mcgee_graph,
    rule_r1_fixture,
    rule_r23_adversarial_fixture,
    rule_r2_fixture,
    rule_r3_fixture,
    rule_r4_fixture,
    rule_r5_fixture,
    rule_r6_fixture,
    rule_r6_near_misses,
    rule_r7_fixture,
    rule_r8_fixture,
    theta_planar,
    torus_quadrangulation,
    wheel_planar,
)
from oracles import explained_by_reference

EMPTY = frozenset()


def transfer_multiset(transfers):
    return Counter(transfers)


def expect(rule, src, tgt, via=None, times=1):
    t = Transfer(rule, src, tgt, via)
    return {t: times}


def merge(*dicts):
    out = Counter()
    for d in dicts:
        out.update(d)
    return out


class TestInitialCharges:
    def test_degree_and_length_offsets(self):
        emb = theta_planar(3, 4, 4)
        ch = initial_charges(analyze_embedded(emb))
        assert ch[("v", 0)] == -12  # degree 3
        deg2 = next(v for v in range(emb.graph.n) if emb.graph.degree(v) == 2)
        assert ch[("v", deg2)] == -24
        f8 = face_of_length(emb, 8)
        assert ch[("f", f8)] == 48

    def test_sum_is_euler_identity(self):
        for emb in (theta_planar(), cube_planar(), torus_quadrangulation(4), k4_planar()):
            assert sum(initial_charges(analyze_embedded(emb)).values()) == -48 * (2 - emb.euler_genus)

    def test_torus_total_zero(self):
        assert sum(initial_charges(analyze_embedded(torus_quadrangulation(4))).values()) == 0


class TestRuleFixtures:
    """One minimal embedded configuration per rule; the full transfer
    multiset is pinned by hand."""

    def test_r1_theta(self):
        emb = rule_r1_fixture()  # faces 7, 7, 8; hubs 0 and 1 have degree 3
        got = transfer_multiset(generate_transfers(analyze_embedded(emb, EMPTY)))
        want = merge(
            *[
                expect("R1", ("f", fi), ("v", hub))
                for fi in range(3)
                for hub in (0, 1)
            ]
        )
        assert got == want

    def test_r2(self):
        emb = rule_r2_fixture()
        tri = face_of_length(emb, 3)
        outer = face_of_length(emb, 15)
        got = transfer_multiset(generate_transfers(analyze_embedded(emb, EMPTY)))
        assert got == merge(expect("R2", ("f", outer), ("f", tri), (0, 1)))

    def test_r2_witness_self_verifies(self):
        emb = rule_r2_fixture()
        (t,) = generate_transfers(analyze_embedded(emb, EMPTY))
        g = emb.graph
        a, b = t.witness["role_a"], t.witness["role_b"]
        assert g.degree(a) == 4 and g.degree(b) == 4
        ex, ey = t.witness["edge_at_a"]
        assert a in (ex, ey)
        x = ey if ex == a else ex
        assert g.degree(x) % 2 == 0 and g.degree(x) > 0  # non-relaxed witness
        w = t.witness["outside_at_b"]
        assert w in g.adj[b]
        tri_vertices = {v for v, _ in emb.faces[t.target[1]]}
        assert w not in tri_vertices

    def test_r3(self):
        emb = rule_r3_fixture()
        tri = face_of_length(emb, 3)
        outer = face_of_length(emb, 11)
        got = transfer_multiset(generate_transfers(analyze_embedded(emb, EMPTY)))
        assert got == merge(expect("R3", ("f", outer), ("f", tri), (0, 1)))

    def test_r2_r3_adversarial_exclusivity(self):
        # triangle of degree-4 vertices against one big face; two marked
        # edges make the triangle vertices relaxed, so each of the three
        # shared edges carries exactly one of R2/R3
        emb = rule_r23_adversarial_fixture()
        r = r_set(emb.graph, [(0, 1), (1, 2)])
        tri = face_of_length(emb, 3)
        outer = face_of_length(emb, 19)
        got = transfer_multiset(generate_transfers(analyze_embedded(emb, r)))
        want = merge(
            expect("R2", ("f", outer), ("f", tri), (0, 1)),
            expect("R3", ("f", outer), ("f", tri), (0, 2)),
            expect("R3", ("f", outer), ("f", tri), (1, 2)),
        )
        assert got == want

    def test_r2_r3_exclusive_on_every_eligible_edge(self):
        fixtures = [
            (rule_r2_fixture(), EMPTY),
            (rule_r3_fixture(), EMPTY),
            (rule_r23_adversarial_fixture(), r_set(rule_r23_adversarial_fixture().graph, [(0, 1), (1, 2)])),
            (rule_r4_fixture(), EMPTY),
            (rule_r6_fixture(), EMPTY),
        ]
        for emb, r in fixtures:
            g = emb.graph
            an = analyze_embedded(emb, r)
            transfers = generate_transfers(an)
            lengths = [len(f) for f in emb.faces]
            for ei, (a, b) in enumerate(g.edges):
                fa, fb = an.sides[ei]
                pair = sorted((lengths[fa], lengths[fb]))
                eligible = (
                    fa != fb
                    and pair[0] == 3
                    and pair[1] >= 5
                    and g.degree(a) == 4
                    and g.degree(b) == 4
                )
                hits = [
                    t for t in transfers
                    if t.rule in ("R2", "R3") and t.via == (a, b)
                ]
                if eligible:
                    assert len(hits) == 1, (ei, hits)
                else:
                    assert not hits

    def test_r4(self):
        emb = rule_r4_fixture()
        tri = face_of_length(emb, 3)
        outer = face_of_length(emb, 13)
        got = transfer_multiset(generate_transfers(analyze_embedded(emb, EMPTY)))
        want = merge(
            expect("R4", ("f", outer), ("f", tri), (0, 1)),
            expect("R7", ("v", 1), ("f", tri)),
        )
        assert got == want

    def test_r5(self):
        emb = rule_r5_fixture()
        pent = face_of_length(emb, 5)
        outer = face_of_length(emb, 15)
        got = transfer_multiset(generate_transfers(analyze_embedded(emb, EMPTY)))
        want = merge(
            expect("R5", ("f", outer), ("f", pent), (0, 1)),
            expect("R1", ("f", pent), ("v", 0)),
            expect("R1", ("f", pent), ("v", 2)),
            expect("R1", ("f", pent), ("v", 4)),
            expect("R1", ("f", outer), ("v", 0), times=2),
            expect("R1", ("f", outer), ("v", 2), times=2),
            expect("R1", ("f", outer), ("v", 4), times=2),
        )
        assert got == want

    def test_r6(self):
        emb = rule_r6_fixture()
        first = face_of_length(emb, 5, containing={1})
        second = face_of_length(emb, 5, containing={6})
        outer = face_of_length(emb, 15)
        got = transfer_multiset(generate_transfers(analyze_embedded(emb, EMPTY)))
        want = merge(
            expect("R6", ("f", outer), ("f", second), (0, 4)),
            expect("R1", ("f", first), ("v", 4)),
            expect("R1", ("f", second), ("v", 4)),
            expect("R1", ("f", second), ("v", 5)),
            expect("R1", ("f", second), ("v", 7)),
            expect("R1", ("f", outer), ("v", 4)),
            expect("R1", ("f", outer), ("v", 5)),
            expect("R1", ("f", outer), ("v", 7), times=2),
        )
        assert got == want

    @pytest.mark.parametrize("name", sorted(rule_r6_near_misses()))
    def test_r6_near_miss(self, name):
        emb = rule_r6_near_misses()[name]
        assert not any(t.rule == "R6" for t in generate_transfers(analyze_embedded(emb, EMPTY)))

    def test_r7_wheel(self):
        emb = rule_r7_fixture()
        outer = face_of_length(emb, 5)
        triangles = [i for i, f in enumerate(emb.faces) if len(f) == 3]
        got = transfer_multiset(generate_transfers(analyze_embedded(emb, EMPTY)))
        want = merge(
            *[expect("R7", ("v", 0), ("f", t)) for t in triangles],
            *[expect("R1", ("f", outer), ("v", v)) for v in range(1, 6)],
        )
        assert got == want

    def test_r8_flower(self):
        emb = rule_r8_fixture()
        outer = face_of_length(emb, 18)
        sectors = [i for i, f in enumerate(emb.faces) if len(f) == 5]
        assert len(sectors) == 6
        got = transfer_multiset(generate_transfers(analyze_embedded(emb, EMPTY)))
        pieces = [expect("R8", ("v", 0), ("f", s)) for s in sectors]
        for s in sectors:
            corners = sorted({v for v, _ in emb.faces[s] if emb.graph.degree(v) == 3})
            assert len(corners) == 2
            pieces += [expect("R1", ("f", s), ("v", v)) for v in corners]
        pieces += [expect("R1", ("f", outer), ("v", v)) for v in range(1, 7)]
        assert got == merge(*pieces)

    def test_r8_blocked_by_adjacent_triangle(self):
        # in the wheel, the hub has degree 5 only: raise it to 6 by doubling
        # one rim vertex; every hub corner still touches a triangle, so R8
        # never fires even at degree 6
        emb = wheel6 = None
        g = Graph(7, [(0, i) for i in range(1, 7)] + [(i, i + 1) for i in range(1, 6)] + [(6, 1)])
        import math as m
        coords = {0: (0.0, 0.0)}
        for i in range(6):
            coords[1 + i] = (2 * m.cos(2 * m.pi * i / 6), 2 * m.sin(2 * m.pi * i / 6))
        from fixtures import embed_planar
        emb = embed_planar(g, coords)
        got = generate_transfers(analyze_embedded(emb, EMPTY))
        assert not any(t.rule == "R8" for t in got)
        assert sum(1 for t in got if t.rule == "R7") == 6


class TestCubicGirthSeven:
    def test_only_r1_fires(self):
        # cubic girth-7 graph: any embedding has faces of length >= 7, so no
        # triangles, no pentagons, no big vertices: R1 is the only rule
        g = mcgee_graph()
        emb = sorted_rotation(g)
        transfers = generate_transfers(analyze_embedded(emb, EMPTY))
        assert {t.rule for t in transfers} == {"R1"}
        # every corner belongs to a 3-vertex on a long face: 2|E| transfers
        assert len(transfers) == 2 * len(g.edges)

    def test_cubic_vertices_settle_at_plus_half(self):
        # each 3-vertex starts at -1 and collects 1/2 per corner on a long
        # face; with all three corners paying, it settles at +1/2
        g = mcgee_graph()
        led = settle(analyze_embedded(sorted_rotation(g), EMPTY))
        for v in range(g.n):
            assert led.final[("v", v)] == -12 + 3 * 6


class TestAmountsAndDeterminism:
    def test_rule_amount_binding(self):
        for emb in (rule_r5_fixture(), rule_r6_fixture(), rule_r8_fixture()):
            for t in generate_transfers(analyze_embedded(emb, EMPTY)):
                assert t.amount_twelfths == t.to_json()["amount_twelfths"] == RULE_TWELFTHS[t.rule]

    def test_generate_deterministic(self):
        emb = rule_r6_fixture()
        assert generate_transfers(analyze_embedded(emb, EMPTY)) == generate_transfers(analyze_embedded(emb, EMPTY))

    def test_quiet_embeddings(self):
        # no 3-vertices w.r.t. long faces, no 3-faces, no big vertices
        for emb in (torus_quadrangulation(4), cube_planar(), k4_planar()):
            assert generate_transfers(analyze_embedded(emb, EMPTY)) == ()


class TestSettle:
    def fixtures(self):
        return [
            rule_r1_fixture(), rule_r2_fixture(), rule_r3_fixture(),
            rule_r4_fixture(), rule_r5_fixture(), rule_r6_fixture(),
            rule_r7_fixture(), rule_r8_fixture(), cube_planar(),
            torus_quadrangulation(4), k4_planar(),
        ]

    def test_conservation_and_euler_identity(self):
        for emb in self.fixtures():
            led = settle(analyze_embedded(emb, EMPTY))
            assert sum(led.final.values()) == sum(led.initial.values())
            assert sum(led.initial.values()) == -48 * (2 - emb.euler_genus)

    def test_final_recomputed_independently(self):
        emb = rule_r5_fixture()
        led = settle(analyze_embedded(emb, EMPTY))
        recomputed = dict(led.initial)
        for t in led.transfers:
            recomputed[t.source] -= t.amount_twelfths
            recomputed[t.target] += t.amount_twelfths
        assert recomputed == led.final

    def test_quadrangulation_all_zero(self):
        led = settle(analyze_embedded(torus_quadrangulation(4), EMPTY))
        assert set(led.final.values()) == {0}
        assert led.initial == led.final

    def test_ledger_json_shape(self):
        led = settle(analyze_embedded(rule_r4_fixture(), EMPTY))
        js = led.to_json()
        assert set(js) == {"initial", "transfers", "final", "total_twelfths"}
        assert js["transfers"][0]["amount_twelfths"] in (3, 4, 6)


class TestChargeReport:
    def test_quadrangulation_consistent(self):
        emb = torus_quadrangulation(4)
        led = settle(analyze_embedded(emb, EMPTY))
        rep = charge_report(led, full_audit(analyze_embedded(emb, EMPTY)))
        assert rep.total_twelfths == 0
        assert rep.negatives == ()
        assert not rep.audits_hold  # every vertex sits on four 4-faces
        assert not rep.contradiction

    def test_c5_negatives_explained_by_degree_lemma(self):
        g = cycle_graph(5)
        emb = sorted_rotation(g)
        led = settle(analyze_embedded(emb, EMPTY))
        rep = charge_report(led, full_audit(analyze_embedded(emb, EMPTY)))
        assert len(rep.negatives) == 5  # all degree-2 vertices
        assert all(tw == -24 for _, tw in rep.negatives)
        assert all("L3.2" in lemmas for _, lemmas in rep.explained)
        assert not rep.contradiction

    def test_explained_by_matches_per_element_oracle(self):
        """Same lemmas in the same order as scanning every witness for each
        negative element, on tori, grids with diagonals, K7 and wheels."""
        rng = random.Random(7)
        embeddings = [torus_quadrangulation(k) for k in (3, 4, 6)]
        embeddings += [grid_with_diagonals(w, w, seed) for w in (5, 8, 10) for seed in (1, 2)]
        embeddings += [k7_torus(), wheel_planar(4), wheel_planar(6), rule_r6_fixture()]
        several = 0
        for emb in embeddings:
            for share in (0, 6, 3):
                r = frozenset(rng.sample(emb.graph.edges, len(emb.graph.edges) // share if share else 0))
                audit = full_audit(analyze_embedded(emb, r))
                rep = charge_report(settle(analyze_embedded(emb, r)), audit)
                assert rep.explained == explained_by_reference(rep.negatives, audit)
                several += sum(len(lemmas) >= 2 for _, lemmas in rep.explained)
        assert several > 50  # the order of the lemmas is exercised


class TestHunt:
    def test_subdivided_k7_fails_hypothesis(self):
        rep = hunt(one_subdivision(complete_graph(7)), EMPTY)
        assert rep.eliminated_at == "hypothesis"

    def test_c7_fails_audit(self):
        rep = hunt(cycle_graph(7), EMPTY)
        assert rep.eliminated_at == "audit"
        assert rep.embedding_found and rep.euler_genus == 0

    def test_cubic_girth7_fails_embedding(self):
        rep = hunt(mcgee_graph(), EMPTY)
        assert rep.eliminated_at == "embedding"

    # a contradiction cannot arise at Euler genus <= 2, so the audit and the
    # charge report of C7 are stubbed to reach every stage
    @pytest.mark.parametrize(
        ("audits_hold", "contradiction", "stage"),
        [(False, False, "audit"), (False, True, "audit"), (True, False, "charges"), (True, True, None)],
    )
    def test_stage_read_from_audit_then_contradiction(self, monkeypatch, audits_hold, contradiction, stage):
        if audits_hold:
            monkeypatch.setattr(discharge, "full_audit", lambda a: AuditReport(()))
        report = discharge.charge_report
        monkeypatch.setattr(
            discharge, "charge_report", lambda ledger, audit: replace(report(ledger, audit), contradiction=contradiction)
        )
        rep = hunt(cycle_graph(7), EMPTY)
        assert rep.eliminated_at == stage
        assert rep.audit.counterexample_shaped is audits_hold and rep.charges.contradiction is contradiction

    def test_never_contradiction_on_small_corpus(self):
        rng = random.Random(41)
        corpus = [cycle_graph(k) for k in (5, 7, 9)] + [complete_graph(4)]
        for _ in range(10):
            while True:
                n = rng.randint(3, 8)
                edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
                g = Graph(n, edges)
                if g.is_connected():
                    break
            corpus.append(g)
        for g in corpus:
            r = frozenset(rng.sample(g.edges, rng.randint(0, len(g.edges))))
            rep = hunt(g, r)
            assert rep.eliminated_at is not None
            if rep.charges is not None:
                assert not rep.charges.contradiction
