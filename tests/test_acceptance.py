"""Acceptance suite: every criterion in one place, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Budgets are asserted where the criterion states
one; everything else is exact.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

from oddcolor.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    girth,
    hypothesis_check,
    one_subdivision,
    path_graph,
    r_set,
)
from oddcolor.embedding import EmbeddedGraph, embed_search, sorted_rotation
from oddcolor.coloring import (
    ListAssignment,
    RelaxedInstance,
    extend_low_degree,
    is_odd_coloring,
    is_relaxed_odd,
    odd_chromatic_number,
    reduce_low_degree,
    sampled_choosability,
    solve,
    uniform_lists,
)
from oddcolor.discharge import (
    RULE_TWELFTHS,
    Transfer,
    generate_transfers,
    hunt,
    settle,
)
from oddcolor.generate import generate_girth_instances

from fixtures import (
    analyze_embedded,
    cube_planar,
    face_of_length,
    find_small_embedding,
    k4_planar,
    mcgee_graph,
    petersen_graph,
    rule_r1_fixture,
    rule_r23_adversarial_fixture,
    rule_r2_fixture,
    rule_r3_fixture,
    rule_r4_fixture,
    rule_r5_fixture,
    rule_r6_fixture,
    rule_r7_fixture,
    rule_r8_fixture,
    theta_planar,
    torus_quadrangulation,
    wheel_planar,
)
from oracles import (
    brute_force_relaxed_odd,
    chromatic_number,
    graphs_up_to_iso,
    solver_order_reference,
)

EMPTY = frozenset()


@contextmanager
def criterion(num, label, budget_s=None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{label}]: FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"criterion {num:2d} [{label}]: PASS ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.1f}s"


def test_01_c5_calibration():
    with criterion(1, "C5 needs exactly five colors", budget_s=1.0):
        c5 = cycle_graph(5)
        assert odd_chromatic_number(c5) == 5
        unsat = solve(RelaxedInstance(c5, EMPTY, uniform_lists(5, 4)))
        assert unsat is None


def test_02_subdivision_lower_bound():
    with criterion(2, "subdivisions inherit the host chromatic number", budget_s=60.0):
        for n in range(1, 7):
            for h in graphs_up_to_iso(n):
                chi = chromatic_number(h)  # exhaustive oracle
                s = one_subdivision(h)
                if chi > 1:
                    # no odd (chi-1)-coloring exists, so the odd chromatic
                    # number of the subdivision is at least chi
                    below = solve(
                        RelaxedInstance(s, EMPTY, uniform_lists(s.n, chi - 1))
                    )
                    assert below is None, (n, h.edges, chi)
        # subdivided K4: exactly 4, against brute force over all 4^10 colorings
        s4 = one_subdivision(complete_graph(4))
        assert brute_force_relaxed_odd(
            RelaxedInstance(s4, EMPTY, uniform_lists(10, 3))
        ) is None
        assert brute_force_relaxed_odd(
            RelaxedInstance(s4, EMPTY, uniform_lists(10, 4))
        ) is not None
        assert odd_chromatic_number(s4) == 4


def test_03_hypothesis_gate():
    with criterion(3, "subdivided K7 rejected with a 6-cycle witness", budget_s=10.0):
        s = one_subdivision(complete_graph(7))
        assert girth(s) == 6
        rep = hypothesis_check(s, EMPTY)
        assert not rep.passes
        six = [c for c, L in rep.forbidden_cycles if L == 6]
        assert six and all(len(c) == 6 for c in six)


def conservation_fixtures():
    """At least 20 embeddings spanning Euler genus 0, 1, 2, orientable and not."""
    out = [
        sorted_rotation(cycle_graph(4)),
        k4_planar(),
        cube_planar(),
        sorted_rotation(path_graph(3)),
        sorted_rotation(Graph(2, [(0, 1)])),
        theta_planar(),
        wheel_planar(5),
        rule_r2_fixture(),
        rule_r3_fixture(),
        rule_r4_fixture(),
        rule_r5_fixture(),
        rule_r6_fixture(),
        rule_r8_fixture(),
        torus_quadrangulation(4),
    ]
    c3, c5 = cycle_graph(3), cycle_graph(5)
    out.append(EmbeddedGraph(c3, sorted_rotation(c3).rotation, [-1, 1, 1]))
    out.append(EmbeddedGraph(c5, sorted_rotation(c5).rotation, [-1, 1, 1, 1, 1]))
    out.append(embed_search(complete_graph(5), 1))   # projective K5
    out.append(embed_search(complete_graph(5), 2))   # toroidal K5
    out.append(embed_search(Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)]), 1))
    k4 = complete_graph(4)
    out.append(find_small_embedding(k4, 2, want_orientable=False))  # Klein bottle
    out.append(find_small_embedding(k4, 2, want_orientable=True))   # torus
    return out


def test_04_conservation_and_euler_identity():
    with criterion(4, "exact conservation and Euler identity on 20+ fixtures"):
        fixtures = conservation_fixtures()
        assert len(fixtures) >= 20
        genera = {(e.euler_genus, e.is_orientable()) for e in fixtures}
        assert {g for g, _ in genera} >= {0, 1, 2}
        assert any(not o for _, o in genera) and any(o for _, o in genera)
        rng = random.Random(4)
        for emb in fixtures:
            r = (
                frozenset(rng.sample(emb.graph.edges, rng.randint(0, len(emb.graph.edges))))
                if emb.graph.edges
                else EMPTY
            )
            led = settle(analyze_embedded(emb, r))
            want = -48 * (2 - emb.euler_genus)
            assert sum(led.initial.values()) == want
            assert sum(led.final.values()) == want


def test_05_face_tracing_and_k7():
    with criterion(5, "cube faces and a toroidal K7 triangulation", budget_s=600.0):
        cube = cube_planar()
        assert len(cube.faces) == 6
        assert cube.euler_genus == 0
        k7 = embed_search(complete_graph(7), 2)
        assert k7 is not None
        assert len(k7.faces) == 14
        assert all(len(f) == 3 for f in k7.faces)
        assert k7.euler_genus == 2


def _expect(rule, src, tgt, via=None, times=1):
    return {Transfer(rule, src, tgt, via): times}


def _merge(*dicts):
    out = Counter()
    for d in dicts:
        out.update(d)
    return out


def test_06_rule_fixtures():
    with criterion(6, "each rule fires exactly as intended on its fixture"):
        # R1: theta graph, each of the three long faces pays both hubs 1/2
        emb = rule_r1_fixture()
        want = _merge(*[_expect("R1", ("f", f), ("v", h)) for f in range(3) for h in (0, 1)])
        assert Counter(generate_transfers(analyze_embedded(emb, EMPTY))) == want

        # R2: 1/2 across the shared edge when both side conditions hold
        emb = rule_r2_fixture()
        tri, outer = face_of_length(emb, 3), face_of_length(emb, 15)
        assert Counter(generate_transfers(analyze_embedded(emb, EMPTY))) == _merge(
            _expect("R2", ("f", outer), ("f", tri), (0, 1))
        )

        # R3: same shape, conditions broken, the fallback 1/2 fires instead
        emb = rule_r3_fixture()
        tri, outer = face_of_length(emb, 3), face_of_length(emb, 11)
        assert Counter(generate_transfers(analyze_embedded(emb, EMPTY))) == _merge(
            _expect("R3", ("f", outer), ("f", tri), (0, 1))
        )

        # R2/R3 exclusivity on the adversarial fixture: three shared edges,
        # each carries exactly one of the two rules
        emb = rule_r23_adversarial_fixture()
        r = r_set(emb.graph, [(0, 1), (1, 2)])
        tri, outer = face_of_length(emb, 3), face_of_length(emb, 19)
        got = Counter(generate_transfers(analyze_embedded(emb, r)))
        assert got == _merge(
            _expect("R2", ("f", outer), ("f", tri), (0, 1)),
            _expect("R3", ("f", outer), ("f", tri), (0, 2)),
            _expect("R3", ("f", outer), ("f", tri), (1, 2)),
        )
        per_via = Counter(t.via for t in got if t.rule in ("R2", "R3"))
        assert all(v == 1 for v in per_via.values())

        # R4: 1/4 across a 4/(>=5) degree edge, plus the unavoidable R7
        emb = rule_r4_fixture()
        tri, outer = face_of_length(emb, 3), face_of_length(emb, 13)
        assert Counter(generate_transfers(analyze_embedded(emb, EMPTY))) == _merge(
            _expect("R4", ("f", outer), ("f", tri), (0, 1)),
            _expect("R7", ("v", 1), ("f", tri)),
        )

        # R5: 1/4 from the big face to the pentagon over the 3/4 edge
        emb = rule_r5_fixture()
        pent, outer = face_of_length(emb, 5), face_of_length(emb, 15)
        assert Counter(generate_transfers(analyze_embedded(emb, EMPTY))) == _merge(
            _expect("R5", ("f", outer), ("f", pent), (0, 1)),
            *[_expect("R1", ("f", pent), ("v", v)) for v in (0, 2, 4)],
            *[_expect("R1", ("f", outer), ("v", v), times=2) for v in (0, 2, 4)],
        )

        # R6: 1/4 reaches the second pentagon via the shared edge
        emb = rule_r6_fixture()
        first = face_of_length(emb, 5, containing={1})
        second = face_of_length(emb, 5, containing={6})
        outer = face_of_length(emb, 15)
        assert Counter(generate_transfers(analyze_embedded(emb, EMPTY))) == _merge(
            _expect("R6", ("f", outer), ("f", second), (0, 4)),
            _expect("R1", ("f", first), ("v", 4)),
            *[_expect("R1", ("f", second), ("v", v)) for v in (4, 5, 7)],
            _expect("R1", ("f", outer), ("v", 4)),
            _expect("R1", ("f", outer), ("v", 5)),
            _expect("R1", ("f", outer), ("v", 7), times=2),
        )

        # R7: the degree-5 hub pays each of its five triangles 1/2
        emb = rule_r7_fixture()
        outer = face_of_length(emb, 5)
        tris = [i for i, f in enumerate(emb.faces) if len(f) == 3]
        assert Counter(generate_transfers(analyze_embedded(emb, EMPTY))) == _merge(
            *[_expect("R7", ("v", 0), ("f", t)) for t in tris],
            *[_expect("R1", ("f", outer), ("v", v)) for v in range(1, 6)],
        )

        # R8: the degree-6 hub pays each pentagon sector 1/3
        emb = rule_r8_fixture()
        outer = face_of_length(emb, 18)
        sectors = [i for i, f in enumerate(emb.faces) if len(f) == 5]
        pieces = [_expect("R8", ("v", 0), ("f", s)) for s in sectors]
        for s in sectors:
            for v in sorted({u for u, _ in emb.faces[s] if emb.graph.degree(u) == 3}):
                pieces.append(_expect("R1", ("f", s), ("v", v)))
        pieces += [_expect("R1", ("f", outer), ("v", v)) for v in range(1, 7)]
        assert Counter(generate_transfers(analyze_embedded(emb, EMPTY))) == _merge(*pieces)

        # amounts are bound to rules
        amounts = {"R1": 6, "R2": 6, "R3": 6, "R7": 6, "R8": 4, "R4": 3, "R5": 3, "R6": 3}
        assert RULE_TWELFTHS == amounts


def test_07_theorem_smoke():
    with criterion(7, "girth-7 instances are odd 5-colorable and 5-choosable", budget_s=600.0):
        graphs = generate_girth_instances(14, 7, count=50, seed=2024)
        assert len(graphs) == 50
        for i, g in enumerate(graphs):
            assert hypothesis_check(g, EMPTY).passes
            col = solve(RelaxedInstance(g, EMPTY, uniform_lists(g.n, 5)))
            assert col is not None
            assert is_odd_coloring(g, col)
            rep = sampled_choosability(g, 5, EMPTY, trials=100, universe=10, seed=7000 + i)
            assert not rep.refuted


def _reduction_cases(count=200, seed=88):
    """Instances with a low-degree vertex that pass the hypothesis check."""
    rng = random.Random(seed)
    bases = generate_girth_instances(14, 7, count=40, seed=seed)
    cases = []
    for g in bases:
        deg2 = [v for v in range(g.n) if g.degree(v) == 2]
        v = deg2[rng.randrange(len(deg2))]
        cases.append((g, EMPTY, v))  # bridge
        e = sorted(e for e in g.edges if v in e)[0]
        cases.append((g, frozenset({e}), v))  # relaxed edge at v
        r = frozenset(rng.sample(g.edges, rng.randint(0, min(4, len(g.edges)))))
        cases.append((g, r, v))
        with_pendant = Graph(g.n + 1, list(g.edges) + [(0, g.n)])
        cases.append((with_pendant, EMPTY, g.n))  # pendant
        with_isolated = Graph(g.n + 1, g.edges)
        cases.append((with_isolated, EMPTY, g.n))  # isolated
    return cases[:count]


def test_08_reduction_extension():
    with criterion(8, "reduce/extend round-trips on 200 instances", budget_s=300.0):
        cases = _reduction_cases(200)
        assert len(cases) == 200
        rng = random.Random(4242)
        for g, r, v in cases:
            assert hypothesis_check(g, r).passes
            rec = reduce_low_degree(g, r, v)
            reduced, rr = rec.reduced_graph, rec.reduced_r
            # the reduction preserves the cycle hypotheses (checked, not trusted)
            assert hypothesis_check(reduced, rr).passes
            if rng.random() < 0.5:
                lists = uniform_lists(g.n, 5)
            else:
                lists = ListAssignment(
                    tuple(frozenset(rng.sample(range(1, 11), 5)) for _ in range(g.n))
                )
            reduced_lists = ListAssignment(
                tuple(
                    lists[old]
                    for old, _ in sorted(rec.relabel.items(), key=lambda kv: kv[1])
                )
            )
            sub = solve(RelaxedInstance(reduced, rr, reduced_lists))
            assert sub is not None  # guaranteed by the main theorem
            full = extend_low_degree(rec, sub, lists)
            assert is_relaxed_odd(RelaxedInstance(g, r, lists), full)


def test_09_solver_oracle_equivalence():
    with criterion(9, "solver matches exhaustive enumeration, n <= 7", budget_s=600.0):
        rng = random.Random(99)
        total = 0
        for n in range(1, 8):
            for g in graphs_up_to_iso(n):
                if not g.is_connected():
                    continue
                r_choices = [EMPTY]
                if g.edges:
                    r_choices.append(frozenset({rng.choice(g.edges)}))
                order = solver_order_reference(g)
                for k in (1, 2, 3, 4):
                    for r in r_choices:
                        inst = RelaxedInstance(g, r, uniform_lists(g.n, k))
                        mine = solve(inst)
                        # the first valid coloring in the solver's order, or None
                        oracle = brute_force_relaxed_odd(inst, order)
                        assert mine == oracle, (g.edges, k, sorted(r))
                        if mine is not None:
                            assert is_relaxed_odd(inst, mine)
                        total += 1
        assert total >= 996 * 4  # every connected class, every k, at least R = {}


def test_10_pipeline_consistency():
    with criterion(10, "no instance survives the whole pipeline"):
        corpus = [
            (cycle_graph(5), EMPTY),
            (cycle_graph(7), EMPTY),
            (cycle_graph(9), EMPTY),
            (complete_graph(4), EMPTY),
            (one_subdivision(complete_graph(7)), EMPTY),
            (torus_quadrangulation(4).graph, EMPTY),
            (theta_planar().graph, EMPTY),
            (mcgee_graph(), EMPTY),
            (petersen_graph(), EMPTY),
        ]
        rng = random.Random(10)
        for g in generate_girth_instances(13, 7, count=15, seed=555):
            r = frozenset(rng.sample(g.edges, rng.randint(0, 3)))
            corpus.append((g, r))
        hypothesis_passing = 0
        for g, r in corpus:
            rep = hunt(g, r, max_genus=2)
            assert rep.eliminated_at in ("hypothesis", "embedding", "audit", "charges")
            if rep.hypothesis.passes:
                hypothesis_passing += 1
                assert rep.eliminated_at in ("embedding", "audit", "charges")
            if rep.charges is not None:
                assert not rep.charges.contradiction
        assert hypothesis_passing >= 15  # the generated instances all qualify


def test_11_seven_colors_on_the_torus():
    # the abstract's sharpness claim: a girth-6 graph on the torus that
    # needs seven colors; the 1-subdivided K7 is one
    with criterion(11, "the subdivided K7: girth 6, toroidal, odd chromatic number 7", budget_s=5.0):
        s = one_subdivision(complete_graph(7))
        assert girth(s) == 6
        emb = embed_search(s, 2)
        assert emb is not None and emb.euler_genus == 2 and emb.is_orientable()
        assert embed_search(s, 1) is None
        assert solve(RelaxedInstance(s, EMPTY, uniform_lists(s.n, 6))) is None
        col = solve(RelaxedInstance(s, EMPTY, uniform_lists(s.n, 7)))
        assert col is not None and is_odd_coloring(s, col)
