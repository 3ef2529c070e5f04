"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import filecmp
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def cycle_instance(n):
    return corpus.instance(n, corpus.cycle(n))


class TestColoringChecker:
    def test_rejects_a_proper_coloring_that_is_not_odd(self):
        # every vertex of C6 sees one color twice
        colors = {str(v): 1 + v % 2 for v in range(6)}
        problems = checks.coloring_problems(cycle_instance(6), 2, colors)
        assert problems and all("odd" in p for p in problems)

    def test_accepts_an_odd_coloring(self):
        colors = {str(v): 1 + v % 3 for v in range(6)}
        assert checks.coloring_problems(cycle_instance(6), 3, colors) == []

    def test_relaxed_vertices_are_exempt(self):
        inst = corpus.instance(6, corpus.cycle(6), r=range(6))
        colors = {str(v): 1 + v % 2 for v in range(6)}
        assert checks.coloring_problems(inst, 2, colors) == []

    def test_rejects_list_and_properness_violations(self):
        assert checks.coloring_problems(cycle_instance(6), 3, {str(v): 4 for v in range(6)})
        colors = {str(v): 1 for v in range(6)}
        assert any("monochromatic" in p for p in checks.coloring_problems(cycle_instance(6), 3, colors))


class TestFaceTracing:
    def test_torus_quadrangulation_has_genus_two(self):
        edges, rot = corpus.torus(5)
        lengths = checks.face_lengths(25, edges, rot, [1] * len(edges))
        assert lengths == [4] * 25
        assert checks.euler_genus(25, len(edges), len(lengths)) == 2

    def test_planar_grid_has_genus_zero(self):
        import random

        edges, rot = corpus.grid(6, 5, random.Random(3))
        lengths = checks.face_lengths(30, edges, rot, [1] * len(edges))
        assert checks.euler_genus(30, len(edges), len(lengths)) == 0

    def test_one_negative_edge_on_k4_gives_the_projective_plane_or_sphere(self):
        edges = corpus.complete(4)
        rot = [sorted({u for e in edges if v in e for u in e} - {v}) for v in range(4)]
        signs = [1] * len(edges)
        signs[-1] = -1
        lengths = checks.face_lengths(4, edges, rot, signs)
        assert sum(lengths) == 2 * len(edges)


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [
            ["cli.run_command", 0.0, 10.0, -1, 0, None],
            ["jsonio.load_instance", 1.0, 3.0, 0, 0, None],
            ["embedding.embed_search", 4.0, 8.0, 0, 0, "none"],
            ["embedding.trace_faces", 5.0, 6.0, 2, 0, None],  # grandchild of run_command
        ]
        assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
        table = tracing.layer_times(spans)
        assert table["cli.run_command"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
        assert table["embedding.embed_search.none"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
        assert table["coloring.solve"] == {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def test_a_skipped_op_repeats_its_last_spans(self):
        spans = [
            ["cli.run_command", 0.0, 1.0, -1, 0, None],
            ["cli.run_command", 1.0, 3.0, -1, 1, None],
            ["cli.run_command", 3.0, 3.5, -1, 0, None],  # second pass skips op 1
        ]
        picks = tracing.pass_indices(spans, [(0, 2, set()), (2, 3, {1})])
        assert sorted(picks) == [0, 1, 1, 2]
        assert tracing.layer_times(spans, picks)["cli.run_command"]["total_s"] == 5.5

    def test_tracer_wraps_every_reference(self):
        from oddcolor import cli, discharge, graphs

        tracer = tracing.Tracer()
        original = graphs.hypothesis_check
        tracer.install()
        try:
            assert discharge.hypothesis_check is cli.hypothesis_check is graphs.hypothesis_check
            assert graphs.hypothesis_check is not original
            discharge.hunt(graphs.complete_graph(4), frozenset(), 2)
        finally:
            tracer.uninstall()
        assert graphs.hypothesis_check is original
        names = [s[0] for s in tracer.spans]
        assert names[:3] == ["discharge.hunt", "graphs.hypothesis_check", "graphs.enumerate_cycles"]
        assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == 1
        counts = tracing.work_counts(tracer.spans, set())
        assert counts["discharge.hunt.eliminated_at.hypothesis"] == 1
        assert counts["graphs.cycles_enumerated"] == 7  # four triangles, three 4-cycles


class TestCorpus:
    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        for workload in ("hunt", "analyze", "embed"):
            a, b, c = (tmp_path / f"{workload}{i}" for i in range(3))
            for d, seed in ((a, 4), (b, 4), (c, 5)):
                d.mkdir()
                corpus.build(workload, seed, str(d))
            names = sorted(os.listdir(a))
            assert names == sorted(os.listdir(b))
            match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
            assert match == names and not mismatch and not errors
            _, differ, _ = filecmp.cmpfiles(a, c, names, shallow=False)
            assert differ, f"{workload}: seed 5 gave the same corpus as seed 4"


class FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def run_command(self, argv):
        return self.behaviour()


def solve_op():
    inst = cycle_instance(6)
    return corpus.Op("C6:solve", ["solve", "--graph", "c6.json", "--k", "3"], inst, "solve", k=3)


class TestRunner:
    def setup_method(self):
        import signal

        self.previous = signal.signal(signal.SIGALRM, run._alarm)

    def teardown_method(self):
        import signal

        signal.signal(signal.SIGALRM, self.previous)

    def runner(self, behaviour, pins=None):
        return run.Runner(FakeCli(behaviour), 0.05, pins or {})

    def test_op_over_the_limit_is_undecided(self):
        def spin():
            end = time.perf_counter() + 5
            while time.perf_counter() < end:
                pass
            return 0

        status, seconds, _, _ = self.runner(spin).run(solve_op(), "k")
        assert status == "undecided"
        assert seconds == 0.05  # an undecided op counts its limit
        undecided = (status, seconds, "time limit")
        assert run.settle_status([undecided, undecided])[0] == "undecided"
        assert run.settle_status([undecided, ("decided", 0.01, "SAT")]) == ("decided", "SAT")
        assert run.settle_status([("decided", 0.01, "SAT"), ("decided", 0.01, "UNSAT")])[0] == "failed"
        assert run.settle_status([undecided, ("crashed", 0.3, "RecursionError")])[0] == "crashed"

    def test_wrong_output_is_failed(self):
        def bad_coloring():
            colors = {str(v): 1 + v % 2 for v in range(6)}
            print('{"command": "solve", "result": {"status": "SAT", "k": 3, "colors": %s}}'
                  % str(colors).replace("'", '"'))
            return 0

        status, _, note, _ = self.runner(bad_coloring).run(solve_op(), "k")
        assert status == "failed" and "odd" in note

    def test_verdict_against_theory_is_failed(self):
        def unsat():
            print('{"command": "solve", "result": {"status": "UNSAT", "k": 3}}')
            return 1

        op = solve_op()
        assert self.runner(unsat).run(op, "k")[0] == "decided"
        op.theory = "SAT"  # 3 divides 6, so C6 has an odd 3-coloring
        status, _, note, _ = self.runner(unsat).run(op, "k")
        assert status == "failed" and "theory" in note

    def test_pinned_verdict_mismatch_is_failed(self):
        def good():
            colors = {str(v): 1 + v % 3 for v in range(6)}
            print('{"command": "solve", "result": {"status": "SAT", "k": 3, "colors": %s}}'
                  % str(colors).replace("'", '"'))
            return 0

        assert self.runner(good).run(solve_op(), "k")[0] == "decided"
        pins = {"k": run.pin_value("UNSAT")}
        assert self.runner(good, pins).run(solve_op(), "k")[0] == "failed"

    def test_identical_output_is_checked_once(self, monkeypatch):
        seen = []

        def check(op, code, stdout):
            seen.append(stdout)
            return "UNSAT"

        monkeypatch.setattr(run.checks, "check", check)
        outputs = iter('{"duration_s": %s, "a": %d}' % args for args in (("0.1", 1), ("0.2", 1), ("0.1", 2)))
        runner = self.runner(lambda: print(next(outputs)) or 1)
        assert [runner.run(solve_op(), "k")[0] for _ in range(3)] == ["decided"] * 3
        assert [json.loads(s)["a"] for s in seen] == [1, 2]

    def test_recursion_error_is_crashed_unless_pinned(self):
        def deep():
            raise RecursionError("maximum recursion depth exceeded")

        assert self.runner(deep).run(solve_op(), "k")[0] == "crashed"
        assert self.runner(deep, {"k": "x"}).run(solve_op(), "k")[0] == "failed"

    def test_an_op_over_the_limit_is_not_run_again(self):
        calls = []

        def spin():
            calls.append(1)
            end = time.perf_counter() + 5
            while time.perf_counter() < end:
                pass
            return 0

        runner, history = self.runner(spin), []
        for _ in range(2):
            history.append(run.run_pass(runner, [solve_op()], ["k"], run.carried_ops(history)))
        assert len(calls) == 1 and history[0] == history[1] and history[0][0][0] == "undecided"

    def test_long_ops_run_every_few_passes(self):
        long, short = ("decided", run.LONG_OP_S + 1, "SAT"), ("decided", 0.01, "SAT")
        history = [[long, short]]
        assert run.carried_ops(history) == {0: long}
        history += [[long, short]] * (run.LONG_OP_EVERY - 1)
        assert run.carried_ops(history) == {}

    def test_times_are_scaled_to_the_reference_speed(self):
        ref = run.REF_S
        # the machine runs at half speed throughout: every time halves
        first = [("decided", 0.2, "SAT", 2 * ref), ("undecided", 0.05, "time limit", 2 * ref)]
        second = [("decided", 0.4, "SAT", 2 * ref), first[1]]
        passes = [(False, first, set()), (False, second, {1})]
        assert run.adjusted(passes) == [[0.1, 0.05], [0.2, None]]

    def test_tail_has_ten_samples_beyond_it(self):
        value, pct = run.tail([float(i) for i in range(50)])
        assert value == 39.0 and pct == 80.0
