import io
import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oddcolor import cli, embedding, jsonio
from oddcolor.cli import run_command
from oddcolor.coloring import RelaxedInstance, uniform_lists
from oddcolor.embedding import sorted_rotation
from oddcolor.discharge import hunt
from oddcolor.graphs import (
    FivePairsJSON,
    Graph,
    complete_graph,
    cycle_graph,
    hypothesis_check,
    path_graph,
    r_set,
)

from fixtures import grid_with_diagonals, k4_planar, torus_quadrangulation
from oracles import brute_force_relaxed_odd, solver_order_reference


def write_graph(tmp_path, name, g, r=frozenset()):
    path = tmp_path / name
    jsonio.dump_instance(str(path), jsonio.graph_to_json(g, r))
    return str(path)


def write_embedding(tmp_path, name, emb, r=frozenset()):
    path = tmp_path / name
    jsonio.dump_instance(str(path), jsonio.embedding_to_json(emb, r))
    return str(path)


class TestRoundTrips:
    def test_graph_with_relaxation_set(self, tmp_path):
        g = cycle_graph(6)
        r = r_set(g, [(0, 1), (2, 3)])
        path = write_graph(tmp_path, "c6.json", g, r)
        inst, digest = jsonio.load_instance(path)
        assert inst.graph == g
        assert inst.r == r
        assert len(digest) == 64

    def test_embedding_round_trip(self, tmp_path):
        emb = torus_quadrangulation(4)
        path = write_embedding(tmp_path, "torus.json", emb)
        inst, _ = jsonio.load_instance(path)
        assert inst.embedding is not None
        assert (inst.embedding.rotation, inst.embedding.signs) == (emb.rotation, emb.signs)
        assert inst.embedding.euler_genus == 2

    def test_lists_block(self, tmp_path):
        g = cycle_graph(4)
        obj = jsonio.graph_to_json(g)
        obj.update(jsonio.lists_to_json(uniform_lists(4, 3)))
        path = tmp_path / "inst.json"
        jsonio.dump_instance(str(path), obj)
        inst, _ = jsonio.load_instance(str(path))
        assert inst.lists is not None and inst.lists.k == 3

    def test_schema_version_required(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        with pytest.raises(ValueError):
            jsonio.load_instance(str(path))

    def test_coloring_round_trip(self):
        c = {0: 3, 1: 1, 2: 2}
        assert jsonio.coloring_to_json(c) == {"colors": {"0": 3, "1": 1, "2": 2}}

    def test_edges_serialized_sorted(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert jsonio.graph_to_json(g)["edges"] == [[0, 1], [2, 3]]


SOLVE_K3 = ["solve", "--k", "3"]

# a valid instance file with every optional field: K4 embedded in the plane
FUZZ_BASE = {
    **jsonio.embedding_to_json(k4_planar(), r_set(k4_planar().graph, [(0, 1)])),
    **jsonio.lists_to_json(uniform_lists(4, 3)),
}
N, M = FUZZ_BASE["n"], len(FUZZ_BASE["edges"])
DELETE = object()
NOT_INT = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(0, N - 1), max_size=2),
)
NOT_LIST = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
NOT_OBJECT = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=3)
)


def out_of_range(bound):
    return st.one_of(st.integers(max_value=-1), st.integers(min_value=bound))


VERTEX = st.integers(0, N - 1)
EDGE = st.integers(0, M - 1)
KEY = st.sampled_from([str(v) for v in range(N)])
NOT_A_PAIR = st.one_of(
    NOT_LIST,
    st.lists(VERTEX, max_size=4).filter(lambda e: len(e) != 2),
    VERTEX.map(lambda v: [v, v]),
    st.tuples(VERTEX, out_of_range(N)).map(list),
)
# (JSON path, value) pairs that each make exactly one field of FUZZ_BASE wrong
BAD_FIELD = st.one_of(
    st.tuples(st.sampled_from([("schema",), ("n",), ("edges",)]), st.just(DELETE)),
    st.tuples(st.just(("schema",)), st.one_of(NOT_INT, st.integers().filter(lambda x: x != 1), st.just(1.0))),
    st.tuples(st.just(("n",)), st.one_of(NOT_INT, st.integers(max_value=N - 1))),
    st.tuples(st.just(("edges",)), st.one_of(
        NOT_LIST,
        st.sampled_from([FUZZ_BASE["edges"][::-1], FUZZ_BASE["edges"] + FUZZ_BASE["edges"][-1:]]),
    )),
    st.tuples(EDGE.map(lambda i: ("edges", i)), NOT_A_PAIR),
    st.tuples(st.tuples(st.just("edges"), EDGE, st.integers(0, 1)), NOT_INT),
    st.tuples(st.just(("R",)), NOT_LIST),
    st.tuples(st.just(("R", 0)), st.one_of(NOT_INT, out_of_range(M))),
    st.tuples(st.just(("rotation",)), st.one_of(
        NOT_OBJECT,
        KEY.map(lambda k: {v: o for v, o in FUZZ_BASE["rotation"].items() if v != k}),
        st.just({**FUZZ_BASE["rotation"], str(N): []}),
    )),
    st.tuples(KEY.map(lambda k: ("rotation", k)), st.one_of(
        NOT_LIST, st.lists(VERTEX, max_size=4).filter(lambda o: len(o) != 3 or len(set(o)) != 3),
    )),
    st.tuples(st.tuples(st.just("rotation"), KEY, st.integers(0, 2)), NOT_INT),
    st.tuples(st.just(("signs",)), st.one_of(
        NOT_LIST.filter(lambda x: x is not None),
        st.lists(st.sampled_from([1, -1]), max_size=2 * M).filter(lambda s: len(s) != M),
    )),
    st.tuples(EDGE.map(lambda i: ("signs", i)), st.one_of(NOT_INT, st.integers().filter(lambda x: x not in (1, -1)))),
    st.tuples(st.just(("lists",)), NOT_OBJECT),
    st.tuples(KEY.map(lambda k: ("lists", k)), NOT_LIST),
    st.tuples(st.tuples(st.just("lists"), KEY, st.integers(0, 2)), NOT_INT),
)


class TestCli:
    def run(self, capsys, *argv):
        code = run_command(list(argv))
        captured = capsys.readouterr()
        return code, json.loads(captured.out), captured.err

    def test_solve_unsat_exit(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        code, rep, _ = self.run(capsys, "solve", "--graph", path, "--k", "4")
        assert code == 1
        assert rep["result"]["status"] == "UNSAT"

    def test_solve_sat(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        code, rep, _ = self.run(capsys, "solve", "--graph", path, "--k", "5")
        assert code == 0
        assert rep["result"]["status"] == "SAT"
        assert len(rep["result"]["colors"]) == 5

    def test_solve_empty_graph_reports_requested_k(self, tmp_path, capsys):
        path = write_graph(tmp_path, "null.json", Graph(0, []))
        code, rep, _ = self.run(capsys, "solve", "--graph", path, "--k", "5")
        assert code == 0
        assert rep["result"]["status"] == "SAT" and rep["result"]["k"] == 5

    def test_solve_needs_k_or_lists(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        assert run_command(["solve", "--graph", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: give --k or an instance file with lists\n"

    def test_solve_k_past_n_plus_one_runs_the_search_of_n_plus_one(self, tmp_path, capsys, monkeypatch):
        # a list of a billion colors would take minutes and gigabytes to
        # build; every k >= n + 1 gives the coloring of n + 1
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        want_code, want, _ = self.run(capsys, "solve", "--graph", path, "--k", "6")
        build = cli.uniform_lists

        def small_lists(n, k):
            assert k <= n + 1, (n, k)
            return build(n, k)

        monkeypatch.setattr(cli, "uniform_lists", small_lists)
        code, rep, _ = self.run(capsys, "solve", "--graph", path, "--k", "1000000000")
        assert code == want_code
        assert rep["result"] == {**want["result"], "k": 10**9}

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_solve_long_cycles(self, tmp_path, capsys):
        for n, exit_code, status in [(1500, 0, "SAT"), (1501, 1, "UNSAT")]:
            path = write_graph(tmp_path, f"c{n}.json", cycle_graph(n))
            code, rep, _ = self.run(capsys, "solve", "--graph", path, "--k", "3")
            assert (code, rep["result"]["status"]) == (exit_code, status)

    def test_solve_lists_with_zero_negative_and_large_colors(self, tmp_path, capsys):
        g = Graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3), (1, 5)])
        palette = [-3, -1, 0, 2, 10**6, 10**6 + 7]
        lists = [palette[v % 3 : v % 3 + 4] for v in range(g.n)]
        obj = jsonio.graph_to_json(g)
        obj["lists"] = {str(v): lists[v] for v in range(g.n)}
        path = tmp_path / "lists.json"
        jsonio.dump_instance(str(path), obj)
        inst, _ = jsonio.load_instance(str(path))
        want = brute_force_relaxed_odd(
            RelaxedInstance(g, frozenset(), inst.lists), solver_order_reference(g)
        )
        assert want is not None
        code, rep, _ = self.run(capsys, "solve", "--graph", str(path))
        assert code == 0
        assert rep["result"]["colors"] == jsonio.coloring_to_json(want)["colors"]

    def test_check_violations_exit(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c6.json", cycle_graph(6))
        code, rep, _ = self.run(capsys, "check", "--graph", path)
        assert code == 1
        assert rep["result"]["forbidden_cycles"][0]["r_length"] == 6

    def test_check_pass(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c7.json", cycle_graph(7))
        code, rep, _ = self.run(capsys, "check", "--graph", path)
        assert code == 0

    def test_r_override(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c6.json", cycle_graph(6))
        # marking one edge lifts the 6-cycle to weighted length 7
        code, rep, _ = self.run(capsys, "check", "--graph", path, "--r", "0")
        assert code == 0

    def test_discharge_quad_torus(self, tmp_path, capsys):
        path = write_embedding(tmp_path, "torus.json", torus_quadrangulation(4))
        code, rep, _ = self.run(capsys, "discharge", "--instance", path)
        assert code == 0
        assert rep["result"]["ledger"]["total_twelfths"] == 0
        assert rep["result"]["charges"]["contradiction"] is False

    def test_discharge_needs_rotation(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        code = run_command(["discharge", "--graph", path])
        assert code == 2

    def test_faces_and_genus(self, tmp_path, capsys):
        g = cycle_graph(4)
        path = write_embedding(tmp_path, "c4.json", sorted_rotation(g))
        code, rep, _ = self.run(capsys, "faces", "--instance", path)
        assert code == 0
        assert [f["length"] for f in rep["result"]["faces"]] == [4, 4]
        assert rep["result"]["euler_genus"] == 0

    def test_solve_k_with_lists_is_input_error(self, tmp_path, capsys):
        obj = {**jsonio.graph_to_json(cycle_graph(4)), **jsonio.lists_to_json(uniform_lists(4, 2))}
        path = tmp_path / "lists.json"
        jsonio.dump_instance(str(path), obj)
        assert run_command(["solve", "--graph", str(path), "--k", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--k cannot be combined with an instance file with lists" in err

    def test_embed_and_hunt(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        code, rep, _ = self.run(capsys, "embed", "--graph", path, "--max-genus", "0")
        assert code == 0
        assert rep["result"]["faces"] == 2
        code, rep, _ = self.run(capsys, "hunt", "--graph", path)
        assert code == 0
        assert rep["result"]["eliminated_at"] == "audit"

    def test_chromatic_and_subdivide(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        code, rep, _ = self.run(capsys, "chromatic", "--graph", path)
        assert rep["result"]["odd_chromatic_number"] == 5
        code, rep, _ = self.run(capsys, "subdivide", "--graph", path)
        assert rep["result"]["n"] == 10

    def test_choosable(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        code, rep, _ = self.run(
            capsys, "choosable", "--graph", path, "--k", "4",
            "--trials", "3", "--universe", "4", "--seed", "1",
        )
        assert code == 1
        assert rep["result"]["refutations"]

    def test_audit_exit_codes(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        code, rep, _ = self.run(capsys, "audit", "--graph", path)
        assert code == 1
        skipped = [e for e in rep["result"]["audit"] if e["verdict"] == "skipped"]
        assert len(skipped) == 6  # face checks without an embedding

    def test_gen_command(self, capsys):
        code, rep, _ = self.run(
            capsys, "gen", "--n", "12", "--min-girth", "7", "--count", "2", "--seed", "4"
        )
        assert code == 0
        assert rep["result"]["girths"] == [7, 7] or all(
            g >= 7 for g in rep["result"]["girths"]
        )

    def test_gen_unreachable_is_input_error(self, capsys):
        code = run_command(
            ["gen", "--n", "10", "--min-girth", "11", "--count", "1", "--seed", "0"]
        )
        assert code == 2

    def test_gen_out_of_attempts_names_the_budget(self, capsys):
        # no 5-vertex graph has girth 9, so every attempt fails
        assert run_command(["gen", "--n", "5", "--min-girth", "9"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: generated 0 of 1 instances in 60 attempts (n=5, min_girth=9)\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "2", "--min-girth", "7"], "--n must be at least 3, got 2"),
            (["--n", "12", "--min-girth", "2"], "--min-girth must be at least 3, got 2"),
            (["--n", "12", "--min-girth", "7", "--count", "0"], "--count must be at least 1, got 0"),
            (["--n", "12", "--min-girth", "7", "--count", "-1"], "--count must be at least 1, got -1"),
        ],
    )
    def test_gen_flag_out_of_range_is_input_error_naming_it(self, capsys, flags, message):
        assert run_command(["gen", *flags]) == 2
        out, err = capsys.readouterr()
        assert message in err and out == ""

    def test_every_verb_is_in_the_parser_and_has_help(self, capsys):
        assert list(cli._VERB_PARSERS) == list(cli.COMMANDS)
        for verb in cli.COMMANDS:
            with pytest.raises(SystemExit) as exc:
                run_command([verb, "--help"])
            assert exc.value.code == 0
            assert f"usage: oddcolor {verb}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["colour", "--graph", "x.json"],
            ["embed", "-h"],
            ["embed", "--he"],
            ["check", "--graph", "x.json", "extra"],
            ["check", "--graph", "x.json", "--bogus"],
            ["check", "--graph", "x.json", "--x=y"],
            ["check"],
            ["embed", "--graph", "x.json", "--max-genus", "5"],
            ["solve", "--graph", "x.json", "--k", "abc"],
            ["check", "--graph=x.json"],
            ["check", "--graph", "x.json", "--"],
            ["check", "--", "--graph", "x.json"],
            ["hunt", "--gra", "x.json", "--max", "1", "--se", "3"],
            ["gen", "--n", "12", "--min-girth", "5", "--graph", "x.json"],
        ],
    )
    def test_parsing_matches_the_top_level_parser(self, capsys, monkeypatch, argv):
        """run_command parses a leading verb with that verb's parser alone; it
        must end as PARSER.parse_args does: the same namespace, or the same
        exit code, stdout and stderr."""

        class Parsed(Exception):
            pass

        def outcome(parse):
            try:
                parse(argv)
            except SystemExit as exc:
                out = capsys.readouterr()
                return exc.code, out.out, out.err
            except Parsed as parsed:
                return vars(parsed.args[0])

        def direct(argv):
            raise Parsed(cli.PARSER.parse_args(argv))

        def stop(args):
            raise Parsed(args)

        monkeypatch.setattr(cli, "_load", stop)
        assert outcome(run_command) == outcome(direct)

    @pytest.mark.parametrize("argv", [["check"], ["faces"], ["audit"], ["solve", "--k", "3"], ["hunt", "--max-genus", "0"]])
    def test_graph_and_instance_flags_give_identical_reports(self, tmp_path, capsys, argv):
        path = write_embedding(tmp_path, "torus.json", torus_quadrangulation(4))
        outs = []
        for flag in ("--graph", "--instance"):
            code = run_command([*argv, flag, path, "--quiet"])
            outs.append((code, re.sub(r'"duration_s": [^,}]*', "", capsys.readouterr().out)))
        assert outs[0] == outs[1]

    def test_last_input_flag_wins(self, tmp_path, capsys):
        c6 = write_graph(tmp_path, "c6.json", cycle_graph(6))
        c7 = write_graph(tmp_path, "c7.json", cycle_graph(7))
        assert run_command(["check", "--graph", c6, "--instance", c7, "--quiet"]) == 0
        assert run_command(["check", "--instance", c7, "--graph", c6, "--quiet"]) == 1
        assert run_command(["check", "--graph", c7, "--graph", c6, "--quiet"]) == 1
        digests = [json.loads(line)["input_digest"] for line in capsys.readouterr().out.splitlines()]
        want = [jsonio.load_instance(p)[1] for p in (c7, c6, c6)]
        assert digests == want

    def test_missing_file_is_input_error(self):
        assert run_command(["solve", "--graph", "/nonexistent.json", "--k", "3"]) == 2

    def test_disconnected_embed_is_input_error(self, tmp_path):
        path = write_graph(tmp_path, "disc.json", Graph(4, [(0, 1), (2, 3)]))
        assert run_command(["embed", "--graph", path, "--max-genus", "0"]) == 2
        assert run_command(["hunt", "--graph", path]) == 2

    @pytest.mark.parametrize("command", ["check", "audit", "faces"])
    def test_disconnected_rotation_is_input_error(self, tmp_path, capsys, command):
        obj = {**jsonio.graph_to_json(Graph(4, [(0, 1), (2, 3)])), "rotation": {"0": [1], "1": [0], "2": [3], "3": [2]}}
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(obj))
        assert run_command([command, "--instance", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "face tracing needs a connected graph" in err

    @pytest.mark.parametrize("command", ["embed", "hunt"])
    def test_null_graph_is_input_error(self, tmp_path, capsys, command):
        path = write_graph(tmp_path, "null.json", Graph(0, []))
        assert run_command([command, "--graph", path, "--max-genus", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "an embedding needs at least one vertex" in err

    @pytest.mark.parametrize("command", ["check", "audit", "faces"])
    def test_null_rotation_is_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({"schema": 1, "n": 0, "edges": [], "rotation": {}}))
        assert run_command([command, "--instance", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "an embedding needs at least one vertex" in err

    def test_check_never_traces_faces(self, tmp_path, capsys, monkeypatch):
        calls = []
        traced = embedding.trace_faces
        monkeypatch.setattr(embedding, "trace_faces", lambda emb: calls.append(emb) or traced(emb))
        path = write_embedding(tmp_path, "torus.json", torus_quadrangulation(4))
        assert run_command(["check", "--instance", path, "--quiet"]) == 1  # it has 4-cycles
        assert calls == []
        assert run_command(["faces", "--instance", path, "--quiet"]) == 0
        assert len(calls) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "fields, path, flags",
        [
            ({"edges": [1, 2]}, "edges[0]: expected a list, got 1", SOLVE_K3),
            ({"R": [0.5]}, "R[0]: expected an integer, got 0.5", SOLVE_K3),
            ({"lists": {"0": [1, 2], "1": 5, "2": [1, 3]}}, 'lists["1"]: expected a list, got 5', SOLVE_K3),
            ({"edges": [[0, 3]]}, "edges[0][1]: 3 is out of range 0..2", SOLVE_K3),
            ({"edges": [[0, 1, 2]]}, "edges[0]: expected two distinct vertices", SOLVE_K3),
            ({"R": [5]}, "R[0]: 5 is out of range 0..1", SOLVE_K3),
            ({"n": "3"}, "n: expected an integer", SOLVE_K3),
            ({"rotation": [[1], [0], []]}, "rotation: expected an object with one key per vertex", SOLVE_K3),
            ({"rotation": {"0": [1], "1": [0], "2": None}}, 'rotation["2"]: expected a list', SOLVE_K3),
            ({"rotation": {"0": [1], "1": [0], "2": []}, "signs": [1, "-1"]}, "signs[1]: expected an integer", SOLVE_K3),
            # R and signs index the sorted list: an unsorted or repeated one would move them
            ({"edges": [[1, 2], [0, 1]], "R": [0]}, "edges[1]: [0, 1] does not follow [1, 2]", SOLVE_K3),
            ({"edges": [[0, 1], [1, 0]]}, "edges[1]: [1, 0] does not follow [0, 1]", SOLVE_K3),
            ({"edges": [[0, 1], [0, 1]]}, "edges[1]: [0, 1] does not follow [0, 1]", SOLVE_K3),
            ({"rotation": {"0": [2], "1": [0, 2], "2": [1]}}, 'rotation["0"]: expected an order of the neighbors [1]', SOLVE_K3),
            ({"rotation": {"0": [1], "1": [0], "2": [1]}}, 'rotation["1"]: expected an order of the neighbors [0, 2]', SOLVE_K3),
            ({"rotation": {"0": [1], "1": [2, 0], "2": [1]}, "signs": [1, 0]}, "signs[1]: expected 1 or -1, got 0", SOLVE_K3),
            ({"rotation": {"0": [1], "1": [2, 0], "2": [1]}, "signs": [1]}, "signs: expected 2 entries, one per edge, got 1", SOLVE_K3),
            # a valid file with a flag out of range
            ({}, "--k must be at least 1, got 0", ["solve", "--k", "0"]),
            ({}, "--k must be at least 1, got -3", ["solve", "--k", "-3"]),
            ({}, "--k must be at least 1, got 0", ["choosable", "--k", "0"]),
            ({}, "--trials must be at least 1, got -4", ["choosable", "--k", "3", "--trials", "-4"]),
            ({}, "--universe must be at least 3, got 2", ["choosable", "--k", "3", "--universe", "2"]),
            # a repeated neighbor is not an order of the neighbors either
            ({"rotation": {"0": [1], "1": [0, 2, 2], "2": [1]}}, 'rotation["1"]: expected an order of the neighbors [0, 2]', SOLVE_K3),
            # a repeated color would shrink its list; sizes must match lists["0"]
            ({"lists": {"0": [1, 1], "1": [1, 2], "2": [1, 3]}}, 'lists["0"]: expected distinct colors, got [1, 1]', ["solve"]),
            ({"lists": {"0": [1, 2], "1": [1, 2, 3], "2": [1, 3]}}, 'lists["1"]: expected 2 colors, as in lists["0"], got 3', ["solve"]),
            ({"n": -1, "edges": []}, "n: expected a nonnegative integer, got -1", SOLVE_K3),
            # R indexes the edge list like a set: a repeat would load as one R edge
            ({"R": [0, 0]}, "R[1]: 0 is listed twice", SOLVE_K3),
            ({"R": [1, 0, 1]}, "R[2]: 1 is listed twice", SOLVE_K3),
            ({}, "--r[1]: 0 is listed twice; list each relaxation edge once", ["check", "--r", "0,0"]),
            # only the last element is bad: each field is checked to its end
            ({"edges": [[0, 1], [2, 2]]}, "edges[1]: expected two distinct vertices, got [2, 2]", SOLVE_K3),
            ({"edges": [[0, 1], [1, 3]]}, "edges[1][1]: 3 is out of range 0..2", SOLVE_K3),
            ({"edges": [[0, 1], [1, 2], [1, 2]]}, "edges[2]: [1, 2] does not follow [1, 2]", SOLVE_K3),
            ({"R": [0, 5]}, "R[1]: 5 is out of range 0..1", SOLVE_K3),
            ({"rotation": {"0": [1], "1": [2, 0], "2": [1]}, "signs": [1, 2]}, "signs[1]: expected 1 or -1, got 2", SOLVE_K3),
            ({"rotation": {"0": [1], "1": [2, 0], "2": [1]}, "signs": [1, 1.5]}, "signs[1]: expected an integer, got 1.5", SOLVE_K3),
            ({"rotation": {"0": [1], "1": [0, 2], "2": [0]}}, 'rotation["2"]: expected an order of the neighbors [1], got [0]', SOLVE_K3),
            ({"rotation": {"0": [1], "1": [0, 2], "2": [True]}}, 'rotation["2"][0]: expected an integer, got True', SOLVE_K3),
            ({"lists": {"0": [1, 2], "1": [1, 2], "2": [1, False]}}, 'lists["2"][1]: expected an integer, got False', ["solve"]),
            # signs belong to an embedding, and an empty range names no bounds
            ({"edges": [[0, 1], [0, 2], [1, 2]], "signs": [1, 1, 5]}, "signs: given without a rotation", ["check"]),
            ({"n": 0, "edges": [[0, 1]]}, "edges[0][0]: 0 is out of range: the range is empty", ["check"]),
            ({"edges": [], "R": [0]}, "R[0]: 0 is out of range: the range is empty", ["check"]),
            # --r is checked like the file's R, naming the position of a bad token
            ({}, "--r[2]: 2 is out of range 0..1", ["check", "--r", "1, 0,2"]),
            ({}, "--r[1]: -1 is out of range 0..1", ["solve", "--k", "3", "--r", "0,-1"]),
            ({}, "--r[1]: expected an integer, got '1.0'", ["check", "--r", "0,1.0,"]),
            ({}, "--r[0]: expected an integer, got 'x'", ["hunt", "--r", "x"]),
        ],
    )
    def test_malformed_field_is_input_error_naming_it(self, tmp_path, capsys, fields, path, flags):
        obj = {"schema": 1, "n": 3, "edges": [[0, 1], [1, 2]], "R": []}
        obj.update(fields)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert run_command([*flags, "--graph", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert path in err and out == ""

    @given(
        bad=BAD_FIELD,
        flags=st.sampled_from([["check"], SOLVE_K3, ["audit"], ["discharge"], ["faces"], ["hunt"]]),
    )
    @settings(
        max_examples=150, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_one_malformed_field_exits_2_never_a_verdict_or_crash(self, tmp_path, capsys, bad, flags):
        (*head, last), value = bad
        obj = json.loads(json.dumps(FUZZ_BASE))
        jsonio.instance_from_json(obj)  # the base file is valid
        parent = obj
        for key in head:
            parent = parent[key]
        if value is DELETE:
            del parent[last]
        else:
            parent[last] = value
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(obj))
        code = run_command([*flags, "--graph", str(path), "--quiet"])
        out, err = capsys.readouterr()  # read first, so no example sees another's output
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_crash_exits_internal_not_refuted(self, tmp_path, capsys, monkeypatch):
        def crash(args, inst):
            raise RuntimeError("boom")

        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        monkeypatch.setitem(cli.COMMANDS, "check", (crash, {}))
        monkeypatch.setattr(sys, "argv", ["oddcolor", "check", "--graph", path])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 3
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err

    @pytest.mark.usefixtures("default_recursion_limit")
    @pytest.mark.parametrize("wrap", ["{}", '{{"schema":1,"n":1,"edges":[{}]}}'], ids=["array", "edge"])
    def test_deeply_nested_file_is_input_error(self, tmp_path, capsys, monkeypatch, wrap):
        # written as text: json.dumps recurses per level as json.loads does
        path = tmp_path / "deep.json"
        path.write_text(wrap.format("[" * 100_000 + "]" * 100_000))
        monkeypatch.setattr(sys, "argv", ["oddcolor", "check", "--graph", str(path)])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"cannot load {path}: the file nests too deeply" in err
        assert "Traceback" not in err and "internal error" not in err

    @pytest.mark.parametrize("verb, code", [("gen", 0), ("check", 1)])
    def test_closed_stdout_keeps_the_verdict(self, tmp_path, capsys, monkeypatch, verb, code):
        # a reader that stops early (`oddcolor gen ... | head -c 100`)
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        c4 = write_graph(tmp_path, "c4.json", cycle_graph(4))  # it has a 4-cycle
        argv = ["gen", "--n", "12", "--min-girth", "5"] if verb == "gen" else ["check", "--graph", c4]
        monkeypatch.setattr(sys, "argv", ["oddcolor", *argv])
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(SystemExit) as exc:
            cli.main()
        # stdout's descriptor now writes to the null device, so no flush at
        # interpreter exit meets the closed pipe again
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        os.close(fd)
        assert exc.value.code == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and "internal error" not in err

    def test_pipe_closed_before_the_report_exits_quietly(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        with subprocess.Popen(
            [sys.executable, "-m", "oddcolor.cli", "gen", "--n", "12", "--min-girth", "5"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            proc.stdout.close()  # no reader is left when the report is written
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == "oddcolor gen: ok\n"

    def test_choosable_universe_is_not_built(self, tmp_path, capsys):
        path = write_graph(tmp_path, "p3.json", path_graph(3))
        started = time.perf_counter()
        code, rep, _ = self.run(
            capsys, "choosable", "--graph", path, "--k", "2", "--universe", "1000000000000",
        )
        assert time.perf_counter() - started < 1
        assert code == 0 and rep["result"]["universe"] == 10**12

    def test_reports_reproducible(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        args = ("hunt", "--graph", path, "--seed", "9")
        _, rep1, _ = self.run(capsys, *args)
        _, rep2, _ = self.run(capsys, *args)
        rep1.pop("duration_s")
        rep2.pop("duration_s")
        assert rep1 == rep2

    def test_seed_echoed(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        _, rep, _ = self.run(capsys, "chromatic", "--graph", path, "--seed", "77")
        assert rep["seed"] == 77


class TestRunCommandReuse:
    """Many ``run_command`` calls in one process: later calls must not see
    the flags, defaults or seed of earlier ones."""

    def report(self, capsys, *argv):
        code = run_command([*argv, "--quiet"])
        rep = json.loads(capsys.readouterr().out)
        rep.pop("duration_s")
        return code, rep

    def fresh_process(self, *argv):
        """The same call in a new ``oddcolor`` process, with its own parser."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "oddcolor.cli", *argv, "--quiet"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        rep = json.loads(done.stdout)
        rep.pop("duration_s")
        return done.returncode, rep

    def calls(self, tmp_path):
        c5 = write_graph(tmp_path, "c5.json", cycle_graph(5))
        k5 = write_graph(tmp_path, "k5.json", Graph(5, list(combinations(range(5), 2))))
        torus = write_embedding(tmp_path, "torus.json", torus_quadrangulation(4))
        return [
            ("embed", "--graph", k5, "--max-genus", "1", "--seed", "5"),
            ("embed", "--graph", k5),  # default --max-genus, no --seed
            ("choosable", "--graph", c5, "--k", "4", "--trials", "3", "--seed", "2"),
            ("choosable", "--graph", c5, "--k", "5", "--trials", "2"),  # default --universe
            ("choosable", "--graph", c5, "--k", "4", "--trials", "3", "--universe", "12"),
            ("choosable", "--graph", c5, "--k", "4", "--trials", "3"),  # default --universe
            ("check", "--graph", c5, "--r", "0"),
            ("check", "--graph", c5),
            ("solve", "--graph", c5, "--k", "5", "--r", "0"),
            ("solve", "--graph", c5, "--k", "5"),  # no R
            ("chromatic", "--graph", c5, "--seed", "4"),
            ("chromatic", "--graph", c5),  # default --seed
            ("discharge", "--instance", torus),
            ("gen", "--n", "12", "--min-girth", "5", "--count", "2", "--seed", "3"),
            ("gen", "--n", "12", "--min-girth", "5"),
        ]

    def test_same_reports_as_one_process_per_call(self, tmp_path, capsys):
        calls = self.calls(tmp_path)
        # each call twice, in and out of order, in this one process
        got = [self.report(capsys, *argv) for argv in calls + calls[::-1]]
        want = [self.fresh_process(*argv) for argv in calls]
        assert got == want + want[::-1]
        assert [rep["seed"] for _, rep in want] == [5, 0, 2, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 3, 0]

    def test_seed_option_read_at_each_call(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        assert self.report(capsys, "chromatic", "--graph", path)[1]["seed"] == 0
        assert self.report(capsys, "chromatic", "--graph", path, "--seed", "4")[1]["seed"] == 4
        assert self.report(capsys, "chromatic", "--graph", path)[1]["seed"] == 0

    def test_argparse_error_then_valid_call(self, tmp_path, capsys):
        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        with pytest.raises(SystemExit) as exc:
            run_command(["embed", "--graph", path, "--max-genus", "5"])
        assert exc.value.code == 2
        assert "invalid choice: 5" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            run_command(["nosuchcommand"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_command(["check"])
        assert exc.value.code == 2
        assert "required: --graph/--instance" in capsys.readouterr().err
        code, rep = self.report(capsys, "embed", "--graph", path)
        assert code == 0
        assert (rep["command"], rep["result"]["euler_genus"]) == ("embed", 0)


def dict_per_pair(hyp) -> dict:
    """A hypothesis report as the plain JSON data it stands for: one dict per
    five pair."""
    return {
        "passes": hyp.passes,
        "forbidden_cycles": [{"cycle": list(c), "r_length": L} for c, L in hyp.forbidden_cycles],
        "five_pairs": [
            {"cycle_a": list(a), "cycle_b": list(b), "shared_edge": list(e)} for a, b, e in hyp.five_pairs
        ],
    }


def seeded_grid_with_r():
    g = grid_with_diagonals(6, 6, seed=3).graph
    return g, frozenset(random.Random(3).sample(g.edges, len(g.edges) // 4))


class TestReportEncoding:
    """Reports with five pairs are written from pre-encoded text, byte for
    byte as ``json.dumps`` writes the plain report."""

    INSTANCES = {
        "K6": lambda: (complete_graph(6), frozenset()),
        "K7": lambda: (complete_graph(7), frozenset()),
        "grid-6x6-R": seeded_grid_with_r,
        "C7": lambda: (cycle_graph(7), frozenset()),
    }

    @pytest.mark.parametrize("name", INSTANCES)
    @pytest.mark.parametrize("verb", ["check", "hunt"])
    def test_stdout_equals_the_plain_encoding(self, tmp_path, capsys, verb, name):
        g, r = self.INSTANCES[name]()
        hyp = hypothesis_check(g, r)
        if name == "grid-6x6-R":
            assert hyp.forbidden_cycles and hyp.five_pairs
        if name == "C7":
            assert not hyp.five_pairs
        if verb == "check":
            result, refuted = dict_per_pair(hyp), not hyp.passes
        else:
            rep = hunt(g, r, 2)
            result = {**rep.to_json(), "hypothesis": dict_per_pair(rep.hypothesis)}
            refuted = rep.eliminated_at is None
        path = write_graph(tmp_path, f"{name}.json", g, r)
        code = run_command([verb, "--graph", path, "--quiet"])
        out = capsys.readouterr().out
        report = {
            "command": verb,
            "input_digest": jsonio.load_instance(path)[1],
            "seed": 0,
            "duration_s": json.loads(out)["duration_s"],
            "result": result,
        }
        assert out == json.dumps(report, sort_keys=True) + "\n"
        assert code == refuted

    def test_other_values_json_cannot_encode_raise_type_error(self):
        with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
            jsonio.dumps_report({"five_pairs": FivePairsJSON(()), "x": {1, 2}})

    @pytest.mark.parametrize("text", ["\0", '"\0', "a\0"], ids=["nul", "quote-nul", "text-nul"])
    def test_a_string_holding_nul_raises_assertion_error(self, text):
        report = {"a": text, "b": FivePairsJSON((((0, 1, 2, 3, 4), (0, 1, 5, 6, 7), (0, 1)),))}
        if text == "a\0":  # not written as the placeholder, so nothing is misplaced
            assert json.loads(jsonio.dumps_report(report))["a"] == text
            return
        with pytest.raises(AssertionError, match="placeholders"):
            jsonio.dumps_report(report)

    def test_a_misplaced_text_exits_internal_not_refuted(self, tmp_path, capsys, monkeypatch):
        def nul(args, inst):
            return {"note": "\0", "five_pairs": FivePairsJSON(())}, cli.EXIT_REFUTED

        path = write_graph(tmp_path, "c5.json", cycle_graph(5))
        monkeypatch.setitem(cli.COMMANDS, "check", (nul, {}))
        monkeypatch.setattr(sys, "argv", ["oddcolor", "check", "--graph", path])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (3, "")
        assert "internal error: AssertionError" in err
