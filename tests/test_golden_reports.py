"""Pinned CLI reports: ``check``, ``audit``, ``discharge`` and ``hunt`` on a
few fixed instances must keep every byte of their JSON (``duration_s``
aside), so that an optimisation cannot silently change a report.

The digests were recorded with the quadratic analysis code (pairwise 5-cycle
and triangle scans, per-negative witness scans, recursive cycle
enumeration).  A digest that changes means a report changed: find out why
before recording a new one.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from oddcolor import jsonio
from oddcolor.cli import run_command
from oddcolor.graphs import Graph, r_set_from_indices

from fixtures import (
    grid_with_diagonals,
    k7_torus,
    mcgee_graph,
    petersen_graph,
    theta_planar,
    torus_quadrangulation,
)


def seeded_r(g: Graph, seed: int, share: int) -> frozenset:
    """About one edge in ``share``, drawn with a fixed seed."""
    rng = random.Random(seed)
    return r_set_from_indices(g, rng.sample(range(len(g.edges)), len(g.edges) // share))


def instances():
    """name -> (file contents, commands run on it)."""
    embedded = ("check", "audit", "discharge", "hunt")
    t12 = torus_quadrangulation(12)
    grid = grid_with_diagonals(10, 10, seed=7)
    k7 = k7_torus()
    pete = petersen_graph()
    graph_only = ("check", "audit", "hunt")
    return {
        "T12": (jsonio.embedding_to_json(t12, seeded_r(t12.graph, 1, 20)), embedded),
        "grid-10x10": (jsonio.embedding_to_json(grid, seeded_r(grid.graph, 2, 20)), embedded),
        "K7": (jsonio.embedding_to_json(k7), embedded),
        "K7-R": (jsonio.embedding_to_json(k7, seeded_r(k7.graph, 3, 5)), embedded),
        "petersen": (jsonio.graph_to_json(pete), graph_only),
        "petersen-R": (jsonio.graph_to_json(pete, seeded_r(pete, 4, 5)), graph_only),
        "mcgee": (jsonio.graph_to_json(mcgee_graph()), graph_only),
        "theta-4-4-5": (jsonio.embedding_to_json(theta_planar(4, 4, 5)), embedded),
    }


GOLDEN = {
    "T12:check": "14735b315c0f599b24d4b9ad8b0f9f1c3c8afc66be981d81efdb97d1b934328d",
    "T12:audit": "fdae14f752539c293698a4791ceb7af1c1446efa07646f5a60e569ed56b58285",
    "T12:discharge": "fd56c1607c943261b38aa7e334b76007b94d187bf947a015dab2b4f3fa2c1e46",
    "T12:hunt": "8c9a6d2d882219d1b45c587c78b1b9728782e5d148c055165bcc43ebd98c0caf",
    "grid-10x10:check": "ffaae665a4b96236ee3f22ea6eed732c8b5e1d01167f28fa8d691cb15dad1cca",
    "grid-10x10:audit": "252662d33bd8f7efa9a0dda19c28a4605a1b05a6ca4e58a907d8170375d16067",
    "grid-10x10:discharge": "b23421aee18457927652939cac10dac3529b0359eb3f14a61f37359f0e000366",
    "grid-10x10:hunt": "340e91335e581422799e9708805f23c82da34c57ed240d4ce38760493d821fae",
    "K7:check": "0ca3b33ceaefaba60b9a380d8c370ceb0117f1f5e89517cadb9a80fc67851a44",
    "K7:audit": "dc4e07b60a20483f1d1d9cc6f53830cd4baeb794c765f32f7d3c4429c175bc2e",
    "K7:discharge": "3e563cd8639a9e21d808e4b5536a4a56774df359f1355e80a6449ba0ce2828f1",
    "K7:hunt": "54b8a526415d3dbb7c1758c12a822c8531ab3bc4cf1e43797cd24bed609f4efd",
    "K7-R:check": "b48cad7d219e249a80ba5d5d6b491b76dc75ef0baa362a8d7644a29474b3597b",
    "K7-R:audit": "b84b918ce4c971a57be40473bae4b57c478e1bb67593b9974a9fea76ff79ea9b",
    "K7-R:discharge": "ffb559b1274c6243bac1bab0cfdcc23bd998eae56dcc217ca0d664cd7103858a",
    "K7-R:hunt": "af05af365ef11f07bc344d4d23c80965d231657df74a04b3ea167e948cc61f97",
    "petersen:check": "ba627580457fcfae7af4f99edbe00720a04eb8ae2411bb1addb1f0dcc728ca8f",
    "petersen:audit": "482b29751d6d32abb070dda3f64421a94d085224de1975cfe7d160409265b56e",
    "petersen:hunt": "2d1518d61b31902f0955daac479bc7cfbe96a2808e165f41fbb1cc134e18e8b1",
    "petersen-R:check": "9026da639ac0a16e4076202309c1c0a3a60108997633b721dfc5c0399443e9ba",
    "petersen-R:audit": "1476b27c8ddc541f8e02b770b4568aee01aa0efbe38c3e0f9cf7b7750ef54c45",
    "petersen-R:hunt": "a49f267b3519b013df602f73d4f06957b7b81de3696d8cd07fd4f67bb4804115",
    "mcgee:check": "60f2f46a3b1ac5038589bd846b0085d31a9292f06455074b5e4930ddf6cc2760",
    "mcgee:audit": "5201151e5cc82b409316480c3db2823a458f423bb15fa09388ae3d9250de3ca6",
    "mcgee:hunt": "f674080d7e6e20fe6c3178b185e4eddd79d320499bd24e2d3fcfa20b742b6fae",
    "theta-4-4-5:check": "e181467879561be4761db76993ca9bcd4fc00920e7bd413ed2763115a829e67b",
    "theta-4-4-5:audit": "96945fa3348dd8174223ed16cd275d80b5ccb5701c7c94130494bcec9b8a0dec",
    "theta-4-4-5:discharge": "e8a956f48d8f40646df13d9a549011229c68096f974ca73d132906eadafc0967",
    "theta-4-4-5:hunt": "d1f7614c67c7b131b1132180a401e2d1218bd794275a138c2cf412b71c3e3505",
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict[str, dict]:
    """"instance:command" -> CLI report without ``duration_s``."""
    tmp = tmp_path_factory.mktemp("golden")
    out = {}
    for name, (obj, commands) in instances().items():
        path = tmp / f"{name}.json"
        jsonio.dump_instance(str(path), obj)
        flag = "--instance" if "rotation" in obj else "--graph"
        for command in commands:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                run_command([command, flag, str(path), "--quiet"])
            report = json.loads(stdout.getvalue())
            report.pop("duration_s")
            out[f"{name}:{command}"] = report
    return out


def test_reports_match_golden_digests(reports):
    got = {
        key: hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        for key, report in reports.items()
    }
    assert got == GOLDEN


def test_golden_instances_reach_every_stage(reports):
    """The pinned reports are worth pinning: they hold 5-cycle pairs, audit
    violations, negative charges explained by lemmas, and hunts stopped at
    the hypothesis, the embedding and the audit."""
    seen = set()
    for report in reports.values():
        command, res = report["command"], report["result"]
        if command == "check" and res["five_pairs"]:
            seen.add("five_pairs")
        if command == "audit" and not res["counterexample_shaped"]:
            seen.add("violations")
        if command == "discharge" and any(x["lemmas"] for x in res["charges"]["explained_by"]):
            seen.add("explained_by")
        if command == "hunt":
            seen.add(f"hunt:{res['eliminated_at']}")
    assert seen == {
        "five_pairs", "violations", "explained_by",
        "hunt:hypothesis", "hunt:embedding", "hunt:audit",
    }
