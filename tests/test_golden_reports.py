"""Pinned CLI reports: ``check``, ``audit``, ``discharge``, ``hunt``,
``embed``, ``gen``, ``solve`` and ``chromatic`` on a few fixed instances must
keep every byte of their JSON (``duration_s`` aside), so that an
optimisation cannot silently change a report.

The ``check`` … ``hunt`` digests were recorded with the quadratic analysis
code (pairwise 5-cycle and triangle scans, per-negative witness scans,
recursive cycle enumeration).  The ``embed`` and ``gen`` digests were
recorded with a parser built on every call, two face traces per ``embed``
and the per-edge-BFS ``girth``.  The ``solve`` and ``chromatic`` digests were
recorded before ``solve`` cut the color symmetry of uniform lists.  The
``g7-28b``, ``g7-29a`` and ``g7-30c`` digests were recorded before the face
search pruned open walks by their distance back to the face's root.  A
digest that changes means a report changed: find out why before recording a
new one.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from oddcolor import jsonio
from oddcolor.cli import run_command
from oddcolor.coloring import ListAssignment
from oddcolor.generate import generate_girth_instances
from oddcolor.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    one_subdivision,
    r_set_from_indices,
)

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
    """name -> (file contents, commands run on it, each a CLI argument string)."""
    embedded = ("check", "audit", "discharge", "hunt")
    graph_only = ("check", "audit", "hunt")
    signed = ("embed --max-genus 1",)  # found by the signed phase, or refuted
    orientable = ("embed --max-genus 2",)
    t12 = torus_quadrangulation(12)
    grid = grid_with_diagonals(10, 10, seed=7)
    k7 = k7_torus()
    pete = petersen_graph()
    girth7 = {
        f"g7-{n}-s{seed}": generate_girth_instances(n, 7, 1, seed)[0]
        for n, seed in ((16, 1), (20, 2), (24, 3))
    }
    # where the Euler bound leaves exactly genus 2: two refuted, and one the
    # signed phase embeds in the Klein bottle
    tight = {
        f"g7-{n}{'abc'[i]}": generate_girth_instances(n, 7, 3, 5000 + n)[i]
        for n, i in ((28, 1), (29, 0), (30, 2))
    }
    c5, c12 = cycle_graph(5), cycle_graph(12)
    g7 = generate_girth_instances(18, 7, 1, 6)[0]
    rng = random.Random(8)
    mixed = ListAssignment(tuple(frozenset(rng.sample(range(1, 7), 3)) for _ in range(g7.n)))
    wide = ListAssignment((frozenset((-7, 0, 2**70)),) * c12.n)
    return {
        "T12": (jsonio.embedding_to_json(t12, seeded_r(t12.graph, 1, 20)), embedded + orientable),
        "grid-10x10": (jsonio.embedding_to_json(grid, seeded_r(grid.graph, 2, 20)), embedded),
        "K7": (jsonio.embedding_to_json(k7), embedded + orientable),
        "K7-R": (jsonio.embedding_to_json(k7, seeded_r(k7.graph, 3, 5)), embedded),
        "petersen": (jsonio.graph_to_json(pete), graph_only + signed),
        "petersen-R": (jsonio.graph_to_json(pete, seeded_r(pete, 4, 5)), graph_only),
        "mcgee": (jsonio.graph_to_json(mcgee_graph()), graph_only),
        "theta-4-4-5": (jsonio.embedding_to_json(theta_planar(4, 4, 5)), embedded),
        "K5": (jsonio.graph_to_json(complete_graph(5)), signed),
        "K33": (jsonio.graph_to_json(complete_bipartite_graph(3, 3)), signed),
        "T6": (jsonio.graph_to_json(torus_quadrangulation(6).graph), orientable),
        **{name: (jsonio.graph_to_json(g), orientable) for name, g in girth7.items()},
        **{name: (jsonio.graph_to_json(g), ("hunt",) + orientable) for name, g in tight.items()},
        # one instance name per ``solve --k``, so the keys stay "name:command"
        "C5-k4": (jsonio.graph_to_json(c5), ("solve --k 4",)),
        "C5-k5": (jsonio.graph_to_json(c5), ("solve --k 5", "chromatic")),
        "sK5-k4": (jsonio.graph_to_json(one_subdivision(complete_graph(5))), ("solve --k 4",)),
        "sK4": (jsonio.graph_to_json(one_subdivision(complete_graph(4))), ("chromatic",)),
        "petersen-k3": (jsonio.graph_to_json(pete), ("solve --k 3", "chromatic")),
        "petersen-k4": (jsonio.graph_to_json(pete), ("solve --k 4",)),
        "C12-k3": (jsonio.graph_to_json(c12), ("solve --k 3",)),
        "g7-18-s6-k3": (jsonio.graph_to_json(g7), ("solve --k 3",)),
        "g7-18-s6-mixed": ({**jsonio.graph_to_json(g7), **jsonio.lists_to_json(mixed)}, ("solve",)),
        "C12-wide": ({**jsonio.graph_to_json(c12), **jsonio.lists_to_json(wide)}, ("solve",)),
    }


# ``gen`` reads no file: key -> its CLI argument string
GEN_RUNS = {
    "g7-28b:hunt": "69bc891631ea915710ac198901d92d91c3057e160e3e91652943c4445cb1d9db",
    "g7-28b:embed": "d5e1977e414f0b2a0fc6c54a70d96d8d134b8e8202991823a700ee758d5b671a",
    "g7-29a:hunt": "eded32ad3614871425d88c4528347c4b8cc47330d4ed81aabf98f84c36a4682b",
    "g7-29a:embed": "c198ae89456239cc079e5a2719d0924672d646bf1963312aa04ba039d4ceb375",
    "g7-30c:hunt": "b56cc8bbf34dc3720d3a866d421c2b80db6b14f0111fe52eb016b9f1527dd64f",
    "g7-30c:embed": "28e084ea7230964386c1038b0618497593f57ab496a6ac0571578ed33d4ce8a8",
    "gen-n30-g7-s5": "gen --n 30 --min-girth 7 --count 2 --seed 5",
    "gen-n20-g5-s11": "gen --n 20 --min-girth 5 --count 3 --seed 11",
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
    "T12:embed": "81f6cb1f41d4f9d970d0eb69bd9cd4b3ce3efb96c09e9eebc8c9a46861637779",
    "K7:embed": "75e6bac37e2bba4920b508e36b7f13067264a705e077eba238ef809e49d464fd",
    "petersen:embed": "140ad198fb6642b03f4f7a2fe9ad1e223ab22619df862cd13de1422f073b21b3",
    "K5:embed": "cc90e57c2314ea40c4fa0124144de6f3be06e9e5204f343fe9091e590aafa28a",
    "K33:embed": "29cf2bacc26dabc0172145cdf999b50a015f71464035dc950207b754abe4d8a6",
    "T6:embed": "9feedfa78c0a4e4034bdd1a0df82b5f291591071163f269c29a78219de372292",
    "g7-16-s1:embed": "a07f086adca710d69ad89fd5f0182e1dcaf912e0536d6fd73f9792dea9e006d9",
    "g7-20-s2:embed": "104a2db910e4239775933fe175885748a33b2724fa79ddf97e1369becd77c4ef",
    "g7-24-s3:embed": "4da1a55435e04656af2f90f6f0c3e3e65894ece8b20b799f56e5b0c7e59d4117",
    "g7-28b:hunt": "69bc891631ea915710ac198901d92d91c3057e160e3e91652943c4445cb1d9db",
    "g7-28b:embed": "d5e1977e414f0b2a0fc6c54a70d96d8d134b8e8202991823a700ee758d5b671a",
    "g7-29a:hunt": "eded32ad3614871425d88c4528347c4b8cc47330d4ed81aabf98f84c36a4682b",
    "g7-29a:embed": "c198ae89456239cc079e5a2719d0924672d646bf1963312aa04ba039d4ceb375",
    "g7-30c:hunt": "b56cc8bbf34dc3720d3a866d421c2b80db6b14f0111fe52eb016b9f1527dd64f",
    "g7-30c:embed": "28e084ea7230964386c1038b0618497593f57ab496a6ac0571578ed33d4ce8a8",
    "gen-n30-g7-s5": "06d6158e844d7567f76b75b58cd69e12023d70a2ed519a07821383e6420c91e1",
    "gen-n20-g5-s11": "33b496e9f449a524dc64647cfac279ccbe7b4afb1e90a9cd3fc99581991e93d8",
    "C5-k4:solve": "307fd687f1824829fa6145e48e0883da642541451902aa92eeb1f9b8516f9f07",
    "C5-k5:solve": "05b50e6e18e1e4edcf495711ef05687ca29712f52fe79e466a06ff3f8b1076ae",
    "C5-k5:chromatic": "fe4f1f6b17abf1daf9698329040dc5b742a6e92c19c671f1366998feef7a58c1",
    "sK5-k4:solve": "5fd3f1aef2fd00280145513a01527467e7a4ffc8f5a30b638069d0a3fba273ec",
    "sK4:chromatic": "1352755bf0c4981ebb3a772c11782e8d528514ba50cc8305635ddd7ac4ff77b6",
    "petersen-k3:solve": "fa563619779e642e103005eb6ce194074eed4acde1ad42a059f098cd9a605544",
    "petersen-k3:chromatic": "d28a43895c0b9839e42de7dc551e9db2aa87b73d4ef9e53862fe9363793b18d6",
    "petersen-k4:solve": "5b2b38d41cbfcaef0fc6637000a8d732765c774ccf1b8e8545b8025ef5504871",
    "C12-k3:solve": "154a528eda8deb29a5a319a955c3a5e9ba01e88491919a914abfa28341b88a33",
    "g7-18-s6-k3:solve": "aa4164620fe8606d652d99be1b82261bbc7cec894d2ae0b2fd50df861fa1ce5a",
    "g7-18-s6-mixed:solve": "544be7943eebc14d634bdb3837289fdddf2ddb66b78ed0f142ed6e2276c18105",
    "C12-wide:solve": "3cc131bd38bf057243893cf31297551dc978b3b207272a28bbe6f41df2dc167c",
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict[str, dict]:
    """"instance:command" -> CLI report without ``duration_s``."""
    tmp = tmp_path_factory.mktemp("golden")
    runs = {key: args.split() for key, args in GEN_RUNS.items()}
    for name, (obj, commands) in instances().items():
        path = tmp / f"{name}.json"
        jsonio.dump_instance(str(path), obj)
        flag = "--instance" if "rotation" in obj else "--graph"
        for command in commands:
            command, *extra = command.split()
            runs[f"{name}:{command}"] = [command, flag, str(path), *extra]
    out = {}
    for key, argv in runs.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            run_command([*argv, "--quiet"])
        report = json.loads(stdout.getvalue())
        report.pop("duration_s")
        out[key] = report
    return out


def test_reports_match_golden_digests(reports):
    got = {
        key: hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        for key, report in reports.items()
    }
    assert got == GOLDEN


def test_golden_instances_reach_every_stage(reports):
    """The pinned reports are worth pinning: they hold 5-cycle pairs, audit
    violations, negative charges explained by lemmas, hunts stopped at the
    hypothesis, the embedding and the audit, embeddings found at Euler genus
    1 and 2 and refuted at genus 2, and colorings both found and refuted."""
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
        if command == "embed":
            seen.add(f"embed:eg{res['euler_genus']}" if res["embedding"] else "embed:refuted")
        if command == "solve":
            seen.add(f"solve:{res['status']}")
    assert seen == {
        "five_pairs", "violations", "explained_by",
        "hunt:hypothesis", "hunt:embedding", "hunt:audit",
        "embed:eg1", "embed:eg2", "embed:refuted",
        "solve:SAT", "solve:UNSAT",
    }
