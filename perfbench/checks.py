"""Output checks that do not use the code under test.

Every check reads the instance object the benchmark wrote and the JSON report
the CLI printed.  Colorings, embeddings, cycle witnesses and ledger totals are
verified from first principles here; verdicts that only an exhaustive search
could confirm (UNSAT, "no embedding", lemma and transfer counts) are reduced
to a summary string, which ``run.py`` compares against the pins recorded
from the same corpus at the time the benchmark was defined.
"""

from __future__ import annotations

import json
from collections import Counter, deque

EXIT_OK, EXIT_REFUTED = 0, 1
HUNT_STAGES = ("hypothesis", "embedding", "audit", "charges")


class CheckError(Exception):
    """An output contradicts its instance."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- graph helpers ---------------------------------------------------------------


def adjacency(inst: dict) -> list[set]:
    adj = [set() for _ in range(inst["n"])]
    for u, v in inst["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def r_edges(inst: dict) -> set:
    return {tuple(inst["edges"][i]) for i in inst["R"]}


def relaxed_vertices(inst: dict, adj: list[set]) -> list[bool]:
    touched = {v for e in r_edges(inst) for v in e}
    return [len(a) % 2 == 1 or not a or v in touched for v, a in enumerate(adj)]


def is_connected(adj: list[set]) -> bool:
    if not adj:
        return True
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def girth(adj: list[set]) -> float:
    """Shortest cycle length by BFS from every vertex; inf for forests."""
    best = float("inf")
    for s in range(len(adj)):
        dist, parent, queue = {s: 0}, {s: -1}, deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w], parent[w] = dist[u] + 1, u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def euler_lower_bound(n: int, m: int, g: float) -> int:
    """Least Euler genus any embedding of a graph with n vertices, m edges
    and girth g can have, from F <= 2m / g."""
    if g == float("inf"):
        return 0
    return m - n + 2 - (2 * m) // g


def face_lengths(n: int, edges: list, rotation: list, signs: list) -> list[int]:
    """Face walk lengths of a signed rotation system.

    Walk state (v, w, eps): leaving v along vw with local orientation eps.
    Crossing a -1 edge flips eps; at w the next neighbor is the rotation
    successor of v (eps = +1) or its predecessor (eps = -1).  Every face is
    traced once in each direction, so every second orbit is kept.
    """
    pos = [{w: i for i, w in enumerate(rotation[v])} for v in range(n)]
    sign = {(min(u, v), max(u, v)): s for (u, v), s in zip(edges, signs)}
    seen, orbits = set(), []
    for v in range(n):
        for w in rotation[v]:
            for eps in (1, -1):
                state = (v, w, eps)
                if state in seen:
                    continue
                length = 0
                while state not in seen:
                    seen.add(state)
                    length += 1
                    a, b, e = state
                    e *= sign[(min(a, b), max(a, b))]
                    rot = rotation[b]
                    state = (b, rot[(pos[b][a] + e) % len(rot)], e)
                orbits.append(length)
    require(sum(orbits) == 4 * len(edges), "face walks do not cover every dart twice")
    counts = Counter(orbits)
    require(all(c % 2 == 0 for c in counts.values()), "face walks are not paired")
    return sorted(L for L, c in counts.items() for _ in range(c // 2))


def euler_genus(n: int, m: int, faces: int) -> int:
    return 2 - (n - m + faces)


# -- colorings -------------------------------------------------------------------


def coloring_problems(inst: dict, k: int | None, colors: dict) -> list[str]:
    """List membership, properness and odd parity at non-relaxed vertices."""
    adj = adjacency(inst)
    n = inst["n"]
    if "lists" in inst:
        lists = [set(inst["lists"][str(v)]) for v in range(n)]
    else:
        lists = [set(range(1, k + 1))] * n
    out = []
    c = {}
    for v in range(n):
        col = colors.get(str(v))
        if col is None:
            out.append(f"vertex {v} uncolored")
        elif col not in lists[v]:
            out.append(f"vertex {v} colored {col} outside its list")
        c[v] = col
    if out:
        return out
    for u, v in inst["edges"]:
        if c[u] == c[v]:
            out.append(f"edge {u}-{v} monochromatic")
    for v, relaxed in enumerate(relaxed_vertices(inst, adj)):
        if not relaxed and not any(k % 2 for k in Counter(c[w] for w in adj[v]).values()):
            out.append(f"vertex {v} sees no color an odd number of times")
    return out


# -- cycle witnesses -------------------------------------------------------------


def cycle_r_length(inst: dict, adj: list[set], cycle: list) -> tuple[int, set]:
    require(len(cycle) >= 3 and len(set(cycle)) == len(cycle), f"{cycle} is not a simple cycle")
    es = set()
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        require(v in adj[u], f"{cycle} uses the non-edge {u}-{v}")
        es.add((min(u, v), max(u, v)))
    return len(es) + len(es & r_edges(inst)), es


def check_hypothesis(inst: dict, adj: list[set], hyp: dict, code: int | None = None) -> str:
    for entry in hyp["forbidden_cycles"]:
        length, _ = cycle_r_length(inst, adj, entry["cycle"])
        require(length == entry["r_length"] and length in (3, 4, 6), f"bad forbidden cycle {entry}")
    for entry in hyp["five_pairs"]:
        la, ea = cycle_r_length(inst, adj, entry["cycle_a"])
        lb, eb = cycle_r_length(inst, adj, entry["cycle_b"])
        require(la == lb == 5 and ea & eb == {tuple(entry["shared_edge"])}, f"bad five pair {entry}")
    witnessed = bool(hyp["forbidden_cycles"] or hyp["five_pairs"])
    require(hyp["passes"] is not witnessed, "hypothesis verdict disagrees with its witnesses")
    if code is not None:
        require(code == (EXIT_OK if hyp["passes"] else EXIT_REFUTED), "exit code disagrees with the verdict")
    return f"{int(hyp['passes'])}/{len(hyp['forbidden_cycles'])}/{len(hyp['five_pairs'])}"


# -- audits and ledgers ----------------------------------------------------------


def check_audit(inst: dict, adj: list[set], audit: list) -> str:
    entries = {e["lemma"]: e for e in audit}
    require(len(entries) == 16, "the audit must report all sixteen lemmas")
    require(
        (entries["L3.1"]["verdict"] == "violated") is not is_connected(adj), "L3.1 disagrees with connectivity"
    )
    low = sorted(v for v, a in enumerate(adj) if len(a) <= 2)
    require(sorted(w["vertex"] for w in entries["L3.2"]["witnesses"]) == low, "L3.2 misses low-degree vertices")
    for e in audit:
        require((e["verdict"] == "violated") is bool(e["witnesses"]), f"{e['lemma']} verdict disagrees with witnesses")
    return ",".join(f"{e['lemma']}:{len(e['witnesses'])}" for e in audit if e["verdict"] == "violated")


def check_ledger(inst: dict, adj: list[set], ledger: dict, genus: int) -> str:
    initial, final = ledger["initial"], ledger["final"]
    faces = [c for el, c in initial.items() if el.startswith("f")]
    require(
        all(initial[f"v{v}"] == 12 * (len(a) - 4) for v, a in enumerate(adj)), "vertex charges are not deg - 4"
    )
    require(sum(c // 12 + 4 for c in faces) == 2 * len(inst["edges"]), "face lengths do not sum to 2E")
    require(euler_genus(inst["n"], len(inst["edges"]), len(faces)) == genus, "ledger face count disagrees with genus")
    total = sum(initial.values())
    require(total == sum(final.values()) == ledger["total_twelfths"], "charge is not conserved")
    require(total == -48 * (2 - genus), "total charge breaks the Euler identity")
    rules = Counter(t["rule"] for t in ledger["transfers"])
    return ",".join(f"{r}:{rules[r]}" for r in sorted(rules))


def check_charges(charges: dict, ledger: dict) -> str:
    require(not charges["contradiction"], "charges report a contradiction")
    negatives = sorted(el for el, c in ledger["final"].items() if c < 0)
    require(sorted(x["element"] for x in charges["negatives"]) == negatives, "negatives disagree with the ledger")
    return f"neg:{len(negatives)}|audits_hold:{int(charges['audits_hold'])}"


# -- per command -----------------------------------------------------------------


def check_solve(op, code, res) -> str:
    status = res["status"]
    require(status in ("SAT", "UNSAT"), f"unknown status {status}")
    require(code == (EXIT_OK if status == "SAT" else EXIT_REFUTED), "exit code disagrees with the status")
    if status == "SAT":
        problems = coloring_problems(op.inst, op.k, res["colors"])
        require(not problems, "; ".join(problems[:3]))
    if op.theory is not None:
        require(status == op.theory, f"{status} where theory says {op.theory}")
    return status


def check_embed(op, code, res) -> str:
    emb = res["embedding"]
    inst, adj = op.inst, adjacency(op.inst)
    if emb is None:
        require(code == EXIT_REFUTED, "exit code disagrees with 'no embedding'")
        return "none"
    require(code == EXIT_OK, "exit code disagrees with the embedding")
    require(emb["n"] == inst["n"] and emb["edges"] == inst["edges"], "embedding is of another graph")
    n = inst["n"]
    rotation = [emb["rotation"][str(v)] for v in range(n)]
    require(all(sorted(rotation[v]) == sorted(adj[v]) for v in range(n)), "rotation is not a permutation of neighbors")
    require(len(emb["signs"]) == len(inst["edges"]) and set(emb["signs"]) <= {1, -1}, "bad signs")
    lengths = face_lengths(n, inst["edges"], rotation, emb["signs"])
    genus = euler_genus(n, len(inst["edges"]), len(lengths))
    require(genus <= op.max_genus, f"embedding has Euler genus {genus} > {op.max_genus}")
    require(res["euler_genus"] == genus and res["faces"] == len(lengths), "reported genus or face count is wrong")
    return "found"


def check_hunt(op, code, res) -> str:
    inst, adj = op.inst, adjacency(op.inst)
    stage = res["eliminated_at"]
    require(stage in HUNT_STAGES, f"instance not eliminated (eliminated_at={stage})")
    require(code == EXIT_OK, "exit code disagrees with the elimination")
    hyp = check_hypothesis(inst, adj, res["hypothesis"])
    if girth(adj) >= 7:
        require(res["hypothesis"]["passes"], "girth >= 7 yet the hypothesis check fails")
    if stage == "hypothesis":
        require(not res["hypothesis"]["passes"], "eliminated at hypothesis yet it passes")
        return f"hypothesis|{hyp}"
    require(res["hypothesis"]["passes"], f"eliminated at {stage} yet the hypothesis fails")
    if stage == "embedding":
        require(not res["embedding_found"], "eliminated at embedding with an embedding in hand")
        bound = euler_lower_bound(inst["n"], len(inst["edges"]), girth(adj))
        return f"embedding|bound:{int(bound > op.max_genus)}"
    genus = res["euler_genus"]
    require(res["embedding_found"] and genus <= op.max_genus, "embedding missing or of too large genus")
    audit = check_audit(inst, adj, res["audit"])
    require((stage == "audit") is bool(audit), "stage disagrees with the audit")
    ledger = check_ledger(inst, adj, res["ledger"], genus)
    charges = check_charges(res["charges"], res["ledger"])
    return f"{stage}|eg:{genus}|{audit}|{ledger}|{charges}"


def check_audit_cmd(op, code, res) -> str:
    inst, adj = op.inst, adjacency(op.inst)
    audit = check_audit(inst, adj, res["audit"])
    require(res["counterexample_shaped"] is not bool(audit), "counterexample_shaped disagrees with the audit")
    require(code == (EXIT_REFUTED if audit else EXIT_OK), "exit code disagrees with the audit")
    return audit


def instance_genus(inst: dict) -> int:
    n = inst["n"]
    rotation = [inst["rotation"][str(v)] for v in range(n)]
    return euler_genus(n, len(inst["edges"]), len(face_lengths(n, inst["edges"], rotation, inst["signs"])))


def check_discharge(op, code, res) -> str:
    inst, adj = op.inst, adjacency(op.inst)
    require(code == EXIT_OK, "discharge exits 0")
    ledger = check_ledger(inst, adj, res["ledger"], instance_genus(inst))
    return f"{ledger}|{check_charges(res['charges'], res['ledger'])}"


def check_check(op, code, res) -> str:
    return check_hypothesis(op.inst, adjacency(op.inst), res, code)


CHECKERS = {
    "solve": check_solve,
    "embed": check_embed,
    "hunt": check_hunt,
    "audit": check_audit_cmd,
    "discharge": check_discharge,
    "check": check_check,
}


def check(op, code: int, stdout: str) -> str:
    """Verify one op's output; return its verdict summary or raise CheckError."""
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
        res = report["result"]
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise CheckError(f"unreadable report: {exc}") from exc
    require(report.get("command") == op.command, "report names another command")
    try:
        return CHECKERS[op.command](op, code, res)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed report: {type(exc).__name__}: {exc}") from exc
