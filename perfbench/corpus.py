"""Seeded corpora for the four workloads, written as instance files.

Every op is one CLI call on one instance file.  The families, their sizes and
the reasons they were chosen are described in ``README.md`` next to this
file.  Two kinds of randomness feed a corpus:

* ``--seed`` draws the relaxation sets, the cycle lengths, the easy
  embedding targets and the op order;
* the graph shapes whose cost varies most between draws come from fixed
  catalogue seeds, so every ``--seed`` runs the same search-bound work: the
  girth-7 hunt candidates, the hard, easy and list solver instances, and the
  planar grids of ``analyze``.  Solve times of hard draws span four decades,
  one hunt candidate in five times out, and one grid's analysis time varies
  by about 30% between draws of the same size; fresh draws per seed moved
  ``corpus_s`` and ``op_tail_ms`` by more than their bounds.

Nothing is dropped for being slow or for crashing.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

from checks import euler_lower_bound
from oddcolor.generate import generate_girth_instances

Edges = list  # sorted list of (u, v) with u < v

HUNT_CATALOGUE_SEED = 5000
SOLVE_CATALOGUE_SEED = 7000
LISTS_CATALOGUE_SEED = 7100
LISTS_DRAW_SEED = 99
ANALYZE_CATALOGUE_SEED = 9000


@dataclass
class Op:
    key: str  # instance name and command; stable across seeds for fixed instances
    argv: list
    inst: dict  # the instance object as written, for the independent checks
    command: str
    max_genus: int | None = None
    k: int | None = None
    theory: str | None = None  # verdict that follows from a theorem, if any


# -- graph constructors (edge lists, independent of the library) --------------


def norm(edges) -> Edges:
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def cycle(n: int) -> Edges:
    return norm((i, (i + 1) % n) for i in range(n))


def complete(n: int) -> Edges:
    return norm((u, v) for u in range(n) for v in range(u + 1, n))


def complete_bipartite(a: int, b: int) -> Edges:
    return norm((i, a + j) for i in range(a) for j in range(b))


def subdivide(n: int, edges: Edges) -> tuple[int, Edges]:
    """Edge i of the sorted list gets the new vertex n + i."""
    out = []
    for i, (u, v) in enumerate(edges):
        out += [(u, n + i), (n + i, v)]
    return n + len(edges), norm(out)


def petersen() -> Edges:
    return norm(
        e for i in range(5) for e in ((i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i))
    )


def mcgee() -> Edges:
    """Cubic girth-7 graph on 24 vertices, LCF [12, 7, -7]^8."""
    jumps = (12, 7, -7)
    return norm(
        e for i in range(24) for e in ((i, (i + 1) % 24), (i, (i + jumps[i % 3]) % 24))
    )


def torus(k: int) -> tuple[Edges, list]:
    """k x k grid on the torus with its quadrangulating rotation."""

    def vid(i, j):
        return (i % k) * k + (j % k)

    edges = norm(
        e for i in range(k) for j in range(k)
        for e in ((vid(i, j), vid(i, j + 1)), (vid(i, j), vid(i + 1, j)))
    )
    rot = [
        [vid(i - 1, j), vid(i, j + 1), vid(i + 1, j), vid(i, j - 1)]
        for i in range(k) for j in range(k)
    ]
    return edges, rot


def grid(w: int, h: int, rng: random.Random) -> tuple[Edges, list]:
    """Planar grid, each square split by a diagonal with probability 3/4, then
    up to 12% of the edges deleted, keeping it connected.  Face lengths run
    from 3 to long merged faces; degrees from 1 to 6.  The rotation is the
    angular order of a straight-line drawing, so the embedding is planar."""
    coords = [(x, y) for y in range(h) for x in range(w)]
    edges = set()
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.add((v, v + 1))
            if y + 1 < h:
                edges.add((v, v + w))
            if x + 1 < w and y + 1 < h and rng.random() < 0.75:
                edges.add((v, v + w + 1))
    adj = [set() for _ in coords]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = sorted(edges)
    rng.shuffle(order)
    for u, v in order[: len(order) * 12 // 100]:
        adj[u].discard(v)
        adj[v].discard(u)
        if not _reaches(adj, u, v):
            adj[u].add(v)
            adj[v].add(u)
    rot = [
        sorted(adj[v], key=lambda u: math.atan2(coords[u][1] - coords[v][1], coords[u][0] - coords[v][0]))
        for v in range(len(coords))
    ]
    return norm((u, v) for u in range(len(coords)) for v in adj[u]), rot


def _reaches(adj, s: int, t: int) -> bool:
    seen, stack = {s}, [s]
    while stack:
        for b in adj[stack.pop()]:
            if b == t:
                return True
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return False


def girth7(n: int, count: int, seed: int) -> list[tuple[int, Edges]]:
    return [(g.n, list(g.edges)) for g in generate_girth_instances(n, 7, count, seed)]


# -- instance files ------------------------------------------------------------


def instance(n: int, edges: Edges, r=(), rotation=None, lists=None) -> dict:
    obj = {"schema": 1, "n": n, "edges": [list(e) for e in edges], "R": sorted(r)}
    if rotation is not None:
        obj["rotation"] = {str(v): list(rotation[v]) for v in range(n)}
        obj["signs"] = [1] * len(edges)
    if lists is not None:
        obj["lists"] = {str(v): sorted(lists[v]) for v in range(n)}
    return obj


def write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def random_r(rng: random.Random, m: int, count: int) -> list[int]:
    return sorted(rng.sample(range(m), min(count, m)))


# -- workloads -----------------------------------------------------------------


def hunt_corpus(rng: random.Random):
    named = [
        ("C5", 5, cycle(5)), ("C7", 7, cycle(7)), ("C9", 9, cycle(9)),
        ("K4", 4, complete(4)), ("K7", 7, complete(7)),
        ("sK7", *subdivide(7, complete(7))),
        ("T4", 16, torus(4)[0]), ("T6", 36, torus(6)[0]),
        ("petersen", 10, petersen()), ("mcgee", 24, mcgee()),
    ]
    for name, n, edges in named:
        yield name, instance(n, edges), dict(command="hunt", max_genus=2)
    for n in range(16, 33):
        for i, (gn, edges) in enumerate(girth7(n, 3, HUNT_CATALOGUE_SEED + n)):
            r = random_r(rng, len(edges), rng.randint(0, 3))
            yield f"g7-{n}{'abc'[i]}", instance(gn, edges, r), dict(command="hunt", max_genus=2)


def embed_corpus(rng: random.Random):
    signed = [("K5", 5, complete(5)), ("petersen", 10, petersen()), ("K33", 6, complete_bipartite(3, 3))]
    for name, n, edges in signed:
        yield name, instance(n, edges), dict(command="embed", max_genus=1)
    yield "K7", instance(7, complete(7)), dict(command="embed", max_genus=2)
    for k in range(6, 21):
        yield f"T{k}", instance(k * k, torus(k)[0]), dict(command="embed", max_genus=2)
    # many cheap draws, so that the median op does not hang on a few of them
    for i in range(128):
        while True:
            ((n, edges),) = girth7(16 + i % 8, 1, rng.randrange(1 << 30))
            # Only graphs whose Euler bound allows the sphere.  Where the bound
            # leaves genus 1, about one graph in 25 sends the search into the
            # signed brute force, which `hunt` already measures.
            if euler_lower_bound(n, len(edges), 7) <= 0:
                break
        yield f"g7-{i}", instance(n, edges), dict(command="embed", max_genus=2)


def solve_corpus(rng: random.Random):
    for n in (200, 250, 300):
        ((gn, edges),) = girth7(n, 1, SOLVE_CATALOGUE_SEED + n)
        yield f"easy-{n}", instance(gn, edges), dict(command="solve", k=5)
    for n in (40, 44, 48, 52, 56, 60):
        ((gn, edges),) = girth7(n, 1, SOLVE_CATALOGUE_SEED + n)
        yield f"hard-{n}", instance(gn, edges), dict(command="solve", k=3)
    lists_rng = random.Random(LISTS_DRAW_SEED)
    for n in range(30, 64, 3):
        ((gn, edges),) = girth7(n, 1, LISTS_CATALOGUE_SEED + n)
        lists = [lists_rng.sample(range(1, 7), 3) for _ in range(gn)]
        yield f"lists-{n}", instance(gn, edges, lists=lists), dict(command="solve")
    # subdivided K_h needs h colors; C5 needs 5; C_n needs 4 unless 3 | n,
    # because its neighborhoods force a proper coloring of the square of C_n
    for h in (5, 6, 7):
        yield f"sK{h}", instance(*subdivide(h, complete(h))), dict(command="solve", k=h - 1, theory="UNSAT")
    yield "C5", instance(5, cycle(5)), dict(command="solve", k=4, theory="UNSAT")
    for i in range(24):
        # stratified over 6..773, every third one SAT; the seed moves each n
        # by at most 6, so the ops near the median and the tail stay alike
        lo = 6 + 33 * i
        n = lo + (i - lo) % 3 + 3 * rng.randrange(3)
        yield f"C-{i}", instance(n, cycle(n)), dict(command="solve", k=3, theory="UNSAT" if n % 3 else "SAT")
    # past the interpreter's recursion limit the solver crashes; its vertex
    # ordering is quadratic, so longer cycles would hit the time limit first
    for i in range(3):
        n = rng.choice([n for n in range(1001, 1101) if n % 3])
        yield f"Clong-{i}", instance(n, cycle(n)), dict(command="solve", k=3, theory="UNSAT")


# Grids stop at n = 196: check and discharge grow about quadratically, so a
# 20 x 20 grid costs 2.3 s per pass and would leave each op a few samples.
GRID_SIZES = ((8, 8), (9, 9), (10, 10), (11, 11), (12, 12), (13, 13), (14, 14))
ANALYZE_TORI = (12, 15, 18, 22, 26, 30)


def analyze_corpus(rng: random.Random):
    shapes = [
        (f"grid-{w}x{h}", w * h, *grid(w, h, random.Random(ANALYZE_CATALOGUE_SEED + w)))
        for w, h in GRID_SIZES
    ]
    shapes += [(f"T{k}", k * k, *torus(k)) for k in ANALYZE_TORI]
    for name, n, edges, rot in shapes:
        inst = instance(n, edges, random_r(rng, len(edges), len(edges) // 20), rot)
        for command in ("audit", "discharge", "check"):
            yield name, inst, dict(command=command)


WORKLOADS = {
    "hunt": hunt_corpus,
    "embed": embed_corpus,
    "solve": solve_corpus,
    "analyze": analyze_corpus,
}


def build(workload: str, seed: int, outdir: str) -> list[Op]:
    """Generate the corpus, write its instance files, return the ops in run order."""
    rng = random.Random(f"{workload}:{seed}")
    ops, written = [], {}
    for name, inst, spec in WORKLOADS[workload](rng):
        path = written.get(name)
        if path is None:
            path = written[name] = os.path.join(outdir, f"{name}.json")
            write(path, inst)
        command = spec["command"]
        argv = [command, "--instance" if "rotation" in inst else "--graph", path]
        if spec.get("max_genus") is not None:
            argv += ["--max-genus", str(spec["max_genus"])]
        if spec.get("k") is not None:
            argv += ["--k", str(spec["k"])]
        ops.append(Op(f"{name}:{command}", argv, inst, **spec))
    rng.shuffle(ops)
    return ops
