"""Detectors for the structural configurations excluded from a minimal
counterexample.

Each lemma in the catalog states that some local configuration cannot occur;
the auditors here detect every occurrence exhaustively and report witnesses.
A graph (with embedding) passing all audits is "counterexample-shaped".
Detection only: the coloring-extension arguments behind the lemmas are not
re-executed.

Every check, and every discharging rule in ``discharge``, reads one
``Analysis`` of the instance, built once by ``analyze``.

Lemma identifiers L3.1..L3.16 index the catalog; L3.12 is the statement left
unnamed between the face lemmas, audited as "L3.12-unnamed".  A report lists
the lemmas in the order of ``LEMMA_STATEMENTS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter

from .graphs import (
    Graph,
    RSet,
    edge_sharing_pairs,
    enumerate_cycles,
    r_length,
    relaxed_flags,
)
from .embedding import EmbeddedGraph

LEMMA_STATEMENTS = {
    "L3.1": "the graph is connected",
    "L3.2": "every vertex has degree at least three",
    "L3.3": "no 3-vertex is adjacent to two or more relaxed vertices",
    "L3.4": "every 3-cycle has weighted length 5 and all its vertices relaxed",
    "L3.5": "no 3-vertex lies on a 3-cycle",
    "L3.6": "no relaxed 4-vertex has four relaxed neighbors",
    "L3.7": "no 4-vertex with two supported 3-vertex neighbors and a relaxed vertex elsewhere in its closed neighborhood",
    "L3.8": "no 4-vertex whose neighbors are all 3-vertices with outside relaxed support",
    "L3.9": "no adjacent 4-vertices each with two supported 3-vertex neighbors",
    "L3.10": "no two distinct 3-cycles share an edge",
    "L3.11": "an adjacent 3-face/4-face pair shares exactly one edge and has only relaxed vertices",
    "L3.12-unnamed": "the third face at a 4-vertex shared by a 3-face and a 4-face has length at least 5",
    "L3.13": "vertices on both of two 4-faces sharing exactly one edge have degree at least four",
    "L3.14": "two 5-faces sharing exactly one edge with a degree-3 end have a degree-4 neighbor across it",
    "L3.15": "a 3-vertex on two 5-faces is not on a 4-face",
    "L3.16": "some face at every 4-vertex is not a 4-face",
}

FACE_LEMMAS = ("L3.11", "L3.12-unnamed", "L3.13", "L3.14", "L3.15", "L3.16")


@dataclass(frozen=True)
class AuditEntry:
    lemma: str
    verdict: str  # "holds" | "violated" | "skipped"
    witnesses: tuple[dict, ...] = ()

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "statement": LEMMA_STATEMENTS[self.lemma],
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
        }


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]

    @property
    def counterexample_shaped(self) -> bool:
        return all(e.verdict != "violated" for e in self.entries)

    def violated(self) -> tuple[AuditEntry, ...]:
        return tuple(e for e in self.entries if e.verdict == "violated")

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.entries]


@dataclass(frozen=True)
class Analysis:
    """The fixed structure of one instance that the audits and the rules read.

    Per vertex: ``deg``, ``relaxed`` and ``corners``, each corner a
    (face, arrival edge, departure edge) triple, ordered by face and then by
    walk position, so a walk visiting a vertex twice gives it two corners.
    Per edge: ``sides``, the faces (i, j), i <= j, on its two sides.  Per
    face: ``lengths``, ``vsets`` and ``neighbors`` (the other faces sharing
    an edge with it, built on first read, since only the discharging rules
    read it).  ``shared`` maps each face pair (i, j), i <= j, to the set of
    its shared edges; i == j collects the edges whose two sides both lie on
    face i.  ``edges_at(v, f)`` reads the edges of face f at vertex v off
    the corners.  Without an embedding the face and edge fields are empty.
    The sets are left mutable, as built: nothing writes to them.
    """

    g: Graph
    r: RSet
    emb: EmbeddedGraph | None
    deg: tuple[int, ...]
    relaxed: tuple[bool, ...]
    lengths: tuple[int, ...]
    vsets: tuple[frozenset[int], ...]
    shared: dict[tuple[int, int], set[int]]
    corners: tuple[tuple[tuple[int, int, int], ...], ...]
    sides: tuple[tuple[int, int], ...]

    @cached_property
    def neighbors(self) -> tuple[set[int], ...]:
        out: list[set[int]] = [set() for _ in self.lengths]
        for i, j in self.shared:
            if i != j:
                out[i].add(j)
                out[j].add(i)
        return tuple(out)

    def edges_at(self, v: int, f: int) -> list[int]:
        """The edges of face f at vertex v, in increasing order."""
        return sorted({e for fi, arr, dep in self.corners[v] if fi == f for e in (arr, dep)})


def analyze(g: Graph, r: RSet, emb: EmbeddedGraph | None = None) -> Analysis:
    """The ``Analysis`` of ``g`` with relaxation set ``r``, and of its faces
    when an embedding ``emb`` of ``g`` is given."""
    if emb is not None and emb.graph != g:
        raise ValueError("the embedding is of another graph")
    faces = emb.faces if emb is not None else ()
    corners: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    sides: list[list[int]] = [[] for _ in g.edges] if faces else []
    for fi, f in enumerate(faces):
        for (v, dep), (_, arr) in zip(f, f[-1:] + f[:-1]):
            corners[v].append((fi, arr, dep))
            sides[dep].append(fi)
    pairs = tuple(map(tuple, sides))
    # every edge has exactly two sides, met in face order, so i <= j
    assert all(len(p) == 2 for p in pairs)
    shared: dict[tuple[int, int], set[int]] = {}
    for ei, pair in enumerate(pairs):
        shared.setdefault(pair, set()).add(ei)
    return Analysis(
        g, r, emb, tuple(map(len, g.adj)), tuple(relaxed_flags(g, r)),
        tuple(map(len, faces)),
        tuple(frozenset(map(itemgetter(0), f)) for f in faces),
        shared,
        tuple(map(tuple, corners)),
        pairs,
    )


def _entry(lemma: str, witnesses: list[dict]) -> AuditEntry:
    witnesses.sort(key=repr)
    return AuditEntry(lemma, "violated" if witnesses else "holds", tuple(witnesses))


# -- graph-only checks ---------------------------------------------------------


def check_degree_lemmas(a: Analysis) -> list[AuditEntry]:
    comps = a.g.components()
    w1 = [] if len(comps) <= 1 else [{"components": comps}]
    w2 = [{"vertex": v, "degree": d} for v, d in enumerate(a.deg) if d <= 2]
    return [_entry("L3.1", w1), _entry("L3.2", w2)]


def check_relaxed_neighborhoods(a: Analysis) -> list[AuditEntry]:
    g, relaxed = a.g, a.relaxed
    w3 = []
    for v in range(g.n):
        if a.deg[v] != 3:
            continue
        rn = sorted(u for u in g.adj[v] if relaxed[u])
        if len(rn) >= 2:
            w3.append({"vertex": v, "relaxed_neighbors": rn})
    w6 = []
    for v in range(g.n):
        if a.deg[v] == 4 and relaxed[v] and all(relaxed[u] for u in g.adj[v]):
            w6.append({"vertex": v, "neighbors": sorted(g.adj[v])})
    return [_entry("L3.3", w3), _entry("L3.6", w6)]


def check_triangle_lemmas(a: Analysis) -> list[AuditEntry]:
    triangles = enumerate_cycles(a.g, 3)
    relaxed = a.relaxed
    w4 = []
    for t in triangles:
        L = r_length(t, a.r)
        if L != 5:
            w4.append({"cycle": list(t), "r_length": L})
        for v in t:
            if not relaxed[v]:
                w4.append({"cycle": list(t), "non_relaxed_vertex": v})
    w5 = [
        {"cycle": list(t), "vertex": v}
        for t in triangles
        for v in t
        if a.deg[v] == 3
    ]
    w10 = [
        {
            "cycle_a": list(triangles[i]),
            "cycle_b": list(triangles[j]),
            "shared_edges": [list(e) for e in shared],
        }
        for i, j, shared in edge_sharing_pairs(triangles)
    ]
    return [_entry("L3.4", w4), _entry("L3.5", w5), _entry("L3.10", w10)]


def check_four_vertex_configs(a: Analysis) -> list[AuditEntry]:
    g, deg, relaxed = a.g, a.deg, a.relaxed
    # at each 4-vertex x: its 3-vertex neighbors u (in increasing order) with
    # a relaxed vertex in N(u) - {x}, mapped to the smallest such vertex
    supported: list[dict[int, int]] = [{} for _ in range(g.n)]
    for x in range(g.n):
        if deg[x] != 4:
            continue
        for u in sorted(g.adj[x]):
            if deg[u] == 3:
                s = min((w for w in g.adj[u] if w != x and relaxed[w]), default=None)
                if s is not None:
                    supported[x][u] = s

    w7 = []
    for x in range(g.n):
        for y, z in combinations(supported[x], 2):
            side = [w for w in sorted((set(g.adj[x]) | {x}) - {y, z}) if relaxed[w]]
            if side:
                w7.append(
                    {
                        "x": x,
                        "y": y,
                        "z": z,
                        "support_y": supported[x][y],
                        "support_z": supported[x][z],
                        "relaxed_in_closed_nbhd": side[0],
                    }
                )
    w8 = [{"vertex": v, "support": supported[v]} for v in range(g.n) if len(supported[v]) == 4]
    w9 = [
        {"x": x, "y": y, "x_children": list(supported[x])[:2], "y_children": list(supported[y])[:2]}
        for x, y in g.edges
        if len(supported[x]) >= 2 and len(supported[y]) >= 2
    ]
    return [_entry("L3.7", w7), _entry("L3.8", w8), _entry("L3.9", w9)]


# -- face checks ---------------------------------------------------------------


def check_face_lemmas(a: Analysis) -> list[AuditEntry]:
    g, deg, lengths, vsets = a.g, a.deg, a.lengths, a.vsets

    w11, w12, w13, w14 = [], [], [], []
    for (i, j), shared in a.shared.items():
        if i == j:
            continue
        li, lj = lengths[i], lengths[j]
        if {li, lj} == {3, 4}:
            t, q = (i, j) if li == 3 else (j, i)
            if len(shared) != 1:
                w11.append({"three_face": t, "four_face": q, "shared_edges_count": len(shared)})
            for v in sorted(vsets[t] | vsets[q]):
                if not a.relaxed[v]:
                    w11.append({"three_face": t, "four_face": q, "non_relaxed_vertex": v})
            if len(shared) != 1:
                continue
            for v in sorted(vsets[t] & vsets[q]):
                if deg[v] != 4:
                    continue
                for ei in a.edges_at(v, t):
                    sa, sb = a.sides[ei]
                    if q in (sa, sb):
                        continue
                    other = sb if sa == t else sa
                    if other != t and lengths[other] < 5:
                        w12.append(
                            {
                                "three_face": t,
                                "four_face": q,
                                "vertex": v,
                                "edge": list(g.edges[ei]),
                                "third_face": other,
                                "third_face_length": lengths[other],
                            }
                        )
        elif li == lj == 4 and len(shared) == 1:
            for v in sorted(vsets[i] & vsets[j]):
                if deg[v] <= 3:
                    w13.append({"face_a": i, "face_b": j, "vertex": v, "degree": deg[v]})
        elif li == lj == 5 and len(shared) == 1:
            (ei,) = shared
            u, v = g.edges[ei]
            for f1, f2 in ((i, j), (j, i)):
                for a1, a2 in ((u, v), (v, u)):
                    if deg[a1] != 3:
                        continue
                    cand1 = sorted((g.adj[a1] & vsets[f2]) - {a2})
                    cand2 = sorted((g.adj[a2] & vsets[f2]) - {a1})
                    if len(cand1) != 1 or len(cand2) != 1:
                        continue  # "the neighbor" is only defined when unique
                    if deg[cand1[0]] <= 3 and deg[cand2[0]] <= 3:
                        w14.append(
                            {
                                "face_with_primes": f2,
                                "other_face": f1,
                                "shared_edge": [u, v],
                                "degree_3_end": a1,
                                "prime_neighbors": [cand1[0], cand2[0]],
                            }
                        )

    w15, w16 = [], []
    for v in range(g.n):
        faces = [fi for fi, _, _ in a.corners[v]]
        ls = sorted(lengths[fi] for fi in faces)
        witness = {"vertex": v, "faces": faces}
        if deg[v] == 3 and ls == [4, 5, 5]:
            w15.append(witness)
        elif deg[v] == 4 and set(ls) <= {4}:
            w16.append(witness)

    return [
        _entry("L3.11", w11),
        _entry("L3.12-unnamed", w12),
        _entry("L3.13", w13),
        _entry("L3.14", w14),
        _entry("L3.15", w15),
        _entry("L3.16", w16),
    ]


def full_audit(a: Analysis) -> AuditReport:
    """Union of every structural check; the face checks are reported as
    skipped when the instance has no embedding."""
    if a.emb is None:
        faces = [AuditEntry(lemma, "skipped") for lemma in FACE_LEMMAS]
    else:
        faces = check_face_lemmas(a)
    entries = (
        check_degree_lemmas(a)
        + check_relaxed_neighborhoods(a)
        + check_triangle_lemmas(a)
        + check_four_vertex_configs(a)
        + faces
    )
    by_lemma = {e.lemma: e for e in entries}
    return AuditReport(tuple(by_lemma[lemma] for lemma in LEMMA_STATEMENTS))
