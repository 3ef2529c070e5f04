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
the lemmas in the order of ``LEMMA_STATEMENTS``, and each lemma its witnesses
in ``repr`` order, which every report and golden digest pins.  A per-lemma
key gives that order without calling ``repr``: an int followed by "," in the
repr is keyed ``str(x)``, one followed by "]" or "}" ``str(x) + "\x7f"``, as
"," sorts below every digit and "]", "}", "\x7f" above.  L3.13 is read from
each vertex of degree at most three, pairing its 4-faces through ``shared``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter

from .graphs import Graph, RSet, one_edge_pairs, r_length, relaxed_flags
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
    m = len(g.edges) if faces else 0
    corners: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    first, second = [-1] * m, [-1] * m
    for fi, f in enumerate(faces):
        for (v, dep), (_, arr) in zip(f, f[-1:] + f[:-1]):
            corners[v].append((fi, arr, dep))
            (first if first[dep] < 0 else second)[dep] = fi
    # every edge has exactly two sides, met in face order, so i <= j
    assert -1 not in second and sum(map(len, faces)) == 2 * m
    sides = tuple(zip(first, second))
    shared: defaultdict[tuple[int, int], set[int]] = defaultdict(set)
    for ei, pair in enumerate(sides):
        shared[pair].add(ei)
    return Analysis(
        g, r, emb, tuple(map(len, g.adj)), tuple(relaxed_flags(g, r)),
        tuple(map(len, faces)),
        tuple(frozenset(map(itemgetter(0), f)) for f in faces),
        dict(shared),
        tuple(map(tuple, corners)),
        sides,
    )


_END = "\x7f"  # sorts above every digit, as "]" and "}" do


def _cycle_key(c: list[int]) -> tuple[str, str, str]:
    return str(c[0]), str(c[1]), str(c[2]) + _END


# each lemma's witness -> its repr-order key, which stops where the witness is
# unique: L3.1 has at most one, L3.12 one per faces and vertex, an L3.14 face
# pair one shared edge; "non_relaxed_vertex" sorts first
_WITNESS_KEY = {
    **dict.fromkeys(("L3.2", "L3.3", "L3.6", "L3.8", "L3.15", "L3.16"), lambda w: str(w["vertex"])),
    "L3.4": lambda w: (*_cycle_key(w["cycle"]), "r_length" in w, str([*w.values()][-1]) + _END),
    "L3.5": lambda w: (*_cycle_key(w["cycle"]), str(w["vertex"]) + _END),
    "L3.7": lambda w: (str(w["x"]), str(w["y"]), str(w["z"])),
    "L3.9": lambda w: (str(w["x"]), str(w["y"])),
    "L3.10": lambda w: (*_cycle_key(w["cycle_a"]), *_cycle_key(w["cycle_b"])),
    "L3.11": lambda w: (str(w["three_face"]), str(w["four_face"]),
                        "shared_edges_count" in w, str([*w.values()][-1]) + _END),
    "L3.12-unnamed": lambda w: (str(w["three_face"]), str(w["four_face"]), str(w["vertex"])),
    "L3.13": lambda w: (str(w["face_a"]), str(w["face_b"]), str(w["vertex"])),
    "L3.14": lambda w: (str(w["face_with_primes"]), str(w["other_face"]), str(w["degree_3_end"])),
}


def _entry(lemma: str, witnesses: list[dict]) -> AuditEntry:
    if len(witnesses) > 1:
        witnesses.sort(key=_WITNESS_KEY[lemma])
    return AuditEntry(lemma, "violated" if witnesses else "holds", tuple(witnesses))


# -- graph-only checks ---------------------------------------------------------


def check_degree_lemmas(a: Analysis) -> list[AuditEntry]:
    w1 = [] if a.g.is_connected() else [{"components": a.g.components()}]
    w2 = [{"vertex": v, "degree": d} for v, d in enumerate(a.deg) if d <= 2]
    return [_entry("L3.1", w1), _entry("L3.2", w2)]


def check_relaxed_neighborhoods(a: Analysis) -> list[AuditEntry]:
    g, relaxed = a.g, a.relaxed
    w3, w6 = [], []
    for v, d in enumerate(a.deg):
        if d == 3:
            rn = sorted(u for u in g.adj[v] if relaxed[u])
            if len(rn) >= 2:
                w3.append({"vertex": v, "relaxed_neighbors": rn})
        elif d == 4 and relaxed[v] and all(relaxed[u] for u in g.adj[v]):
            w6.append({"vertex": v, "neighbors": sorted(g.adj[v])})
    return [_entry("L3.3", w3), _entry("L3.6", w6)]


def check_triangle_lemmas(a: Analysis) -> list[AuditEntry]:
    # each triangle u < v < w once, from its lowest edge, in the canonical
    # order of enumerate_cycles(g, 3)
    adj = a.g.adj
    triangles = sorted((u, v, w) for u, v in a.g.edges for w in adj[u] & adj[v] if w > v)
    relaxed = a.relaxed
    w4, w5 = [], []
    for t in triangles:
        L = r_length(t, a.r)
        if L != 5:
            w4.append({"cycle": list(t), "r_length": L})
        for v in t:
            if not relaxed[v]:
                w4.append({"cycle": list(t), "non_relaxed_vertex": v})
            if a.deg[v] == 3:
                w5.append({"cycle": list(t), "vertex": v})
    # two distinct triangles share at most one edge
    w10 = [
        {"cycle_a": list(triangles[i]), "cycle_b": list(triangles[j]), "shared_edges": [list(e)]}
        for i, j, e in one_edge_pairs(triangles)
    ]
    return [_entry("L3.4", w4), _entry("L3.5", w5), _entry("L3.10", w10)]


def check_four_vertex_configs(a: Analysis) -> list[AuditEntry]:
    g, deg, relaxed = a.g, a.deg, a.relaxed
    # at each 4-vertex x that has any: its 3-vertex neighbors u (in increasing
    # order) with a relaxed vertex in N(u) - {x}, mapped to the smallest such
    supported: dict[int, dict[int, int]] = {}
    for x, d in enumerate(deg):
        if d != 4:
            continue
        for u in sorted(g.adj[x]):
            if deg[u] == 3:
                s = min((w for w in g.adj[u] if w != x and relaxed[w]), default=None)
                if s is not None:
                    supported.setdefault(x, {})[u] = s

    w7 = []
    for x, sx in supported.items():
        for y, z in combinations(sx, 2):
            side = [w for w in sorted((set(g.adj[x]) | {x}) - {y, z}) if relaxed[w]]
            if side:
                w7.append(
                    {
                        "x": x,
                        "y": y,
                        "z": z,
                        "support_y": sx[y],
                        "support_z": sx[z],
                        "relaxed_in_closed_nbhd": side[0],
                    }
                )
    w8 = [{"vertex": v, "support": sv} for v, sv in supported.items() if len(sv) == 4]
    two = {x for x, sx in supported.items() if len(sx) >= 2}
    w9 = [
        {"x": x, "y": y, "x_children": list(supported[x])[:2], "y_children": list(supported[y])[:2]}
        for x in two for y in g.adj[x] & two if x < y
    ]
    return [_entry("L3.7", w7), _entry("L3.8", w8), _entry("L3.9", w9)]


# -- face checks ---------------------------------------------------------------


def check_face_lemmas(a: Analysis) -> list[AuditEntry]:
    g, deg, lengths, vsets = a.g, a.deg, a.lengths, a.vsets

    w11, w12, w14 = [], [], []
    for (i, j), shared in a.shared.items():
        if i == j:
            continue
        li, lj = lengths[i], lengths[j]
        if li == 3 and lj == 4 or li == 4 and lj == 3:
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
                    # a 3-face walk is a triangle, so no edge has t on both sides
                    other = sb if sa == t else sa
                    if lengths[other] < 5:
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

    # L3.13 from each vertex of degree <= 3, pairing its 4-faces through shared
    w13, w15, w16 = [], [], []
    for v, d in enumerate(deg):
        if d > 4:
            continue
        faces = [fi for fi, _, _ in a.corners[v]]
        if d == 4:
            if all(lengths[fi] == 4 for fi in faces):
                w16.append({"vertex": v, "faces": faces})
            continue
        if d == 3 and sorted(lengths[fi] for fi in faces) == [4, 5, 5]:
            w15.append({"vertex": v, "faces": faces})
        quads = sorted({fi for fi in faces if lengths[fi] == 4})
        for fa, fb in combinations(quads, 2):
            if len(a.shared.get((fa, fb), ())) == 1:
                w13.append({"face_a": fa, "face_b": fb, "vertex": v, "degree": d})

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
