"""Shared graph and embedding fixtures.

Planar patches are described by vertex coordinates of a crossing-free
drawing; the rotation at each vertex is the counterclockwise angular order
of its neighbors, which realizes exactly the faces of the drawing.
"""

from __future__ import annotations

import math

from oddcolor.graphs import Graph, normalize_edge
from oddcolor.embedding import EmbeddedGraph
from oddcolor.audit import Analysis, analyze


def analyze_embedded(emb: EmbeddedGraph, r: frozenset = frozenset()) -> Analysis:
    """The analysis of an embedded instance, graph taken from the embedding."""
    return analyze(emb.graph, r, emb)


def rotation_from_coords(g: Graph, coords: dict[int, tuple[float, float]]) -> list[list[int]]:
    rot = []
    for v in range(g.n):
        x0, y0 = coords[v]

        def angle(w):
            x1, y1 = coords[w]
            return math.atan2(y1 - y0, x1 - x0) % (2 * math.pi)

        rot.append(sorted(g.adj[v], key=angle))
    return rot


def embed_planar(g: Graph, coords: dict[int, tuple[float, float]]) -> EmbeddedGraph:
    emb = EmbeddedGraph(g, rotation_from_coords(g, coords))
    assert emb.euler_genus == 0, "fixture drawing was not planar"
    return emb


def face_of_length(emb: EmbeddedGraph, length: int, containing: set[int] | None = None) -> int:
    hits = [
        i
        for i, f in enumerate(emb.faces)
        if len(f) == length and (containing is None or containing <= {v for v, _ in f})
    ]
    assert len(hits) == 1, f"face lookup not unique: {hits}"
    return hits[0]


# -- classic graphs ------------------------------------------------------------


def cube_graph() -> Graph:
    return Graph(
        8,
        [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )


def cube_planar() -> EmbeddedGraph:
    coords = {
        0: (-1, -1), 1: (1, -1), 2: (1, 1), 3: (-1, 1),
        4: (-2, -2), 5: (2, -2), 6: (2, 2), 7: (-2, 2),
    }
    return embed_planar(cube_graph(), coords)


def k4_planar() -> EmbeddedGraph:
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    coords = {0: (0.0, 0.2), 1: (-1, -1), 2: (1, -1), 3: (0, 1.4)}
    return embed_planar(g, coords)


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, 5 + i))
    return Graph(10, edges)


def mcgee_graph() -> Graph:
    """Cubic girth-7 graph on 24 vertices (LCF [12, 7, -7]^8)."""
    jumps = [12, 7, -7]
    edges = set()
    for i in range(24):
        edges.add(normalize_edge(i, (i + 1) % 24))
        edges.add(normalize_edge(i, (i + jumps[i % 3]) % 24))
    return Graph(24, edges)


def torus_quadrangulation(k: int = 4) -> EmbeddedGraph:
    """k x k grid on the torus: 4-regular, all faces quadrilaterals, genus 2."""

    def vid(i, j):
        return (i % k) * k + (j % k)

    edges = set()
    for i in range(k):
        for j in range(k):
            edges.add(normalize_edge(vid(i, j), vid(i, j + 1)))
            edges.add(normalize_edge(vid(i, j), vid(i + 1, j)))
    g = Graph(k * k, edges)
    rot = []
    for i in range(k):
        for j in range(k):
            rot.append([vid(i - 1, j), vid(i, j + 1), vid(i + 1, j), vid(i, j - 1)])
    return EmbeddedGraph(g, rot)


def k7_torus() -> EmbeddedGraph:
    """K7 on the torus: vertex v turns through v+1, v+3, v+2, v+6, v+4, v+5
    (mod 7), giving fourteen triangular faces."""
    g = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    rot = [[(v + d) % 7 for d in (1, 3, 2, 6, 4, 5)] for v in range(7)]
    return EmbeddedGraph(g, rot)


def theta_graph(a: int, b: int, c: int) -> tuple[Graph, dict]:
    """Two hubs joined by three internally disjoint paths of a, b, c edges."""
    assert min(a, b, c) >= 2
    edges = []
    coords = {0: (-3.0, 0.0), 1: (3.0, 0.0)}
    nxt = 2
    for path_idx, (length, y) in enumerate(((a, 2.0), (b, 0.0), (c, -2.0))):
        prev = 0
        for i in range(length - 1):
            coords[nxt] = (-3.0 + 6.0 * (i + 1) / length, y)
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges), coords


def theta_planar(a: int = 3, b: int = 4, c: int = 4) -> EmbeddedGraph:
    g, coords = theta_graph(a, b, c)
    return embed_planar(g, coords)


def wheel_planar(rim: int = 5) -> EmbeddedGraph:
    """Hub of degree ``rim`` surrounded by a rim cycle; rim triangles + outer face."""
    edges = []
    coords = {0: (0.0, 0.0)}
    for i in range(rim):
        ang = 2 * math.pi * i / rim
        coords[1 + i] = (2 * math.cos(ang), 2 * math.sin(ang))
        edges.append((0, 1 + i))
        edges.append((1 + i, 1 + (i + 1) % rim))
    return embed_planar(Graph(1 + rim, edges), coords)


def bowtie_planar() -> EmbeddedGraph:
    """Two triangles sharing one vertex; the outer face has length 6."""
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    coords = {0: (-2, 1), 1: (-2, -1), 2: (0, 0), 3: (2, 1), 4: (2, -1)}
    return embed_planar(g, coords)


def tri_quad_planar() -> EmbeddedGraph:
    """A 3-face and a 4-face sharing exactly one edge, outer face of length 5."""
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4), (0, 4)])
    coords = {0: (-1, 0), 1: (1, 0), 2: (0, -1.5), 3: (1, 1.5), 4: (-1, 1.5)}
    return embed_planar(g, coords)


# -- discharging rule fixtures ---------------------------------------------------
# One minimal embedded configuration per rule.  The outer face of each patch
# is its unique longest face.


def rule_r1_fixture() -> EmbeddedGraph:
    # theta(3,4,4): two 3-vertices, faces of lengths 7, 7, 8, nothing else fires
    return theta_planar(3, 4, 4)


def rule_r2_fixture() -> EmbeddedGraph:
    # triangle (0,1,2); both 0 and 1 have degree 4; 0 sees the non-relaxed
    # degree-2 vertex 3 along the outer walk, 1 has the non-relaxed outside
    # neighbor 6
    g = Graph(
        9,
        [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (0, 5), (1, 6), (6, 7), (1, 8)],
    )
    coords = {
        0: (-1, 0), 1: (1, 0), 2: (0, -1.2),
        3: (-2, 0.8), 4: (-3, 1.2), 5: (-1.5, 1.5),
        6: (2, 0.8), 7: (3, 1.2), 8: (1.5, 1.5),
    }
    return embed_planar(g, coords)


def rule_r3_fixture() -> EmbeddedGraph:
    # like the R2 patch but every outside neighbor is a relaxed pendant,
    # so R2's predicate fails and R3 fires instead
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6)])
    coords = {
        0: (-1, 0), 1: (1, 0), 2: (0, -1.2),
        3: (-2, 0.5), 4: (-1.5, 1.2), 5: (2, 0.5), 6: (1.5, 1.2),
    }
    return embed_planar(g, coords)


def rule_r23_adversarial_fixture() -> EmbeddedGraph:
    # all three triangle vertices have degree 4, so each triangle edge carries
    # exactly one of R2/R3 against the same outer face
    g = Graph(
        11,
        [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (0, 5), (1, 6), (6, 7), (1, 8),
         (2, 9), (2, 10)],
    )
    coords = {
        0: (-1, 0), 1: (1, 0), 2: (0, -1.5),
        3: (-2, 0.6), 4: (-3, 1), 5: (-1.3, 1.3),
        6: (2, 0.6), 7: (3, 1), 8: (1.3, 1.3),
        9: (-0.8, -2.5), 10: (0.8, -2.5),
    }
    return embed_planar(g, coords)


def rule_r4_fixture() -> EmbeddedGraph:
    # triangle with a degree-4 and a degree-5 end on the shared edge
    g = Graph(8, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
    coords = {
        0: (-1, 0), 1: (1, 0), 2: (0, -1.2),
        3: (-2, 0.5), 4: (-1.5, 1.2), 5: (2, 0.5), 6: (1.8, 1.2), 7: (1.2, 1.8),
    }
    return embed_planar(g, coords)


def rule_r5_fixture() -> EmbeddedGraph:
    # pentagon with a degree-3/degree-4 edge against the big outer face;
    # both unique off-edge neighbors on the pentagon are odd-degree (relaxed)
    g = Graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (4, 6), (2, 7), (1, 8), (1, 9)],
    )
    coords = {
        0: (-1.2, 0.8), 1: (1.2, 0.8), 2: (1.8, -0.8), 3: (0, -1.8), 4: (-1.8, -0.8),
        5: (-1.2, 2), 6: (-3, -1.2), 7: (3, -1.2), 8: (0.6, 2), 9: (1.8, 2),
    }
    return embed_planar(g, coords)


def rule_r6_fixture() -> EmbeddedGraph:
    # two pentagons sharing edge (0,4); the outer face reaches the second
    # pentagon via that edge; a triangle hangs off the second pentagon
    g = Graph(
        12,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
         (4, 5), (5, 6), (6, 7), (0, 7),
         (5, 9), (6, 9),
         (0, 8), (7, 10), (6, 11)],
    )
    coords = {
        0: (0, 0), 1: (-1.3, 0.3), 2: (-2, -0.7), 3: (-1.3, -1.7), 4: (0, -1.5),
        5: (1.3, -1.9), 6: (2.2, -0.7), 7: (1.2, 0.35),
        8: (0, 1.2), 9: (2.6, -1.7), 10: (1.6, 1.4), 11: (3.4, -0.4),
    }
    return embed_planar(g, coords)


def rule_r7_fixture() -> EmbeddedGraph:
    # 5-wheel: the hub has degree 5 and sits on five triangles
    return wheel_planar(5)


def rule_r8_fixture() -> EmbeddedGraph:
    # degree-6 hub whose six sector faces are pentagons; no triangles anywhere
    edges = []
    coords = {0: (0.0, 0.0)}
    corners = []
    for i in range(6):
        ang = 2 * math.pi * i / 6
        vid = 1 + i
        corners.append(vid)
        coords[vid] = (2 * math.cos(ang), 2 * math.sin(ang))
        edges.append((0, vid))
    nxt = 7
    for i in range(6):
        a, b = corners[i], corners[(i + 1) % 6]
        m1, m2 = nxt, nxt + 1
        nxt += 2
        ang1 = 2 * math.pi * (i + 1 / 3) / 6
        ang2 = 2 * math.pi * (i + 2 / 3) / 6
        coords[m1] = (2.3 * math.cos(ang1), 2.3 * math.sin(ang1))
        coords[m2] = (2.3 * math.cos(ang2), 2.3 * math.sin(ang2))
        edges.extend([(a, m1), (m1, m2), (m2, b)])
    return embed_planar(Graph(nxt, edges), coords)


# -- audit pattern fixtures ------------------------------------------------------


def lemma_4v_two_supported_graph() -> Graph:
    """A 4-vertex adjacent to two supported 3-vertices plus a relaxed vertex
    in its remaining closed neighborhood."""
    return Graph(
        9, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8)]
    )


def lemma_44_supported_graph() -> Graph:
    """Adjacent 4-vertices, each with two supported 3-vertex neighbors."""
    return Graph(
        16,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7),
         (2, 8), (2, 9), (3, 10), (3, 11), (5, 12), (5, 13), (6, 14), (6, 15)],
    )


def find_small_embedding(g: Graph, want_genus: int, want_orientable: bool) -> EmbeddedGraph:
    """Exhaustive scan for an embedding with a given exact genus and
    orientability; only usable for very small graphs."""
    from itertools import permutations, product

    per_vertex = []
    for v in range(g.n):
        nbrs = sorted(g.adj[v])
        if not nbrs:
            per_vertex.append([()])
        else:
            per_vertex.append([(nbrs[0],) + p for p in permutations(nbrs[1:])])
    for signs in product((1, -1), repeat=len(g.edges)):
        for rot in product(*per_vertex):
            emb = EmbeddedGraph(g, rot, signs)
            if emb.euler_genus == want_genus and emb.is_orientable() == want_orientable:
                return emb
    raise AssertionError(f"no embedding of genus {want_genus} found")


def grid_with_diagonals(w: int, h: int, seed: int) -> EmbeddedGraph:
    """w x h planar grid; each square gets one of its diagonals with
    probability 3/4 (the direction drawn at random), so faces are triangles
    and quadrilaterals bounded by an outer face, and degrees run from 2 to 8."""
    import random

    rng = random.Random(seed)
    edges = set()
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.add((v, v + 1))
            if y + 1 < h:
                edges.add((v, v + w))
            if x + 1 < w and y + 1 < h and rng.random() < 0.75:
                edges.add((v, v + w + 1) if rng.random() < 0.5 else (v + 1, v + w))
    g = Graph(w * h, edges)
    return embed_planar(g, {y * w + x: (x, y) for y in range(h) for x in range(w)})
