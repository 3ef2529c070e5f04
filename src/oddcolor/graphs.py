"""Simple graphs, short-cycle machinery, and the relaxation hypothesis check.

Vertices are dense integers ``0..n-1``.  Edges are unordered pairs stored as
sorted tuples, kept in lexicographic order.  A *relaxation set* (R set) is a
subset of the edge set; edges of R count twice in the weighted cycle length
r_length(C) = |E(C)| + |E(C) ∩ R|, and a vertex is *R-relaxed* when its degree
is odd or zero, or when it is incident with an R edge.

The hypothesis check implemented here accepts exactly the graphs whose cycles
avoid r-lengths 3, 4, and 6 and in which no two cycles of r-length 5 share
exactly one edge.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

Edge = tuple[int, int]
RSet = frozenset  # frozenset[Edge]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the pair sorted; loops are rejected."""
    if u == v:
        raise ValueError(f"loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    Immutable after construction.  ``edges`` is a tuple of sorted pairs in
    lexicographic order; ``adj[v]`` is the frozen neighbor set of ``v``.
    """

    __slots__ = ("n", "edges", "adj", "_edge_pos")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            e = normalize_edge(int(u), int(v))
            if not (0 <= e[0] and e[1] < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            norm.add(e)
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(norm))
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in nbrs)
        self._edge_pos = {e: i for i, e in enumerate(self.edges)}

    # -- basic queries -----------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and v in self.adj[u]

    def edge_index(self, e: Edge) -> int:
        return self._edge_pos[normalize_edge(*e)]

    def check_vertex(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise ValueError(f"unknown vertex {v}")
        return v

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, sorted by minimum."""
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def remove_vertex(self, v: int) -> tuple["Graph", dict[int, int]]:
        """Return (G - v, old->new vertex relabeling keeping ids dense)."""
        self.check_vertex(v)
        relabel = {w: (w if w < v else w - 1) for w in range(self.n) if w != v}
        edges = [(relabel[a], relabel[b]) for a, b in self.edges if v not in (a, b)]
        return Graph(self.n - 1, edges), relabel

    def add_edge(self, u: int, v: int) -> "Graph":
        e = normalize_edge(u, v)
        if e in self._edge_pos:
            raise ValueError(f"edge {e} already present")
        return Graph(self.n, self.edges + (e,))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


# -- named constructors ----------------------------------------------------


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def r_set(g: Graph, edges: Iterable[tuple[int, int]]) -> RSet:
    """Validate a relaxation set: every member must be an edge of ``g``."""
    out = set()
    for u, v in edges:
        e = normalize_edge(u, v)
        if e not in g._edge_pos:
            raise ValueError(f"relaxation edge {e} is not an edge of the graph")
        out.add(e)
    return frozenset(out)


def r_set_from_indices(g: Graph, indices: Iterable[int]) -> RSet:
    """Relaxation set given as indices into the sorted edge list."""
    out = set()
    for i in indices:
        if not 0 <= i < len(g.edges):
            raise ValueError(f"edge index {i} out of range")
        out.add(g.edges[i])
    return frozenset(out)


# -- cycles ----------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """A simple cycle given by its vertex sequence (length >= 3).

    The canonical form starts at the smallest vertex and proceeds toward its
    smaller cycle-neighbor, which makes equal cycles compare equal under
    rotation and reflection.
    """

    vertices: tuple[int, ...]

    @property
    def edge_set(self) -> frozenset[Edge]:
        vs = self.vertices
        return frozenset(
            normalize_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))
        )

    def __len__(self) -> int:
        return len(self.vertices)


def canonical_cycle(seq: Iterable[int]) -> Cycle:
    """Canonicalize a vertex sequence under rotation and reflection."""
    vs = tuple(seq)
    if len(vs) < 3:
        raise ValueError("cycles have at least 3 vertices")
    if len(set(vs)) != len(vs):
        raise ValueError("cycle vertices must be pairwise distinct")
    k = vs.index(min(vs))
    rot = vs[k:] + vs[:k]
    rev = (rot[0],) + tuple(reversed(rot[1:]))
    return Cycle(rot if rot <= rev else rev)


def cycle_in(g: Graph, seq: Iterable[int]) -> Cycle:
    """Validate ``seq`` as a cycle of ``g`` and return it canonicalized."""
    c = canonical_cycle(seq)
    vs = c.vertices
    for i, u in enumerate(vs):
        g.check_vertex(u)
        v = vs[(i + 1) % len(vs)]
        if not g.has_edge(u, v):
            raise ValueError(f"consecutive vertices {u},{v} are not adjacent")
    return c


def r_length(c: Cycle, r: RSet) -> int:
    """|E(C)| + |E(C) ∩ R|: relaxation edges count twice."""
    es = c.edge_set
    return len(es) + len(es & r)


def is_r_relaxed(v: int, g: Graph, r: RSet) -> bool:
    """True iff deg(v) is odd or 0, or v is incident with a relaxation edge."""
    g.check_vertex(v)
    d = g.degree(v)
    if d == 0 or d % 2 == 1:
        return True
    return any(v in e for e in r)


def relaxed_flags(g: Graph, r: RSet) -> list[bool]:
    """is_r_relaxed for every vertex, from one pass over r."""
    ends = {v for e in r for v in e}
    return [g.degree(v) % 2 == 1 or not g.adj[v] or v in ends for v in range(g.n)]


def enumerate_cycles(g: Graph, max_edge_count: int) -> list[Cycle]:
    """All simple cycles with at most ``max_edge_count`` edges, each once.

    Each cycle is produced exactly once up to rotation and reflection: the
    search roots every cycle at its smallest vertex and fixes the direction
    by requiring second vertex < last vertex.  Output is in lexicographic
    order of the canonical vertex sequences.

    A BFS from each root s over the vertices above it, to radius
    ``max_edge_count // 2``, prunes exactly: a path is extended to w only if
    ``len(path) + dist[w]`` still fits the bound, so the cost is the paths
    that can close, not all paths.  Runs on an explicit stack.
    """
    if max_edge_count < 3:
        raise ValueError("max_edge_count must be at least 3")
    out: list[Cycle] = []
    adj_sorted = [sorted(g.adj[v]) for v in range(g.n)]
    far = max_edge_count + 1  # no cycle within the bound passes there
    dist = [far] * g.n  # to the root, through vertices above it; far on the path
    for s in range(g.n):
        reached, frontier = [s], [s]
        for d in range(1, max_edge_count // 2 + 1):
            nxt = []
            for u in frontier:
                for w in adj_sorted[u]:
                    if w > s and dist[w] == far:
                        dist[w] = d
                        nxt.append(w)
            reached += nxt
            frontier = nxt
        path = [s]
        saved = [far]  # dist of each path vertex before it joined the path
        stack = [iter(adj_sorted[s])]
        while stack:
            for w in stack[-1]:
                d = dist[w]
                if len(path) + d <= max_edge_count:
                    path.append(w)
                    if d == 1 and len(path) >= 3 and path[1] < w:
                        out.append(Cycle(tuple(path)))
                    saved.append(d)
                    dist[w] = far
                    stack.append(iter(adj_sorted[w]))
                    break
            else:
                stack.pop()
                dist[path.pop()] = saved.pop()
        for w in reached:
            dist[w] = far
    return out


def edge_sharing_pairs(cycles: list[Cycle]) -> Iterator[tuple[int, int, list[Edge]]]:
    """(i, j, shared edges, sorted) for every pair i < j of ``cycles`` that
    share an edge, in (i, j) order.

    Each cycle meets the later cycles through an edge -> cycles index, so the
    cost is the number of (edge, cycle, cycle) incidences, not of pairs.
    """
    edge_lists = [sorted(c.edge_set) for c in cycles]
    holders: dict[Edge, list[int]] = {}
    for i, es in enumerate(edge_lists):
        for e in es:
            holders.setdefault(e, []).append(i)
    for i, es in enumerate(edge_lists):
        shared: dict[int, list[Edge]] = {}
        for e in es:
            on_e = holders[e]
            for j in on_e[bisect_right(on_e, i):]:
                shared.setdefault(j, []).append(e)
        for j in sorted(shared):
            yield i, j, shared[j]


def girth(g: Graph) -> int | float:
    """Minimum cycle edge count; ``math.inf`` for forests.

    One BFS per root vertex.  Each non-tree edge (u, w) met closes a walk
    through the root of dist[u] + dist[w] + 1 edges, which holds a cycle at
    most that long.  Every cycle through the root has a non-tree edge, and
    on each of its edges that sum is at most the cycle's length, so after
    the BFS the best so far is at most the shortest cycle through the root.
    Past depth d every new edge closes at least 2d + 1 edges, so a root's
    BFS stops once that reaches the best so far.  The root is then deleted,
    as no shorter cycle runs through it, and so are the vertices left with
    degree <= 1, which lie on no cycle.
    """
    best: int | float = math.inf
    deg = [len(a) for a in g.adj]
    gone = [False] * g.n
    for root in range(g.n):
        if gone[root]:
            continue
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        d = 0
        while frontier and 2 * d + 1 < best:
            nxt = []
            for u in frontier:
                for w in g.adj[u]:
                    if w == parent[u] or gone[w]:
                        continue
                    if w in dist:
                        best = min(best, d + dist[w] + 1)
                    else:
                        dist[w] = d + 1
                        parent[w] = u
                        nxt.append(w)
            frontier = nxt
            d += 1
        gone[root] = True
        peel = [root]
        while peel:
            for w in g.adj[peel.pop()]:
                if not gone[w]:
                    deg[w] -= 1
                    if deg[w] <= 1:
                        gone[w] = True
                        peel.append(w)
    return best


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the relaxed-cycle hypothesis check with witnesses."""

    passes: bool
    forbidden_cycles: tuple[tuple[Cycle, int], ...]  # (cycle, r_length in {3,4,6})
    five_pairs: tuple[tuple[Cycle, Cycle, Edge], ...]  # r-length-5 pair, shared edge

    def to_json(self) -> dict:
        return {
            "passes": self.passes,
            "forbidden_cycles": [
                {"cycle": list(c.vertices), "r_length": L}
                for c, L in self.forbidden_cycles
            ],
            "five_pairs": [
                {"cycle_a": list(a.vertices), "cycle_b": list(b.vertices), "shared_edge": list(e)}
                for a, b, e in self.five_pairs
            ],
        }


def hypothesis_check(g: Graph, r: RSet) -> HypothesisReport:
    """Check the two cycle conditions of the relaxed coloring theorem.

    (a) no cycle has r-length 3, 4, or 6; (b) no two distinct cycles of
    r-length 5 share exactly one edge.  Since r_length(C) >= |E(C)|, cycles
    with more than 6 edges are irrelevant to (a), and r-length-5 cycles have
    at most 5 edges, so enumerating cycles of up to 6 edges is exhaustive.

    (b) pairs the r-length-5 cycles through an edge index: its cost is the
    number of (edge, cycle, cycle) incidences, not all pairs of cycles.
    """
    cycles = enumerate_cycles(g, 6)
    forbidden = []
    fives = []
    for c in cycles:
        L = r_length(c, r)
        if L in (3, 4, 6):
            forbidden.append((c, L))
        elif L == 5:
            fives.append(c)
    pairs = [
        (fives[i], fives[j], shared[0])
        for i, j, shared in edge_sharing_pairs(fives)
        if len(shared) == 1
    ]
    return HypothesisReport(
        passes=not forbidden and not pairs,
        forbidden_cycles=tuple(forbidden),
        five_pairs=tuple(pairs),
    )


def one_subdivision(h: Graph) -> Graph:
    """Replace every edge uv by a length-2 path u-w-v through a fresh vertex.

    Edge i of the sorted edge list gets subdivision vertex ``h.n + i``, so
    the output has |V|+|E| vertices and 2|E| edges.
    """
    edges = []
    for i, (u, v) in enumerate(h.edges):
        w = h.n + i
        edges.append((u, w))
        edges.append((w, v))
    return Graph(h.n + len(h.edges), edges)
