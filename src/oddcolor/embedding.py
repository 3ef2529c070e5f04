"""Combinatorial maps: rotation systems with edge signatures.

An embedding of a connected simple graph is described by a cyclic order of
neighbors around every vertex plus a sign in {+1, -1} per edge; -1 marks
orientation-reversing edges, which is what makes non-orientable surfaces
(projective plane, Klein bottle) expressible with a single formalism.

Faces are traced with the flag construction: every (vertex, edge) incidence
carries two flags, one per corner side, and the two involutions "turn the
corner" and "cross the edge" generate orbits that are exactly the face
boundary walks.  Each edge contributes two darts overall and every dart lands
in exactly one face walk, so the face lengths always sum to 2|E| and the
Euler genus 2 - (|V| - |E| + |F|) is well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, girth

Dart = tuple[int, int]  # (tail vertex, edge index): one traversal step of a walk


class RotationSystem:
    """Per-vertex cyclic neighbor order plus a sign per edge index."""

    __slots__ = ("rotation", "signs")

    def __init__(self, graph: Graph, rotation: Sequence[Sequence[int]], signs: Sequence[int] | None = None):
        if len(rotation) != graph.n:
            raise ValueError("rotation must list every vertex")
        rot = []
        for v in range(graph.n):
            order = tuple(int(w) for w in rotation[v])
            if sorted(order) != sorted(graph.adj[v]):
                raise ValueError(f"rotation[{v}]: expected an order of the neighbors {sorted(graph.adj[v])}, got {list(order)}")
            rot.append(order)
        if signs is None:
            signs = (1,) * len(graph.edges)
        signs = tuple(int(s) for s in signs)
        if len(signs) != len(graph.edges):
            raise ValueError(f"signs: expected {len(graph.edges)} entries, one per edge, got {len(signs)}")
        for i, s in enumerate(signs):
            if s not in (-1, 1):
                raise ValueError(f"signs[{i}]: expected 1 or -1, got {s}")
        self.rotation: tuple[tuple[int, ...], ...] = tuple(rot)
        self.signs: tuple[int, ...] = signs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RotationSystem)
            and self.rotation == other.rotation
            and self.signs == other.signs
        )

    def __hash__(self) -> int:
        return hash((self.rotation, self.signs))


def sorted_rotation(graph: Graph, signs: Sequence[int] | None = None) -> RotationSystem:
    """The canonical rotation listing neighbors in increasing order."""
    return RotationSystem(graph, [sorted(graph.adj[v]) for v in range(graph.n)], signs)


@dataclass(frozen=True)
class FaceWalk:
    """Boundary walk of one face, as a cyclic dart sequence.

    ``darts[i] = (v, e)`` traverses edge ``e`` away from tail ``v``; the walk
    is closed, so the head of step i is the tail of step i+1.  The corner at
    tail ``v`` of step i sits between the arrival edge of step i-1 and the
    departure edge of step i.
    """

    darts: tuple[Dart, ...]

    @property
    def length(self) -> int:
        return len(self.darts)

    def walk_edges(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.darts)

    def edge_set(self) -> frozenset[int]:
        return frozenset(e for _, e in self.darts)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.darts)


def _canonical_walk(darts: list[Dart]) -> FaceWalk:
    # rotate so the lexicographically smallest dart leads; direction is
    # whatever the trace produced (deterministic)
    if not darts:
        return FaceWalk(())
    k = darts.index(min(darts))
    return FaceWalk(tuple(darts[k:] + darts[:k]))


def trace_faces(graph: Graph, rot: RotationSystem) -> tuple[FaceWalk, ...]:
    """Partition all darts into face boundary walks.

    The next-dart rule is the rotation successor, reflected on the far side
    of a -1 edge: concretely, flags (vertex, position, side) are advanced by
    alternating the corner involution with the edge-crossing involution.
    Edge indices come from a per-vertex position -> edge table built once.
    """
    if not graph.is_connected():
        raise ValueError("face tracing needs a connected graph")
    if graph.n == 1 and not graph.edges:
        return (FaceWalk(()),)

    pos_of = [
        {w: i for i, w in enumerate(rot.rotation[v])} for v in range(graph.n)
    ]
    edge_at = [[graph.edge_index((v, w)) for w in order] for v, order in enumerate(rot.rotation)]

    def cross(v: int, p: int, s: int) -> tuple[int, int, int]:
        w = rot.rotation[v][p]
        s2 = s ^ 1 if rot.signs[edge_at[v][p]] == 1 else s
        return (w, pos_of[w][v], s2)

    def corner(v: int, p: int, s: int) -> tuple[int, int, int]:
        d = len(rot.rotation[v])
        if s == 1:
            return (v, (p + 1) % d, 0)
        return (v, (p - 1) % d, 1)

    seen: set[tuple[int, int, int]] = set()
    faces: list[FaceWalk] = []
    all_flags = [
        (v, p, s)
        for v in range(graph.n)
        for p in range(len(rot.rotation[v]))
        for s in (0, 1)
    ]
    for start in all_flags:
        if start in seen:
            continue
        walk: list[Dart] = []
        flag = start
        while True:
            seen.add(flag)
            v, p, _ = flag
            walk.append((v, edge_at[v][p]))
            crossed = cross(*flag)
            seen.add(crossed)
            flag = corner(*crossed)
            if flag == start:
                break
        faces.append(_canonical_walk(walk))
    return tuple(faces)


class EmbeddedGraph:
    """A graph together with a rotation system and its traced faces."""

    __slots__ = ("graph", "rotation", "faces", "_side_faces")

    def __init__(self, graph: Graph, rotation: RotationSystem):
        self.graph = graph
        self.rotation = rotation
        self.faces: tuple[FaceWalk, ...] = trace_faces(graph, rotation)
        sides: list[list[int]] = [[] for _ in graph.edges]
        for fi, f in enumerate(self.faces):
            for e in f.walk_edges():
                sides[e].append(fi)
        # every edge has exactly two sides
        assert all(len(s) == 2 for s in sides)
        self._side_faces: tuple[tuple[int, int], ...] = tuple(
            (s[0], s[1]) for s in sides
        )

    @property
    def euler_genus(self) -> int:
        return 2 - (self.graph.n - len(self.graph.edges) + len(self.faces))

    def side_faces(self, e: int) -> tuple[int, int]:
        """The two faces carrying the sides of edge index ``e``."""
        return self._side_faces[e]

    def is_orientable(self) -> bool:
        # after contracting a spanning tree, orientability is the product of
        # signs over every cycle; equivalently no cycle has an odd number of
        # -1 edges
        n = self.graph.n
        if n == 0:
            return True
        mark: dict[int, int] = {0: 0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.graph.adj[u]:
                s = 0 if self.rotation.signs[self.graph.edge_index((u, w))] == 1 else 1
                if w not in mark:
                    mark[w] = mark[u] ^ s
                    stack.append(w)
                elif mark[w] != mark[u] ^ s:
                    return False
        return True


# -- signature normalization -------------------------------------------------


def _spanning_tree(g: Graph) -> list[tuple[int, int]]:
    """(parent, child) edges of a depth-first spanning tree rooted at 0, in
    discovery order, neighbors scanned in increasing order."""
    tree = []
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for w in sorted(g.adj[u]):
            if not seen[w]:
                seen[w] = True
                tree.append((u, w))
                stack.append(w)
    return tree


def normalize_signatures(e: EmbeddedGraph) -> EmbeddedGraph:
    """Switch vertices so every spanning-tree edge gets sign +1.

    Switching at v reverses the rotation of v and flips the sign of all its
    incident edges; the face structure and genus are unchanged.  When no
    vertex needs switching, ``e`` itself is returned, with no new face
    trace; ``embed_search`` results are always in that case.
    """
    g = e.graph
    if g.n == 0:
        return e
    flip = [0] * g.n
    for u, w in _spanning_tree(g):
        s = e.rotation.signs[g.edge_index((u, w))]
        flip[w] = flip[u] ^ (1 if s == -1 else 0)
    if not any(flip):
        return e
    new_signs = []
    for i, (u, v) in enumerate(g.edges):
        s = e.rotation.signs[i]
        if (flip[u] + flip[v]) % 2 == 1:
            s = -s
        new_signs.append(s)
    new_rot = [
        tuple(reversed(e.rotation.rotation[v])) if flip[v] else e.rotation.rotation[v]
        for v in range(g.n)
    ]
    return EmbeddedGraph(g, RotationSystem(g, new_rot, new_signs))


# -- embedding search --------------------------------------------------------


def _min_face_length(g: Graph) -> int:
    if len(g.edges) == 1:
        return 2
    if all(g.degree(v) >= 2 for v in range(g.n)):
        gi = girth(g)
        if gi is not math.inf:
            return int(gi)
    return 3


def _face_search(
    g: Graph, min_faces: int, min_len: int, free: frozenset[int] = frozenset()
) -> RotationSystem | None:
    """Depth-first search over signed rotation systems, building faces dart
    by dart on an explicit stack.

    A walk state is a dart plus the local orientation eps it is walked in.
    Arriving at w over edge e with eps' = eps * sign(e), the search chooses
    the next dart b at w: the rotation successor of the return dart a when
    eps' = +1 (sigma(a) = b), its predecessor when eps' = -1 (sigma(b) = a).
    Each edge side is walked once, so a state is marked used together with
    its mirror, the same side walked backwards.  Edges in ``free`` get their
    sign, +1 then -1, when a walk first crosses them; all others are +1.  A
    face closes when the walk returns to its starting state.  Prunes with
    the bound faces_done + remaining_sides // min_len < min_faces, where
    ``min_len`` is a lower bound on every face length, and looks ahead: a
    face opened at root v may close with at most
    limit = total - (min_faces - faces_done - 1) * min_len darts in use, so
    an open walk steps onto dart b only if
    used_count + 1 + dist(head(b), v) <= limit.  Distances come from one BFS
    ball per root, built when a face first opens there and cut at the
    longest face the target allows.  Both bounds cut only subtrees that hold
    no embedding with min_faces faces, so the search returns the first such
    embedding in search order, as it would unpruned.
    Complete: every rotation system, under every choice of the free signs,
    corresponds to exactly one search path.
    """
    n = g.n
    m = len(g.edges)
    darts: list[tuple[int, int]] = []
    for u, v in g.edges:
        darts.append((u, v))
        darts.append((v, u))
    darts.sort()
    idx = {d: i for i, d in enumerate(darts)}
    rev = [idx[(v, u)] for (u, v) in darts]
    head = [v for (_, v) in darts]
    tail = [u for (u, _) in darts]
    edge_of = [g.edge_index(d) for d in darts]
    out_darts: list[list[int]] = [[] for _ in range(n)]
    for i, (u, _) in enumerate(darts):
        out_darts[u].append(i)
    deg = [g.degree(v) for v in range(n)]
    sign = [0 if e in free else 1 for e in range(m)]  # 0: not chosen yet
    # signs to try, indexed by sign[e]: an open edge (0) tries both, a set
    # one (+1, or -1 as the last index) keeps its own
    choices = ((1, -1), (1,), (-1,))

    # per-dart successor within its vertex rotation; chain bookkeeping keeps
    # each vertex a single cycle
    succ: list[int | None] = [None] * (2 * m)
    has_pred = [False] * (2 * m)
    chain_head = {i: i for i in range(2 * m)}  # tail dart -> head of its chain
    chain_tail = {i: i for i in range(2 * m)}  # head dart -> tail of its chain
    chain_size = {i: 1 for i in range(2 * m)}  # keyed by head dart

    def try_assign(a: int, b: int):
        """sigma(a) = b; returns an undo token or None if illegal."""
        if succ[a] is not None or has_pred[b]:
            return None
        ha = chain_head[a]
        if ha == b:
            if chain_size[b] != deg[tail[a]]:
                return None  # would close a proper sub-cycle of the rotation
            succ[a] = b
            has_pred[b] = True
            del chain_head[a]
            del chain_tail[b]
            return ("close", a, b)
        tb = chain_tail[b]
        succ[a] = b
        has_pred[b] = True
        del chain_head[a]
        del chain_tail[b]
        chain_head[tb] = ha
        chain_tail[ha] = tb
        old = chain_size.pop(b)
        chain_size[ha] += old
        return ("merge", a, b, tb, ha, old)

    def undo(token) -> None:
        if token[0] == "close":
            _, a, b = token
            succ[a] = None
            has_pred[b] = False
            chain_head[a] = b
            chain_tail[b] = a
        else:
            _, a, b, tb, ha, old = token
            succ[a] = None
            has_pred[b] = False
            chain_size[ha] -= old
            chain_size[b] = old
            chain_head[tb] = b
            chain_head[a] = ha
            chain_tail[b] = tb
            chain_tail[ha] = a

    # state s < total walks dart s with eps = +1, state s >= total walks
    # dart s - total with eps = -1
    total = 2 * m
    used = [False] * (2 * total)

    # A walk standing at w needs at least dist(w, root) more darts to close.
    # Balls are cut at the longest face the target allows, less the two darts
    # a walk holds when it is tested, so a vertex outside one counts as
    # ``far``, which prunes as its true distance would.
    reach = total - (min_faces - 1) * min_len - 2
    far = reach + 1
    balls: dict[int, dict[int, int]] = {}

    def ball(v: int) -> dict[int, int]:
        dist = {v: 0}
        frontier = [v]
        for d in range(1, reach + 1):
            if not frontier:
                break
            nxt = []
            for u in frontier:
                for w in g.adj[u]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    # Each node of the search is a generator that yields its children, also
    # generators, in search order, and restores the state it changed when
    # resumed.  Only children that pass the bound are yielded.  A child that
    # closes a face always passes, since its bound is the one its parent
    # passed; closing the last face yields None.  Entering a state marks it
    # and its mirror, after choosing the sign of its edge if that is open.
    def begin(faces_done: int, used_count: int, after: int):
        """Open a face at the first unused state past ``after``, the start
        of the previous face: every state before it is in use."""
        if faces_done + 1 + (total - used_count - 1) // min_len < min_faces:
            return
        s = after + 1
        while used[s]:
            s += 1
        plus = s < total  # eps = +1 at the start
        b = s if plus else s - total
        root = tail[b]
        dist = balls.get(root)
        if dist is None:
            dist = balls[root] = ball(root)
        # the most darts in use once this face closes that still leave
        # min_len darts for each face still missing
        limit = total - (min_faces - faces_done - 1) * min_len
        e = edge_of[b]
        was = sign[e]
        for sg in choices[was]:
            sign[e] = sg
            ahead = plus == (sg == 1)
            mirror = rev[b] + total if ahead else rev[b]
            used[s] = used[mirror] = True
            yield extend(faces_done, used_count + 1, s, b, ahead, dist, limit)
            used[s] = used[mirror] = False
        sign[e] = was

    def extend(
        faces_done: int, used_count: int, start: int, d: int, forward: bool,
        dist: dict[int, int], limit: int,
    ):
        """Continue an open walk whose last dart is d, arriving at head(d)
        with eps' = +1 iff ``forward``; ``dist`` is the ball of the face's
        root and ``limit`` the most darts in use when the face closes."""
        slack = limit - used_count - 1  # darts left to close after one more
        offset = 0 if forward else total
        a = rev[d]  # the return dart
        for b in out_darts[head[d]]:
            s = b + offset
            if s == start:
                token = try_assign(a, b) if forward else try_assign(b, a)
                if token is not None:
                    yield begin(faces_done + 1, used_count, start) if used_count < total else None
                    undo(token)
            elif not used[s] and dist.get(head[b], far) <= slack:
                token = try_assign(a, b) if forward else try_assign(b, a)
                if token is not None:
                    e = edge_of[b]
                    was = sign[e]
                    for sg in choices[was]:
                        sign[e] = sg
                        ahead = forward == (sg == 1)
                        mirror = rev[b] + total if ahead else rev[b]
                        used[s] = used[mirror] = True
                        yield extend(faces_done, used_count + 1, start, b, ahead, dist, limit)
                        used[s] = used[mirror] = False
                    sign[e] = was
                    undo(token)

    stack = [begin(0, 0, -1)]
    push, pop = stack.append, stack.pop
    while stack:
        for child in stack[-1]:
            break
        else:  # no children left
            pop()
            continue
        if child is None:
            break
        push(child)
    # extend refers to itself and to begin, which refers back: break the
    # cycle, so the search state is freed on return and not at the next
    # full garbage collection
    del begin, extend
    if not stack:
        return None

    rotation = []
    for v in range(n):
        if not out_darts[v]:
            rotation.append(())
            continue
        first = out_darts[v][0]
        order = [head[first]]
        d = succ[first]
        while d != first:
            order.append(head[d])
            d = succ[d]
        rotation.append(tuple(order))
    return RotationSystem(g, rotation, sign)


def embed_search(g: Graph, max_genus: int) -> EmbeddedGraph | None:
    """Find any 2-cell embedding of Euler genus <= max_genus, or None.

    Exhaustive and deterministic.  One face-driven search runs at most
    twice.  The first run fixes every sign to +1, so it decides the
    orientable surfaces of Euler genus <= max_genus.  If that fails and
    max_genus >= 1, the second run leaves free the signs of the edges
    outside one spanning tree.  That covers every surface: switching
    vertices turns any embedding into one whose tree edges are all +1.
    Each run needs F = E - V + 2 - eg faces, each at least the girth long,
    and prunes an open face walk that cannot return to its first vertex, by
    BFS distance, within the darts the other faces leave it.
    Exponential in general; practical for small graphs.
    """
    if max_genus not in (0, 1, 2):
        raise ValueError("max_genus must be 0, 1, or 2")
    if not g.is_connected():
        raise ValueError("embed_search needs a connected graph")
    m = len(g.edges)
    if g.n <= 1 or m == g.n - 1:
        # trees always embed in the sphere; any rotation works
        return EmbeddedGraph(g, sorted_rotation(g))
    min_len = _min_face_length(g)
    # every embedding of any kind satisfies F <= 2E / (minimum face length),
    # and a sphere embedding has E - V + 2 faces, one more per unit of genus
    sphere_faces = m - g.n + 2
    if sphere_faces - (2 * m) // min_len > max_genus:
        return None
    # orientable surfaces have even Euler genus
    orient_target = max_genus - max_genus % 2
    rot = _face_search(g, sphere_faces - orient_target, min_len)
    if rot is None and max_genus >= 1:
        tree = {g.edge_index(t) for t in _spanning_tree(g)}
        free = frozenset(e for e in range(m) if e not in tree)
        rot = _face_search(g, sphere_faces - max_genus, min_len, free)
    if rot is None:
        return None
    emb = EmbeddedGraph(g, rot)
    if emb.euler_genus > max_genus:
        raise AssertionError("face search returned a too-large genus")
    return emb
