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
Euler genus 2 - (|V| - |E| + |F|) is well defined.  A face is the plain tuple
of its darts, rotated so that its smallest dart leads.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, girth

Dart = tuple[int, int]  # (tail vertex, edge index): one traversal step of a walk
# A face's closed boundary walk: its step i, a dart (v, e), traverses edge e
# away from tail v, whose head is the tail of step i + 1.  The corner at the
# tail of step i sits between the edges of steps i - 1 and i.
FaceWalk = tuple[Dart, ...]
_SIGNS = frozenset((1, -1))


def trace_faces(emb: EmbeddedGraph) -> tuple[FaceWalk, ...]:
    """Partition all darts of ``emb`` into face boundary walks.

    The next-dart rule is the rotation successor, reflected on the far side
    of a -1 edge.  A flag is a (vertex, rotation position, side) triple,
    numbered 2 * slot + side, where the slots count rotation positions vertex
    by vertex.  ``turn[f]`` is the corner turn of flag f (side 1 turns to
    the next position, side 0 to the previous one): two range slices give
    every turn within a vertex's slots, and one pass over the vertices
    wraps the turns at the ends of each.  One pass over the edges, which
    finds each dart's slot by the integer key tail * n + head, builds
    ``crossed[f]``, the flag across f's edge (the side flips on a +1 edge
    and stays on a -1 edge), and ``step[f]``, the corner turn from
    ``crossed[f]``.  Each face walk then follows ``step`` from the first
    unseen flag.
    """
    graph = emb.graph
    n = graph.n
    if n == 1 and not graph.edges:
        return ((),)

    keys = [v * n + w for v, order in enumerate(emb.rotation) for w in order]
    slots = len(keys)
    slot_of = dict(zip(keys, range(slots)))
    turn = [0] * (2 * slots)
    turn[0::2] = range(-1, 2 * slots - 1, 2)  # side 0 of slot s: side 1 of s - 1
    turn[1::2] = range(2, 2 * slots + 2, 2)  # side 1 of slot s: side 0 of s + 1
    first = 0
    for order in emb.rotation:
        last = first + len(order) - 1
        turn[2 * first] = 2 * last + 1
        turn[2 * last + 1] = 2 * first
        first = last + 1
    crossed = [0] * len(turn)
    darts: list = [None] * slots
    for e, ((a, b), sign) in enumerate(zip(graph.edges, emb.signs)):
        x, y = slot_of[a * n + b], slot_of[b * n + a]
        darts[x], darts[y] = (a, e), (b, e)
        flip = sign == 1
        crossed[2 * x], crossed[2 * x + 1] = 2 * y + flip, 2 * y + 1 - flip
        crossed[2 * y], crossed[2 * y + 1] = 2 * x + flip, 2 * x + 1 - flip
    step = [turn[c] for c in crossed]

    seen = bytearray(len(turn))
    faces: list[FaceWalk] = []
    for start in range(len(turn)):
        if seen[start]:
            continue
        walk: list[Dart] = []
        f = start
        while True:
            seen[f] = seen[crossed[f]] = 1
            walk.append(darts[f >> 1])
            f = step[f]
            if f == start:
                break
        # the smallest dart leads; the direction is the trace's
        k = walk.index(min(walk))
        faces.append(tuple(walk[k:] + walk[:k]))
    return tuple(faces)


class EmbeddedGraph:
    """A connected graph with a signed rotation system: a cyclic order of
    the neighbors of every vertex, and a sign per edge index (all +1 when
    ``signs`` is None).

    Both are checked against the graph on construction.  The faces are
    traced on the first read of ``faces`` or ``euler_genus`` and kept.
    """

    __slots__ = ("graph", "rotation", "signs", "_faces")

    def __init__(self, graph: Graph, rotation: Sequence[Sequence[int]], signs: Sequence[int] | None = None):
        if graph.n == 0:
            raise ValueError("an embedding needs at least one vertex; the graph has none")
        if len(rotation) != graph.n:
            raise ValueError("rotation must list every vertex")
        rot = tuple(map(tuple, rotation))
        for v, (order, nbrs) in enumerate(zip(rot, graph.adj)):
            if len(order) != len(nbrs) or nbrs != set(order):
                raise ValueError(f"rotation[{v}]: expected an order of the neighbors {sorted(nbrs)}, got {list(order)}")
        signs = (1,) * len(graph.edges) if signs is None else tuple(signs)
        if len(signs) != len(graph.edges):
            raise ValueError(f"signs: expected {len(graph.edges)} entries, one per edge, got {len(signs)}")
        if not _SIGNS.issuperset(signs):
            i, s = next((i, s) for i, s in enumerate(signs) if s not in _SIGNS)
            raise ValueError(f"signs[{i}]: expected 1 or -1, got {s}")
        if not graph.is_connected():
            raise ValueError("face tracing needs a connected graph")
        self.graph = graph
        self.rotation: tuple[tuple[int, ...], ...] = rot
        self.signs: tuple[int, ...] = signs
        self._faces: tuple[FaceWalk, ...] | None = None

    @property
    def faces(self) -> tuple[FaceWalk, ...]:
        if self._faces is None:
            self._faces = trace_faces(self)
        return self._faces

    @property
    def euler_genus(self) -> int:
        return 2 - (self.graph.n - len(self.graph.edges) + len(self.faces))

    def is_orientable(self) -> bool:
        # switching each vertex by its flip, 0 or 1, leaves the spanning tree
        # +1; the embedding is orientable exactly when no edge is then -1
        g = self.graph
        flip = [0] * g.n
        for u, w in _spanning_tree(g):
            flip[w] = flip[u] ^ (self.signs[g.edge_index((u, w))] == -1)
        return all((s == -1) == (flip[u] != flip[v]) for (u, v), s in zip(g.edges, self.signs))


def sorted_rotation(graph: Graph, signs: Sequence[int] | None = None) -> EmbeddedGraph:
    """The embedding whose rotation lists neighbors in increasing order."""
    return EmbeddedGraph(graph, [sorted(graph.adj[v]) for v in range(graph.n)], signs)


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


# -- embedding search --------------------------------------------------------


def _face_search(
    g: Graph, min_faces: int, min_len: int, free: frozenset[int] = frozenset()
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
    """Depth-first search over signed rotation systems, building faces dart
    by dart on an explicit stack; returns the (rotation, signs) pair of the
    first embedding with ``min_faces`` faces, or None.

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
    Complete up to mirror images: an embedding and its mirror (rotations
    reversed, signs kept) walk the first face alike up to its first vertex z
    of degree >= 3 and leave z by different darts, so skipping the largest
    there keeps the earlier of the two.  Of each mirror pair, under every
    choice of the free signs, exactly one corresponds to a search path.
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

    # per-dart rotation links: succ[a] = b and pred[b] = a when sigma(a) = b,
    # -1 when unset.  The links at a vertex form paths until the last one
    # closes them into a single cycle through all its darts.
    succ = [-1] * (2 * m)
    pred = [-1] * (2 * m)

    def link(a: int, b: int) -> bool:
        """Set sigma(a) = b, unless a already has a successor, b already has
        a predecessor, or the link would close a cycle through fewer than
        all the darts at tail(a).  b has no predecessor, so the walk from b
        along succ ends, after at most deg - 1 steps, at the end of b's
        path; the link closes a cycle exactly when that end is a."""
        if succ[a] != -1 or pred[b] != -1:
            return False
        end, size = b, 1
        while succ[end] != -1:
            end = succ[end]
            size += 1
        if end == a and size != deg[tail[a]]:
            return False
        succ[a] = b
        pred[b] = a
        return True

    # state s < total walks dart s with eps = +1, state s >= total walks
    # dart s - total with eps = -1
    total = 2 * m
    used = [False] * (2 * total)

    # the mirror cut: walk the forced first face from dart 0 to z, ``at``
    # darts; a walk that closes first never meets z and gets no cut
    at, cut, d = -1, (), 0
    for count in range(1, total + 1):
        w, a = head[d], rev[d]
        if deg[w] >= 3:
            top = max(b for b in out_darts[w] if b != a)
            at, cut = count, [b for b in out_darts[w] if b != top]
            break
        d = next((b for b in out_darts[w] if b != a), a)

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
        for b in cut if faces_done == 0 and used_count == at else out_darts[head[d]]:
            s = b + offset
            x, y = (a, b) if forward else (b, a)
            if s == start:
                if link(x, y):
                    yield begin(faces_done + 1, used_count, start) if used_count < total else None
                    succ[x] = pred[y] = -1
            elif not used[s] and dist.get(head[b], far) <= slack and link(x, y):
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
                succ[x] = pred[y] = -1

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
    return tuple(rotation), tuple(sign)


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
    BFS distance, within the darts the other faces leave it.  Each run
    searches exactly one of each mirror pair of rotation systems.
    Exponential in general; practical for small graphs.
    """
    if max_genus not in (0, 1, 2):
        raise ValueError("max_genus must be 0, 1, or 2")
    if not g.is_connected():
        raise ValueError("embed_search needs a connected graph")
    m = len(g.edges)
    if g.n <= 1 or m == g.n - 1:
        # trees always embed in the sphere; any rotation works
        return sorted_rotation(g)
    # every face walk of a connected graph that is not a tree holds a cycle
    min_len = girth(g)
    # every embedding of any kind satisfies F <= 2E / (minimum face length),
    # and a sphere embedding has E - V + 2 faces, one more per unit of genus
    sphere_faces = m - g.n + 2
    if sphere_faces - (2 * m) // min_len > max_genus:
        return None
    # orientable surfaces have even Euler genus
    orient_target = max_genus - max_genus % 2
    found = _face_search(g, sphere_faces - orient_target, min_len)
    if found is None and max_genus >= 1:
        tree = {g.edge_index(t) for t in _spanning_tree(g)}
        free = frozenset(e for e in range(m) if e not in tree)
        found = _face_search(g, sphere_faces - max_genus, min_len, free)
    if found is None:
        return None
    emb = EmbeddedGraph(g, *found)
    if emb.euler_genus > max_genus:
        raise AssertionError("face search returned a too-large genus")
    return emb
