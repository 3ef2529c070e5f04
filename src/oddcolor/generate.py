"""Random generation of connected high-girth test instances.

Instances are produced by randomized edge addition with girth rejection:
candidate edges are shuffled and added only when the endpoints are still far
enough apart, then the graph is trimmed to the largest component of its
2-core so that every surviving vertex has degree at least 2.  Everything is
driven by one seeded generator, so output is reproducible per seed.

"Far enough apart" means more than ``min_girth - 2``, and it is read off
distance balls that meet in the middle.  Each vertex keeps two bitmasks: the
vertices within p = (min_girth - 2) // 2 of it, and those within
q = min_girth - 2 - p.  Two endpoints are too close exactly when some vertex
lies within p of one and within q of the other, so refusing a candidate is
one AND of two masks.  Only an accepted edge pays for a BFS, from each end to
depth q - 1, which grows the balls it shortens; at about half the radius of
one ball of radius ``min_girth - 2``, it reaches far fewer vertices.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from .graphs import Graph, girth

ATTEMPTS_PER_INSTANCE = 60


class GenerationBudgetError(RuntimeError):
    """The requested number of instances was not reached within the budget."""


def _balls(adj: list[set[int]], s: int, depth: int) -> tuple[list[list[int]], list[int]]:
    """BFS layers 0..depth around s, and the bitmask of each ball: vertices
    within distance i of s are ``balls[i]``."""
    layers, balls = [[s]], [1 << s]
    for _ in range(depth):
        seen, layer = balls[-1], []
        for a in layers[-1]:
            for b in adj[a]:
                if not seen >> b & 1:
                    seen |= 1 << b
                    layer.append(b)
        layers.append(layer)
        balls.append(seen)
    return layers, balls


def _two_core_component(n: int, edges: set[tuple[int, int]]) -> Graph | None:
    """Largest connected component of the 2-core, relabeled densely."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    queue = deque(v for v in alive if len(adj[v]) <= 1)
    while queue:
        v = queue.popleft()
        if v not in alive:
            continue
        alive.discard(v)
        for w in adj[v]:
            adj[w].discard(v)
            if w in alive and len(adj[w]) <= 1:
                queue.append(w)
    if not alive:
        return None
    comps: list[list[int]] = []
    seen: set[int] = set()
    for s in sorted(alive):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in alive and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    best = max(comps, key=len)
    if len(best) < 3:
        return None
    relabel = {v: i for i, v in enumerate(best)}
    keep = [
        (relabel[u], relabel[v])
        for u, v in edges
        if u in relabel and v in relabel
    ]
    return Graph(len(best), keep)


def generate_girth_instances(n: int, min_girth: int, count: int, seed: int) -> list[Graph]:
    """``count`` connected graphs on <= n vertices, girth >= min_girth,
    minimum degree >= 2; deterministic per seed.

    Each vertex a keeps ``lo[a]``, its ball of radius
    p = (min_girth - 2) // 2, and ``hi[a]``, its ball of radius
    q = min_girth - 2 - p.  A candidate uv is refused when ``lo[u] & hi[v]``
    is non-zero: some vertex lies within p of u and within q of v exactly
    when dist(u, v) <= p + q = min_girth - 2.  The balls stay exact: a path
    shortened by a new edge uv runs a..u, uv, v..b with both halves shortest
    in the old graph, so accepting uv ORs into ``hi[a]``, for each a at
    distance i <= q - 1 from u, the ball of radius q - 1 - i around v, and
    into ``lo[a]``, when also i < p, the ball of radius p - 1 - i; the same
    with u and v swapped.  One BFS from each end to depth q - 1, before uv
    is added, gives all of these.

    Raises GenerationBudgetError when the attempt budget runs out, which is
    the expected outcome for unreachable parameter combinations (for example
    a required cycle longer than the vertex budget allows).
    """
    if min_girth < 3:
        raise ValueError("min_girth must be at least 3")
    if n < 3 or count < 1:
        raise ValueError("need n >= 3 and count >= 1")
    p = (min_girth - 2) // 2
    q = min_girth - 2 - p
    rng = random.Random(seed)
    out: list[Graph] = []
    budget = count * ATTEMPTS_PER_INSTANCE
    attempts = 0
    while len(out) < count:
        if attempts >= budget:
            raise GenerationBudgetError(
                f"generated {len(out)} of {count} instances in {attempts} attempts"
                f" (n={n}, min_girth={min_girth})"
            )
        attempts += 1
        candidates = list(combinations(range(n), 2))
        rng.shuffle(candidates)
        adj: list[set[int]] = [set() for _ in range(n)]
        edges: set[tuple[int, int]] = set()
        # lo[a], hi[a]: bit b set iff dist(a, b) <= p, resp. <= q
        lo = [1 << a for a in range(n)]
        hi = lo.copy()
        for u, v in candidates:
            # adding uv closes a cycle of length dist(u,v) + 1
            if lo[u] & hi[v]:
                continue
            (lu, bu), (lv, bv) = _balls(adj, u, q - 1), _balls(adj, v, q - 1)
            for layers, balls in ((lu, bv), (lv, bu)):
                for i, layer in enumerate(layers):
                    far = balls[q - 1 - i]
                    if i < p:
                        near = balls[p - 1 - i]
                        for a in layer:
                            lo[a] |= near
                            hi[a] |= far
                    else:
                        for a in layer:
                            hi[a] |= far
            adj[u].add(v)
            adj[v].add(u)
            edges.add((u, v))
        g = _two_core_component(n, edges)
        if g is None:
            continue
        gi = girth(g)
        if gi < min_girth:
            raise AssertionError("girth rejection failed")
        out.append(g)
    return out
