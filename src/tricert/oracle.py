"""Ground truth by exhaustion, plus seeded test-input generators."""

from __future__ import annotations

import random

from .graph import MultiGraph, simplify


def is_3_connected_brute(g: MultiGraph) -> bool:
    """Definition-level check: n > 3 and no pair deletion disconnects.

    Intended for desk-scale graphs; pairwise deletion with bitmask BFS.
    """
    w, _ = simplify(g)
    nodes = w.live_nodes()
    n = len(nodes)
    if n < 4:
        return False
    idx = {v: i for i, v in enumerate(nodes)}
    adj = [0] * n
    for e in w.live_edges():
        u, v = w.ends(e)
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]
    full = (1 << n) - 1
    for i in range(n):
        for j in range(i + 1, n):
            rem = full & ~(1 << i) & ~(1 << j)
            start = rem & -rem
            seen = start
            frontier = start
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    b = f & -f
                    f ^= b
                    nxt |= adj[b.bit_length() - 1]
                frontier = nxt & rem & ~seen
                seen |= frontier
            if seen != rem:
                return False
    return True


def gen_3_connected(n_target: int, seed: int, op_mix: tuple[float, float, float] = (1, 1, 1)) -> MultiGraph:
    """Seeded random 3-connected simple graph grown from K4.

    Growth uses the three edge-addition moves (plain edge between
    non-adjacent nodes / subdivide one edge and attach / subdivide two
    edges and join), restricted so the graph stays simple.  Deterministic
    for a fixed (n_target, seed, op_mix).
    """
    if n_target < 4:
        raise ValueError("n_target must be at least 4")
    wa, wb, wc = op_mix
    if n_target > 4 and wb + wc <= 0:
        raise ValueError("op mix cannot grow the graph")
    rng = random.Random(seed)
    g = MultiGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    edge_list = g.live_edges()

    def subdivide(slot: int) -> int:
        e = edge_list[slot]
        u, v = g.ends(e)
        g.kill_edge(e)
        x = g.add_node()
        edge_list[slot] = g.add_edge(u, x)
        edge_list.append(g.add_edge(x, v))
        return x

    while g.n_live_nodes < n_target:
        remaining = n_target - g.n_live_nodes
        weights = [wa, wb, 0.0 if remaining == 1 else wc]
        total = sum(weights)
        r = rng.random() * total
        op = 0
        for op, wgt in enumerate(weights):
            r -= wgt
            if r < 0:
                break
        if op == 0:
            n = g.n_live_nodes
            for _ in range(10):
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u != v and v not in g.neighbors(u):
                    edge_list.append(g.add_edge(min(u, v), max(u, v)))
                    break
        elif op == 1:
            slot = rng.randrange(len(edge_list))
            a, b = g.ends(edge_list[slot])
            x = subdivide(slot)
            choices = [v for v in range(x) if v not in (a, b)]
            y = choices[rng.randrange(len(choices))]
            edge_list.append(g.add_edge(x, y))
        else:
            s1 = rng.randrange(len(edge_list))
            s2 = rng.randrange(len(edge_list))
            if s1 == s2:
                continue
            x = subdivide(s1)
            y = subdivide(s2)
            edge_list.append(g.add_edge(x, y))
    return g
