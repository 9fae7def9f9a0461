"""Seeded input generators for the benchmark (standard library only).

Every generator returns ``(n, edges)``: the node count and a list of
``(u, v)`` pairs on nodes ``0..n-1``.  The answer is known by
construction:

* ``growth`` starts at K4 and applies Barnette-Gruenbaum operations (add
  an edge between non-adjacent nodes; subdivide an edge and join the new
  node to a third node; subdivide two edges and join the two new nodes),
  each of which keeps a simple graph 3-connected.
* ``ladder``, ``wheel`` and ``k3n`` are the classical 3-connected
  families.
* ``dense`` is a ``growth`` graph plus random extra edges; adding edges
  keeps 3-connectivity.
* ``glue`` identifies one node (a cut vertex) or two nodes (a separation
  pair) of two 3-connected graphs, so the result is not 3-connected;
  ``repair`` adds cross edges that make a glued graph 3-connected again
  (one edge for a pair, two disjoint edges for a cut vertex).

Each operation costs O(1), so a graph of n nodes takes O(n + m) to make.
``write_edge_list`` shuffles labels and line order with the caller's RNG,
so the program sees node ids unrelated to the construction order.
"""

from __future__ import annotations

import random


def growth(n: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Random 3-connected graph on n >= 4 nodes with about 1.75n edges.

    A tenth of the draws add an edge; the rest split evenly between the
    two subdividing operations.
    """
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    adj = [{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}]
    count = 4

    def subdivide(slot: int) -> int:
        nonlocal count
        a, b = edges[slot]
        x = count
        count += 1
        adj.append({a, b})
        adj[a].discard(b)
        adj[a].add(x)
        adj[b].discard(a)
        adj[b].add(x)
        edges[slot] = (a, x)
        edges.append((x, b))
        return x

    def join(x: int, y: int) -> None:
        adj[x].add(y)
        adj[y].add(x)
        edges.append((x, y))

    while count < n:
        r = rng.random()
        if r < 0.1:
            u, v = rng.randrange(count), rng.randrange(count)
            if u != v and v not in adj[u]:
                join(u, v)
        elif r < 0.55 or count == n - 1:
            slot = rng.randrange(len(edges))
            a, b = edges[slot]
            c = rng.randrange(count)
            if c not in (a, b):
                join(subdivide(slot), c)
        else:
            s1, s2 = rng.randrange(len(edges)), rng.randrange(len(edges))
            if s1 != s2:
                x = subdivide(s1)
                y = subdivide(s2)
                join(x, y)
    return count, edges


def ladder(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Circular ladder: two k-cycles joined by k rungs (2k nodes)."""
    edges = []
    for i in range(k):
        j = (i + 1) % k
        edges += [(i, j), (k + i, k + j), (i, k + i)]
    return 2 * k, edges


def wheel(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Hub 0 joined to every node of a k-cycle (k + 1 nodes)."""
    edges = []
    for i in range(1, k + 1):
        edges += [(0, i), (i, i % k + 1)]
    return k + 1, edges


def k3n(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Complete bipartite K_{3,k}: hubs 0, 1, 2 and k leaves."""
    return k + 3, [(h, 3 + i) for i in range(k) for h in range(3)]


def dense(n: int, extra_per_node: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A growth graph on n nodes plus about extra_per_node * n new edges."""
    n, edges = growth(n, rng)
    have = {(min(u, v), max(u, v)) for u, v in edges}
    want = len(edges) + extra_per_node * n
    if want > n * (n - 1) // 2:
        raise ValueError("too many extra edges for n")
    while len(edges) < want:
        u, v = rng.randrange(n), rng.randrange(n)
        pair = (min(u, v), max(u, v))
        if u != v and pair not in have:
            have.add(pair)
            edges.append(pair)
    return n, edges


def glue(first, second, shared: list[tuple[int, int]]) -> tuple[int, list[tuple[int, int]], list[int]]:
    """Union of two graphs where node shared[i][1] of `second` is merged
    into node shared[i][0] of `first`.

    Returns the node count, the deduplicated edges and the ids of the
    merged nodes.  With one shared node the result has a cut vertex, with
    two a separation pair.
    """
    n1, e1 = first
    n2, e2 = second
    merge = {b: a for a, b in shared}
    ids = {}
    nxt = n1
    for v in range(n2):
        if v in merge:
            ids[v] = merge[v]
        else:
            ids[v] = nxt
            nxt += 1
    seen = set()
    edges = []
    for u, v in list(e1) + [(ids[a], ids[b]) for a, b in e2]:
        pair = (min(u, v), max(u, v))
        if pair not in seen:
            seen.add(pair)
            edges.append(pair)
    return nxt, edges, [a for a, _ in shared]


def repair(n1: int, n: int, edges, separator: list[int], rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a glued graph plus cross edges that make it 3-connected.

    Nodes below n1 came from the first half, the rest from the second.
    """
    sep = set(separator)
    left = [v for v in range(n1) if v not in sep]
    right = list(range(n1, n))
    need = 3 - len(separator)
    xs = rng.sample(left, need)
    ys = rng.sample(right, need)
    return list(edges) + list(zip(xs, ys))


def write_edge_list(path, n: int, edges, rng: random.Random) -> bytes:
    """Write edges under a random relabeling and line order; returns the bytes."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    lines = [f"{labels[u]} {labels[v]}\n" for u, v in edges]
    rng.shuffle(lines)
    data = "".join(lines).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data
