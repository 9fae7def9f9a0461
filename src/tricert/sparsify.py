"""Spanning-forest preprocessing that shrinks the edge set to O(n).

Three edge-disjoint spanning forests are peeled off in succession, each a
breadth-first forest of what the previous ones left behind.  Breadth-first
(scan-first) order matters: forests obtained this way form a certificate
for vertex connectivity up to 3, i.e. the union is 3-connected exactly
when the input is.  Arbitrary maximal forests (e.g. depth-first ones) only
guarantee the edge bound, not the connectivity equivalence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import MultiGraph


@dataclass(frozen=True)
class ForestDecomposition:
    forests: tuple[frozenset[int], frozenset[int], frozenset[int]]
    kept: frozenset[int]


def sparsify3(g: MultiGraph) -> tuple[MultiGraph, ForestDecomposition]:
    """Keep at most 3(n-1) edges while preserving 3-connectedness status.

    The output is a spanning subgraph on the same node set with unchanged
    node and edge ids.  Expects a simple graph (run simplify first).
    """
    remaining = g._edge_alive[:]
    forests: list[frozenset[int]] = []
    order = g.live_nodes()
    for _ in range(3):
        forest: set[int] = set()
        visited = [False] * len(g._node_alive)
        for root in order:
            if visited[root]:
                continue
            visited[root] = True
            queue = deque([root])
            while queue:
                x = queue.popleft()
                for eid, y in g._inc[x].items():
                    if not remaining[eid]:
                        continue
                    if not visited[y]:
                        visited[y] = True
                        forest.add(eid)
                        queue.append(y)
        for eid in forest:
            remaining[eid] = False
        forests.append(frozenset(forest))
    kept = forests[0] | forests[1] | forests[2]
    out = g.copy()
    for eid in g.live_edges():
        if eid not in kept:
            out.kill_edge(eid)
    return out, ForestDecomposition(tuple(forests), frozenset(kept))
