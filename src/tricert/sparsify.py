"""Spanning-forest preprocessing that shrinks the edge set to O(n).

Three edge-disjoint spanning forests are peeled off in succession, each a
breadth-first forest of what the previous ones left behind.  Breadth-first
(scan-first) order matters.  By the sparse-certificate lemma of Cheriyan,
Kao and Thurimella (SIAM J. Comput. 1993), for every set S of at most two
nodes the kept graph minus S has the same connected components as the
input minus S.  So the kept graph is 3-connected exactly when the input
is, and a cut vertex or separation pair of the kept graph separates the
input too.  Arbitrary maximal forests (e.g. depth-first ones) only
guarantee the edge bound, not this lemma.
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
    forests = _forests(g)
    return _keep_only(g, forests.kept), forests


def _forests(g: MultiGraph) -> ForestDecomposition:
    """The three breadth-first forests of `sparsify3`, without the graph."""
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
    return ForestDecomposition(tuple(forests), forests[0] | forests[1] | forests[2])


def _keep_only(g: MultiGraph, keep) -> MultiGraph:
    """A copy of g without its live edges outside `keep`.  Filtering
    rather than re-adding keeps every incidence in increasing edge id."""
    out = g.copy()
    for eid in g.live_edges():
        if eid not in keep:
            out.kill_edge(eid)
    return out
