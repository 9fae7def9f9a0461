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

The forests hold at most 3(n - 1) edges, so `certify` runs them only on a
graph with more edges than that; a graph within the bound is grown on as
it is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import MultiGraph, _subgraph


@dataclass(frozen=True)
class ForestDecomposition:
    forests: tuple[frozenset[int], frozenset[int], frozenset[int]]
    kept: frozenset[int]


def sparsify3(g: MultiGraph) -> tuple[MultiGraph, ForestDecomposition]:
    """Keep at most 3(n-1) edges while preserving 3-connectedness status.

    The output is a spanning subgraph on the same node set with unchanged
    node and edge ids, filtered out of `g` in one pass by the forests'
    flags.  Expects a simple graph (run simplify first).
    """
    forests, keep = _forests(g)
    kept = frozenset(e for e, k in enumerate(keep) if k)
    return _keep_only(g, keep), ForestDecomposition(tuple(map(frozenset, forests)), kept)


def _forests(g: MultiGraph) -> tuple[list[list[int]], list[bool]]:
    """The three breadth-first forests of `sparsify3`, each as its edge
    ids, and one flag per edge id that is set when a forest holds it."""
    keep = [False] * len(g._edge_alive)
    forests: list[list[int]] = []
    order = g.live_nodes()
    for _ in range(3):
        forest: list[int] = []
        visited = [False] * len(g._node_alive)
        for root in order:
            if visited[root]:
                continue
            visited[root] = True
            queue = deque([root])
            while queue:
                x = queue.popleft()
                for eid, y in g._inc[x].items():
                    if not keep[eid] and not visited[y]:
                        visited[y] = True
                        keep[eid] = True
                        forest.append(eid)
                        queue.append(y)
        forests.append(forest)
    return forests, keep


def _keep_only(g: MultiGraph, keep: list[bool]) -> MultiGraph:
    """`g` with only the edges `keep` flags, taken as its own edge flags
    (so only live edges).  Filtering keeps every incidence
    in increasing edge id."""
    inc = [{e: y for e, y in inc.items() if keep[e]} for inc in g._inc]
    return _subgraph(g, keep, inc, sum(keep))
