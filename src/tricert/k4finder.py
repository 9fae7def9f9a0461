"""Locate a K4-subdivision inside a graph, or produce a refutation witness.

One route serves every input that passes the gates (at least four nodes,
minimum degree 3, connected): a depth-first search from the first live
node closes a cycle; an ear between two cycle nodes makes a theta (two
branch nodes joined by three internally disjoint paths); a breadth-first
search from the interiors of the three theta paths, avoiding the two
branch nodes, finds a second ear joining the interiors of two of them.
Its ends are the other two branch nodes.  The assembled candidate is
self-checked (four branch nodes, six internally disjoint paths, one per
pair).  Each dead end is a machine-checkable witness: a cycle node whose
ear cannot come back to the cycle is a cut vertex, and a theta whose path
interiors cannot be joined is separated by its two branch nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import MultiGraph, connected_components
from .subdivision import StructureError, Subdivision, build_subdivision


@dataclass(frozen=True)
class Witness:
    """Machine-checkable evidence that a graph is not 3-connected."""

    kind: str  # too_few_nodes | low_degree | disconnected | cut_vertex | separation_pair
    nodes: tuple[int, ...] = ()


def find_k4_subdivision(g: MultiGraph):
    """Return a Subdivision whose smoothed graph is K4, or a Witness.

    Expects a simple graph.  A returned witness refutes 3-connectedness
    of `g` itself; a returned subdivision passed the structural self-check.
    The search starts at the first live node and scans incidences in the
    edge id order that `MultiGraph` keeps them in, so the answer is
    deterministic.
    """
    live = g.live_nodes()
    if len(live) < 4:
        return Witness("too_few_nodes")
    for v in live:
        if g.degree(v) < 3:
            return Witness("low_degree", (v,))
    if len(connected_components(g)) > 1:
        return Witness("disconnected")

    cycle = _find_cycle(g, live[0])
    ear1 = _find_ear(g, cycle)
    if isinstance(ear1, Witness):
        return ear1
    x, y = ear1[0], ear1[-1]
    ix, iy = cycle.index(x), cycle.index(y)
    if ix > iy:
        ix, iy = iy, ix
    arc1 = cycle[ix : iy + 1]
    arc2 = cycle[iy:] + cycle[: ix + 1]
    theta = [arc1, arc2, ear1]
    ear2 = _connect_interiors(g, theta, x, y)
    if isinstance(ear2, Witness):
        return ear2
    iu, iw, ear = ear2
    pu, pw = theta[iu], theta[iw]
    pk = theta[3 - iu - iw]
    su = pu.index(ear[0])
    sw = pw.index(ear[-1])
    paths = [pu[: su + 1], pu[su:], pw[: sw + 1], pw[sw:], pk, ear]
    sub = _assemble(g, paths)
    if sub is None:
        raise AssertionError("K4 finder assembled an invalid candidate")
    return sub


def _assemble(g: MultiGraph, paths: list[list[int]]) -> Subdivision | None:
    """Build and self-check a candidate subdivision from six paths."""
    edges: set[int] = set()
    for p in paths:
        for u, v in zip(p, p[1:]):
            e = g.edge_between(u, v)
            if e is None or e in edges:
                return None
            edges.add(e)
    try:
        sub = build_subdivision(g, sorted(edges))
    except StructureError:
        return None
    real = sub.real_nodes()
    if len(real) != 4 or len(sub.links) != 6:
        return None
    pairs = {link.pair for link in sub.links.values()}
    want = {(min(u, v), max(u, v)) for i, u in enumerate(real) for v in real[i + 1:]}
    if pairs != want:
        return None
    return sub


def _find_cycle(g: MultiGraph, root: int) -> list[int]:
    parent: dict[int, int] = {root: -1}
    parent_edge: dict[int, int] = {root: -1}
    stack = [root]
    while stack:
        x = stack.pop()
        for e, y in g._inc[x].items():
            if y not in parent:
                parent[y] = x
                parent_edge[y] = e
                stack.append(y)
            elif e != parent_edge[x]:
                ancestors = {}
                px = x
                while px != -1:
                    ancestors[px] = True
                    px = parent[px]
                ay = []
                py = y
                while py not in ancestors:
                    ay.append(py)
                    py = parent[py]
                top = py
                ax = []
                px = x
                while px != top:
                    ax.append(px)
                    px = parent[px]
                return [top] + ax[::-1] + ay
    raise AssertionError("no cycle found in a graph of minimum degree 3")


def _find_ear(g: MultiGraph, cycle: list[int]):
    on_cycle = set(cycle)
    cyc_edges = set()
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        cyc_edges.add(g.edge_between(u, v))
    for u in sorted(on_cycle):
        for e, w in g._inc[u].items():
            if e in cyc_edges:
                continue
            if w in on_cycle:
                return [u, w]
            # Search off-cycle from w for a cycle node other than u.
            parent = {w: u}
            stack = [w]
            while stack:
                p = stack.pop()
                for q in g._inc[p].values():
                    if q in parent or q == u:
                        continue
                    if q in on_cycle:
                        path = [q, p]
                        while path[-1] != w:
                            path.append(parent[path[-1]])
                        path.append(u)
                        return path[::-1]
                    parent[q] = p
                    stack.append(q)
            return Witness("cut_vertex", (u,))
    raise AssertionError("cycle with no attachments in a graph of minimum degree 3")


def _connect_interiors(g: MultiGraph, theta: list[list[int]], x: int, y: int):
    """Second ear between interiors of two distinct theta paths: a
    multi-source search in the graph minus the two branch nodes."""
    label: dict[int, int] = {}
    parent: dict[int, int] = {}
    queue: deque[int] = deque()
    for idx, path in enumerate(theta):
        for v in path[1:-1]:
            label[v] = idx
            queue.append(v)

    def chain(v: int) -> list[int]:
        out = [v]
        while out[-1] in parent:
            out.append(parent[out[-1]])
        return out

    while queue:
        p = queue.popleft()
        for q in g._inc[p].values():
            if q == x or q == y:
                continue
            if q in label:
                if label[q] != label[p]:
                    return label[p], label[q], chain(p)[::-1] + chain(q)
                continue
            label[q] = label[p]
            parent[q] = p
            queue.append(q)
    return Witness("separation_pair", (min(x, y), max(x, y)))
