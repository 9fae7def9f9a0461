"""Locate a K4-subdivision inside a graph, or produce a refutation witness.

`_gate` answers the three input questions, in this order: at least four
nodes, connected, minimum degree 3.  `certify` asks them once, of its
growth host, and `find_k4_subdivision` of the graph it is given; the
connectivity walk is `graph._disconnects`, which the verifier's witness
check shares.

One route serves every input that passes the gates: a depth-first search
from the first live node closes a cycle; an ear between two cycle nodes
makes a theta (two branch nodes joined by three internally disjoint
paths); a breadth-first search from the interiors of the three theta
paths, avoiding the two branch nodes, finds a second ear joining the
interiors of two of them.  Its ends are the other two branch nodes.  The
assembled candidate is self-checked by `build_subdivision`, which accepts
only a subdivision of K4.  Each dead end is a machine-checkable
witness: a cycle node whose ear cannot come back to the cycle is a cut
vertex, and a theta whose path interiors cannot be joined is separated by
its two branch nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import GraphUsageError, MultiGraph, _disconnects, _pair_index
from .subdivision import StructureError, Subdivision, build_subdivision


@dataclass(frozen=True)
class Witness:
    """Machine-checkable evidence that a graph is not 3-connected."""

    kind: str  # too_few_nodes | low_degree | disconnected | cut_vertex | separation_pair
    nodes: tuple[int, ...] = ()


def find_k4_subdivision(g: MultiGraph):
    """Return a Subdivision whose smoothed graph is K4, or a Witness.

    Expects a simple graph, and raises `StructureError` naming the first
    doubled pair when one that is not simple passes `_gate`.
    A returned witness refutes 3-connectedness of `g` itself; a returned
    subdivision is one `build_subdivision` accepted.
    """
    w = _gate(g)
    if w is not None:
        return w
    try:
        index = _pair_index(g)
    except GraphUsageError as exc:
        raise StructureError(f"host is not simple: {exc}") from None
    return _find_k4(g, index)


def _gate(g: MultiGraph) -> Witness | None:
    """The first gate `g` fails, as a witness, or None: fewer than four
    nodes, then disconnected, then the smallest node of degree below 3."""
    if g.n_live_nodes < 4:
        return Witness("too_few_nodes")
    if _disconnects(g):
        return Witness("disconnected")
    alive = g._node_alive
    for v, inc in enumerate(g._inc):
        if len(inc) < 3 and alive[v]:
            return Witness("low_degree", (v,))
    return None


def _find_k4(g: MultiGraph, index: dict[tuple[int, int], int]):
    """The search past the gates, given `g`'s pair index; it reads each
    incidence in the edge id order `MultiGraph` keeps, so it is deterministic."""
    cycle = _find_cycle(g, g._node_alive.index(True))
    ear1 = _find_ear(g, index, cycle)
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
    return _assemble(g, index, paths)


def _assemble(g: MultiGraph, index: dict[tuple[int, int], int], paths: list[list[int]]) -> Subdivision:
    """The subdivision made of six paths, as `build_subdivision` returns
    it: it raises `StructureError` unless the paths form a subdivision of
    K4, which would be a fault of the search."""
    edges = [index[(u, v) if u < v else (v, u)] for p in paths for u, v in zip(p, p[1:])]
    return build_subdivision(g, sorted(edges), index)


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


def _find_ear(g: MultiGraph, index: dict[tuple[int, int], int], cycle: list[int]):
    on_cycle = set(cycle)
    cyc_edges = {index[(u, v) if u < v else (v, u)] for u, v in zip(cycle, cycle[1:] + cycle[:1])}
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
