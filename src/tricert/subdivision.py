"""Subdivisions of 3-connected graphs embedded in a host graph.

A subdivision S is tracked as node/edge membership inside a host graph,
together with its *links*: the maximal paths of S whose interior nodes have
degree 2 in S.  Nodes of degree >= 3 in S are *real*; links run between
real nodes and partition the edges of S.  Two links are *parallel* when
they join the same pair of real nodes.

Growth happens by attaching a path that meets S exactly in its two
endpoints, or by an expand step (a new center joined to three real nodes
by internally disjoint paths).  Both updates are incremental and can be
cross-checked by recomputing the link table from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphUsageError, MultiGraph


class StructureError(ValueError):
    """Edge set does not form a subdivision of a 3-connected graph."""


class PathRejected(ValueError):
    """Attachment path violates one of the three validity conditions."""

    def __init__(self, condition: int, message: str = ""):
        super().__init__(message or f"path violates condition {condition}")
        self.condition = condition


class ExpandRejected(ValueError):
    """Expand step violates its preconditions."""


@dataclass(frozen=True)
class PathStep:
    """A path attached to the subdivision at exactly its two endpoints."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("path needs at least one edge")

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.nodes[0], self.nodes[-1]

    @property
    def inner(self) -> tuple[int, ...]:
        return self.nodes[1:-1]


@dataclass(frozen=True)
class ExpandStep:
    """A new center joined to three distinct real nodes by disjoint arms.

    Arms are stored center-first and sorted by anchor id.
    """

    center: int
    arms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.arms) != 3:
            raise ValueError("expand needs exactly three arms")
        for arm in self.arms:
            if len(arm) < 2 or arm[0] != self.center:
                raise ValueError("each arm must start at the center")
        anchors = self.anchors
        if len(set(anchors)) != 3:
            raise ValueError("anchors must be pairwise distinct")
        if list(anchors) != sorted(anchors):
            raise ValueError("arms must be sorted by anchor id")

    @property
    def anchors(self) -> tuple[int, int, int]:
        return tuple(arm[-1] for arm in self.arms)  # type: ignore[return-value]


Step = PathStep | ExpandStep


@dataclass(frozen=True)
class Link:
    lid: int  # smallest contained edge id; stable and deterministic
    nodes: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.nodes[0], self.nodes[-1]

    @property
    def pair(self) -> tuple[int, int]:
        a, b = self.nodes[0], self.nodes[-1]
        return (a, b) if a <= b else (b, a)


def _normalize(nodes, edges) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if nodes[0] > nodes[-1]:
        nodes = nodes[::-1]
        edges = edges[::-1]
    return tuple(nodes), tuple(edges)


class Subdivision:
    """Mutable subdivision state over a fixed host graph.

    The ``apply_*_inplace`` functions change it in place and nothing
    copies it, so each growth or replay loop builds and owns its own.
    """

    __slots__ = (
        "host",
        "in_nodes",
        "in_edges",
        "real",
        "links",
        "node_link",
        "by_pair",
        "n_nodes",
        "n_edges",
        "inner_count",
    )

    def __init__(self, host: MultiGraph):
        n = len(host._node_alive)
        m = len(host._edge_alive)
        self.host = host
        self.in_nodes = [False] * n
        self.in_edges = [False] * m
        self.real = [False] * n
        self.links: dict[int, Link] = {}
        self.node_link: list[int | None] = [None] * n
        self.by_pair: dict[tuple[int, int], set[int]] = {}
        self.n_nodes = 0
        self.n_edges = 0
        self.inner_count = 0

    def edge_ids(self) -> set[int]:
        return {e for e, inside in enumerate(self.in_edges) if inside}

    def real_nodes(self) -> list[int]:
        return [v for v, r in enumerate(self.real) if r]

    def parallel_count(self, pair: tuple[int, int]) -> int:
        return len(self.by_pair.get(pair, ()))

    # -- internal table maintenance ----------------------------------------

    def _store_link(self, lid: int, nodes, edges) -> Link:
        """Record a link under `lid`; its interior's node_link is left alone."""
        link = Link(lid, *_normalize(nodes, edges))
        self.links[lid] = link
        self.by_pair.setdefault(link.pair, set()).add(lid)
        return link

    def _insert_link(self, nodes, edges) -> int:
        lid = min(edges)
        self._store_link(lid, nodes, edges)
        node_link = self.node_link
        for v in nodes[1:-1]:
            node_link[v] = lid
        return lid

    def _remove_link(self, lid: int) -> Link:
        link = self.links.pop(lid)
        self.by_pair[link.pair].discard(lid)
        if not self.by_pair[link.pair]:
            del self.by_pair[link.pair]
        return link

    def _split_link_at(self, v: int) -> None:
        """Make interior node v real.  The half holding the link's smallest
        edge keeps its id, so only the other half's interior is relabelled."""
        lid = self.node_link[v]
        assert lid is not None
        link = self._remove_link(lid)
        nodes, edges = link.nodes, link.edges
        idx = nodes.index(v)
        keep = (nodes[: idx + 1], edges[:idx])
        other = (nodes[idx:], edges[idx:])
        if edges.index(lid) >= idx:
            keep, other = other, keep
        self.node_link[v] = None
        self.real[v] = True
        self.inner_count -= 1
        self._store_link(lid, *keep)
        self._insert_link(*other)


def _walk_links(g: MultiGraph, in_edges, deg) -> list[tuple[list[int], list[int]]]:
    """Decompose an edge set into links; raises on non-subdivision shapes."""
    visited = [False] * len(g._edge_alive)
    out: list[tuple[list[int], list[int]]] = []
    n_edges = 0
    for start, d in enumerate(deg):
        if d < 3:
            continue
        for e0 in g._inc[start]:
            if not in_edges[e0] or visited[e0]:
                continue
            nodes = [start]
            edges = []
            cur_e, cur = e0, start
            while True:
                visited[cur_e] = True
                edges.append(cur_e)
                cur = g.other_end(cur_e, cur)
                nodes.append(cur)
                if deg[cur] >= 3:
                    break
                nxt = None
                for e in g._inc[cur]:
                    if in_edges[e] and e != cur_e:
                        nxt = e
                        break
                if nxt is None:
                    raise StructureError(f"dangling path at node {cur}")
                cur_e = nxt
            if nodes[0] == nodes[-1]:
                raise StructureError(f"link closes into a loop at node {start}")
            out.append((nodes, edges))
            n_edges += len(edges)
    total = sum(1 for e, inside in enumerate(in_edges) if inside)
    if n_edges != total:
        raise StructureError("edge set contains a component without branch nodes")
    return out


def build_subdivision(g: MultiGraph, s0_edges) -> Subdivision:
    """Initial subdivision from an explicit edge set.

    Checks the structural requirements: minimum degree 2 inside the set,
    at least four branch nodes, connectivity, distinct link endpoints and
    no two links joining the same pair (so the smoothed graph is simple).
    Whether the smoothed graph is actually 3-connected is not decided here.
    """
    s = Subdivision(g)
    deg = [0] * len(g._node_alive)
    for e in s0_edges:
        if not g.edge_alive(e):
            raise StructureError(f"edge {e} is not a live host edge")
        if s.in_edges[e]:
            raise StructureError(f"edge {e} listed twice")
        s.in_edges[e] = True
        u, v = g.ends(e)
        if u == v:
            raise StructureError(f"edge {e} is a self-loop")
        deg[u] += 1
        deg[v] += 1
    for v, d in enumerate(deg):
        if d == 1:
            raise StructureError(f"node {v} has degree 1 in the edge set")
        if d:
            s.in_nodes[v] = True
            s.n_nodes += 1
            if d >= 3:
                s.real[v] = True
    if s.n_nodes == 0:
        raise StructureError("empty edge set")
    branches = sum(s.real)
    if branches < 4:
        raise StructureError(f"only {branches} branch nodes; need at least 4")
    for nodes, edges in _walk_links(g, s.in_edges, deg):
        lid = s._insert_link(nodes, edges)
        if len(s.by_pair[s.links[lid].pair]) > 1:
            raise StructureError("two links share the same endpoints")
        s.n_edges += len(edges)
        s.inner_count += len(nodes) - 2
    # Connectivity: every member node must be reachable along member edges.
    start = next(v for v, inside in enumerate(s.in_nodes) if inside)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for e, y in g._inc[x].items():
            if s.in_edges[e]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    if len(seen) != s.n_nodes:
        raise StructureError("edge set is disconnected")
    return s


def recompute_links(s: Subdivision) -> dict[int, Link]:
    """Link table rebuilt from scratch; equals the incremental one."""
    g = s.host
    deg = [0] * len(g._node_alive)
    for e, inside in enumerate(s.in_edges):
        if inside:
            u, v = g.ends(e)
            deg[u] += 1
            deg[v] += 1
    table: dict[int, Link] = {}
    for nodes, edges in _walk_links(g, s.in_edges, deg):
        nt, et = _normalize(nodes, edges)
        table[min(et)] = Link(min(et), nt, et)
    return table


def resolve_step_edges(s: Subdivision, nodes) -> list[int] | None:
    """Pick the host edges realizing a step: per consecutive pair the
    smallest live edge outside S.  None when some pair has no such edge.

    Each pair scans the incidence of its endpoint of lower degree only.
    """
    inc, in_edges = s.host._inc, s.in_edges
    out = []
    for u, v in zip(nodes, nodes[1:]):
        at = inc[u]
        if len(inc[v]) < len(at):
            at, v = inc[v], u
        best = None
        for e, w in at.items():
            if w == v and not in_edges[e] and (best is None or e < best):
                best = e
        if best is None:
            return None
        out.append(best)
    return out


def _check_path(s: Subdivision, nodes: tuple[int, ...]) -> tuple[int | None, list[int] | None]:
    """First violated attachment condition (or None) and, when the path is
    valid, the host edges realizing it."""
    if len(nodes) < 2 or len(set(nodes)) != len(nodes):
        raise GraphUsageError("not a simple path")
    g = s.host
    for v in nodes:
        if not g.node_alive(v):
            raise GraphUsageError(f"node {v} is not a live host node")
    edges = resolve_step_edges(s, nodes)
    if edges is None:
        for u, v in zip(nodes, nodes[1:]):
            if g.edge_between(u, v) is None:
                raise GraphUsageError(f"{u}-{v} is not a host edge")
        return 1, None
    x, y = nodes[0], nodes[-1]
    in_nodes = s.in_nodes
    if not (in_nodes[x] and in_nodes[y]) or any(in_nodes[v] for v in nodes[1:-1]):
        return 1, None
    lx = s.node_link[x]
    ly = s.node_link[y]
    if lx is not None and (ly == lx or y in s.links[lx].endpoints):
        return 2, None
    if ly is not None and x in s.links[ly].endpoints:
        return 2, None
    if lx is not None and ly is not None and s.links[lx].pair == s.links[ly].pair:
        return 3, None
    return None, edges


def path_violation(s: Subdivision, nodes) -> int | None:
    """First violated attachment condition (1, 2 or 3), or None if valid.

    1: the path must meet S exactly in its two endpoints,
    2: the endpoints must not lie on one link other than as its two ends,
    3: the endpoints must not be interior to two parallel links.
    """
    return _check_path(s, tuple(nodes))[0]


def apply_path_inplace(s: Subdivision, step: PathStep) -> None:
    viol, edges = _check_path(s, step.nodes)
    if viol is not None:
        raise PathRejected(viol)
    x, y = step.endpoints
    for v in (x, y):
        if not s.real[v]:
            s._split_link_at(v)
    for v in step.inner:
        s.in_nodes[v] = True
    s.n_nodes += len(step.nodes) - 2
    s.inner_count += len(step.nodes) - 2
    for e in edges:
        s.in_edges[e] = True
    s.n_edges += len(edges)
    s._insert_link(step.nodes, edges)


def apply_expand_inplace(s: Subdivision, step: ExpandStep) -> None:
    g = s.host
    if s.in_nodes[step.center]:
        raise ExpandRejected(f"center {step.center} already in the subdivision")
    seen: set[int] = {step.center}
    arm_edges: list[list[int]] = []
    for arm in step.arms:
        anchor = arm[-1]
        if not s.in_nodes[anchor] or not s.real[anchor]:
            raise ExpandRejected(f"anchor {anchor} is not a real node")
        for v in arm[1:-1]:
            if s.in_nodes[v]:
                raise ExpandRejected(f"arm revisits the subdivision at {v}")
            if v in seen:
                raise ExpandRejected(f"arms intersect at {v}")
            seen.add(v)
        if len(set(arm)) != len(arm):
            raise ExpandRejected("arm is not a simple path")
        edges = resolve_step_edges(s, arm)
        if edges is None:
            raise ExpandRejected("arm is not realizable by host edges outside S")
        arm_edges.append(edges)
    for arm, edges in zip(step.arms, arm_edges):
        for v in arm[:-1]:
            if not s.in_nodes[v]:
                s.in_nodes[v] = True
                s.n_nodes += 1
        for e in edges:
            s.in_edges[e] = True
        s.n_edges += len(edges)
        s.inner_count += len(arm) - 2
        s._insert_link(arm, edges)
    s.real[step.center] = True


def apply_step_inplace(s: Subdivision, step: Step) -> None:
    if isinstance(step, PathStep):
        apply_path_inplace(s, step)
    else:
        apply_expand_inplace(s, step)
