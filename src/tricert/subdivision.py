"""Subdivisions of 3-connected graphs embedded in a host graph.

A subdivision S is tracked as node/edge membership inside a host graph,
together with its *links*: the maximal paths of S whose interior nodes have
degree 2 in S.  Nodes of degree >= 3 in S are *real*; links run between
real nodes and partition the edges of S.  Two links are *parallel* when
they join the same pair of real nodes.

Growth happens by attaching a path that meets S exactly in its two
endpoints, or by an expand step (a new center joined to three real nodes
by internally disjoint paths).  Both updates are incremental.

A link is stored as its two ends and one of its edges; each interior node
keeps its two S-edges in a slot, so the interior is walked on demand.  A
path whose endpoint is interior to a link splits that link, and the split
relabels only the shorter half, so a whole growth or replay loop relabels
O(n log n) nodes in total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(slots=True)
class Link:
    """A link of S, stored as its ends and one of its edges.

    `lid` is a serial number handed out by the subdivision; it names the
    link and means nothing else.  `pair` holds the two ends, smaller id
    first.  `nodes` and `edges` walk the link from `edge` through the
    interior nodes' slots, so each call costs O(length); both run from
    pair[0] to pair[1].  A split replaces records and never edits one;
    they are not frozen because frozen records take several times longer
    to build.
    """

    lid: int
    pair: tuple[int, int]
    edge: int
    sub: Subdivision = field(repr=False, compare=False)

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.pair

    @property
    def nodes(self) -> tuple[int, ...]:
        return self._walk()[0]

    @property
    def edges(self) -> tuple[int, ...]:
        return self._walk()[1]

    def _walk(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        u, w = self.sub.host._ends[self.edge]
        back = list(self.sub._walk_out(w, self.edge))[::-1]  # far end .. u
        ahead = list(self.sub._walk_out(u, self.edge))  # w .. far end
        return _normalize([x for x, _ in back + ahead], [e for _, e in back + ahead[1:]])


def _normalize(nodes, edges) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if nodes[0] > nodes[-1]:
        nodes = nodes[::-1]
        edges = edges[::-1]
    return tuple(nodes), tuple(edges)


class Subdivision:
    """Mutable subdivision state over a fixed host graph.

    `node_link[v]` is the id of the link v is interior to (None for real
    and outside nodes), and `slots[v]` holds that interior node's two
    S-edges.  Slots hold edges, not neighbours, so a walk along a link is
    well defined on a multigraph host.

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
        "slots",
        "by_pair",
        "n_nodes",
        "n_edges",
        "inner_count",
        "next_lid",
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
        self.slots: list[tuple[int, int] | None] = [None] * n
        self.by_pair: dict[tuple[int, int], set[int]] = {}
        self.n_nodes = 0
        self.n_edges = 0
        self.inner_count = 0
        self.next_lid = 0

    def edge_ids(self) -> set[int]:
        return {e for e, inside in enumerate(self.in_edges) if inside}

    def real_nodes(self) -> list[int]:
        return [v for v, r in enumerate(self.real) if r]

    def parallel_count(self, pair: tuple[int, int]) -> int:
        return len(self.by_pair.get(pair, ()))

    # -- internal table maintenance ----------------------------------------

    def _store_link(self, lid: int, x: int, y: int, edge: int) -> None:
        """Record the link from x to y holding `edge` under `lid`; its
        interior's node_link and slots are left alone."""
        pair = (x, y) if x <= y else (y, x)
        self.links[lid] = Link(lid, pair, edge, self)
        self.by_pair.setdefault(pair, set()).add(lid)

    def _insert_link(self, nodes, edges) -> int:
        """Record a new link under a fresh id and fill its interior's slots."""
        lid = self.next_lid
        self.next_lid += 1
        self._store_link(lid, nodes[0], nodes[-1], edges[0])
        node_link, slots = self.node_link, self.slots
        for i in range(1, len(nodes) - 1):
            v = nodes[i]
            node_link[v] = lid
            slots[v] = (edges[i - 1], edges[i])
        return lid

    def _walk_out(self, v: int, e: int):
        """(node, edge) pairs along the link from v through its edge e,
        each node with the edge that reached it, up to the first real
        node."""
        ends, real, slots = self.host._ends, self.real, self.slots
        x = v
        while True:
            a, b = ends[e]
            x = b if a == x else a
            yield x, e
            if real[x]:
                return
            e0, e1 = slots[x]
            e = e1 if e == e0 else e0

    def _remove_link(self, lid: int) -> Link:
        link = self.links.pop(lid)
        self.by_pair[link.pair].discard(lid)
        if not self.by_pair[link.pair]:
            del self.by_pair[link.pair]
        return link

    def _split_link_at(self, v: int) -> None:
        """Make interior node v real, cutting its link in two.

        Walks out from v along both of its edges in turn, one node per
        side per turn, and stops at the first real node a side reaches.
        That side, the shorter, gets a fresh id, and only its interior is
        relabelled; the other side keeps the old id with v as its new end.
        A split so costs O(shorter half).  A node is relabelled only onto
        a link at most half as long as the one it was on, and links never
        grow, so a run over n nodes relabels at most n log2 n times.
        """
        lid = self.node_link[v]
        assert lid is not None
        link = self._remove_link(lid)
        first = self.slots[v]
        walks = [self._walk_out(v, e) for e in first]
        passed: tuple[list[int], list[int]] = ([], [])
        side = 0
        while True:
            x, _ = next(walks[side])
            if self.real[x]:
                break
            passed[side].append(x)
            side ^= 1
        a, b = link.pair
        self._store_link(lid, v, b if x == a else a, first[side ^ 1])
        new = self.next_lid
        self.next_lid += 1
        self._store_link(new, v, x, first[side])
        node_link = self.node_link
        for u in passed[side]:
            node_link[u] = new
        node_link[v] = None
        self.slots[v] = None
        self.real[v] = True
        self.inner_count -= 1


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


def _realizes(s: Subdivision, nodes: tuple[int, ...], edges) -> bool:
    """Whether `edges` are live host edges outside S joining consecutive
    `nodes`; O(1) per edge."""
    inc, in_edges = s.host._inc, s.in_edges
    return len(edges) == len(nodes) - 1 and all(
        inc[u].get(e) == v and not in_edges[e] for u, v, e in zip(nodes, nodes[1:], edges)
    )


def _check_path(
    s: Subdivision, nodes: tuple[int, ...], edges=None
) -> tuple[int | None, list[int] | None]:
    """First violated attachment condition (or None) and, when the path is
    valid, the host edges realizing it.  Edges the caller already holds are
    checked instead of looked up; wrong ones reject like a bad step."""
    if len(nodes) < 2 or len(set(nodes)) != len(nodes):
        raise GraphUsageError("not a simple path")
    g = s.host
    for v in nodes:
        if not g.node_alive(v):
            raise GraphUsageError(f"node {v} is not a live host node")
    if edges is None:
        edges = resolve_step_edges(s, nodes)
    elif not _realizes(s, nodes, edges):
        edges = None
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


def apply_path_inplace(s: Subdivision, step: PathStep, edges=None) -> None:
    """Attach a path step to S.  `edges`, when given, are the host edges
    realizing it, one per consecutive node pair; otherwise they are looked
    up.  Raises `PathRejected` or `GraphUsageError` on an invalid step."""
    viol, edges = _check_path(s, step.nodes, edges)
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
