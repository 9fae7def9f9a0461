"""Subdivisions of 3-connected graphs embedded in a host graph.

A subdivision S is tracked as node/edge membership inside a host graph,
together with its *links*: the maximal paths of S whose interior nodes have
degree 2 in S.  Nodes of degree >= 3 in S are *real*; links run between
real nodes and partition the edges of S.  Two links are *parallel* when
they join the same pair of real nodes.

S starts as a subdivision of K4, the start of Barnette and Grünbaum's
construction sequences; `build_subdivision` refuses any other start set.
Growth happens by attaching a path that meets S exactly in its two
endpoints, or by an expand step (a new center joined to three real nodes
by internally disjoint paths).  Both updates are incremental.

The host is simple, and a subdivision carries the host's pair index, a
dict from each node pair ``(min, max)`` to the one edge joining it.  Each
consecutive node pair of a step resolves to its host edge with one lookup.

A link is stored as its two ends and one of its edges; each interior node
keeps its two S-edges in a slot, so the interior is walked on demand.  A
path whose endpoint is interior to a link splits that link: two cursors
walk out from the endpoint along both sides in turn, and the split
relabels only the side that reaches a real node first, the shorter half,
so a whole growth or replay loop relabels O(n log n) nodes in total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import GraphUsageError, MultiGraph, _pair_index


class StructureError(ValueError):
    """Edge set does not form a subdivision of K4."""


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

    The subdivision's `links` list holds it at its link id, a serial
    number that means nothing else.  `pair` holds the two ends, smaller id
    first.  `nodes` and `edges` walk the link from `edge` through the
    interior nodes' slots with `_chain`, so each call costs O(length);
    both run from pair[0] to pair[1].  A split edits the record of the
    side that keeps the id in place and appends one for the other side.
    """

    pair: tuple[int, int]
    edge: int
    sub: Subdivision = field(repr=False, compare=False)

    @property
    def nodes(self) -> tuple[int, ...]:
        return self._walk()[0]

    @property
    def edges(self) -> tuple[int, ...]:
        return self._walk()[1]

    def _walk(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _normalize(*_chain(self.sub.host._ends, self.sub.slots, self.edge))


def _chain(ends, slots, e: int) -> tuple[list[int], list[int]]:
    """The nodes and edges of the chain through edge e, from end to end:
    from the end past e's first end to the end past its second.

    `ends` is a graph's edge ends; `slots` gives each interior node of a
    chain its two chain edges, and other nodes None or another chain's
    slot.  The walk crosses an edge and goes on through the far node's
    other slot edge while that slot holds the edge it came by, so a link's
    walk ends at a real node.  It runs out past e's first end, then turns
    and records the chain on its way back."""
    x, f = ends[e][1], e
    nodes = edges = None
    while True:
        a, b = ends[f]
        x = b if a == x else a
        if nodes is not None:
            nodes.append(x)
            edges.append(f)
        s = slots[x]
        if s is None or f not in s:
            if nodes is not None:
                return nodes, edges
            nodes, edges = [x], []  # the far end: turn back across f
            continue
        f0, f1 = s
        f = f1 if f == f0 else f0


def _normalize(nodes, edges) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if nodes[0] > nodes[-1]:
        nodes = nodes[::-1]
        edges = edges[::-1]
    return tuple(nodes), tuple(edges)


class Subdivision:
    """Mutable subdivision state over a fixed host graph.

    `node_link[v]` is the id of the link v is interior to, and `slots[v]`
    holds that interior node's two S-edges, so a walk along a link reads
    the host's edge ends directly; both are None for real and outside
    nodes.

    The ``apply_*_inplace`` functions change it in place and nothing
    copies it, so each growth or replay loop builds and owns its own.

    `index` is the host's pair index, as the parsers and `simplify` return
    it: the host is simple and does not change while the subdivision lives.
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
        "index",
    )

    def __init__(self, host: MultiGraph, index: dict[tuple[int, int], int]):
        n = len(host._node_alive)
        m = len(host._edge_alive)
        self.host = host
        self.in_nodes = [False] * n
        self.in_edges = [False] * m
        self.real = [False] * n
        self.links: list[Link] = []
        self.node_link: list[int | None] = [None] * n
        self.slots: list[tuple[int, int] | None] = [None] * n
        self.by_pair: dict[tuple[int, int], set[int]] = {}
        self.n_nodes = 0
        self.n_edges = 0
        self.inner_count = 0
        self.index = index

    def edge_ids(self) -> set[int]:
        return {e for e, inside in enumerate(self.in_edges) if inside}

    def real_nodes(self) -> list[int]:
        return [v for v, r in enumerate(self.real) if r]

    def parallel_count(self, pair: tuple[int, int]) -> int:
        return len(self.by_pair.get(pair, ()))

    # -- internal table maintenance ----------------------------------------

    def _store_link(self, x: int, y: int, edge: int) -> int:
        """Append the link from x to y holding `edge` under the next id and
        return the id; its interior's node_link and slots are left alone."""
        lid = len(self.links)
        pair = (x, y) if x <= y else (y, x)
        self.links.append(Link(pair, edge, self))
        self.by_pair.setdefault(pair, set()).add(lid)
        return lid

    def _insert_link(self, nodes, edges) -> int:
        """Record a new link under the next id and fill its interior's slots."""
        lid = self._store_link(nodes[0], nodes[-1], edges[0])
        node_link, slots = self.node_link, self.slots
        for i in range(1, len(nodes) - 1):
            v = nodes[i]
            node_link[v] = lid
            slots[v] = (edges[i - 1], edges[i])
        return lid

    def _split_link_at(self, v: int) -> None:
        """Make interior node v real, cutting its link in two.

        Two cursors walk out from v, one along each of its edges, and
        advance in turn, one node each, side 0 first; the walk stops at
        the first real node a cursor reaches.  That side, the shorter,
        gets the next id, and only its interior is relabelled; the other
        side keeps the old id and record, edited to end at v.  A split so
        costs O(shorter half).  A node is relabelled only onto a link at
        most half as long as the one it was on, and links never grow, so a
        run over n nodes relabels at most n log2 n times.
        """
        lid = self.node_link[v]
        assert lid is not None
        ends, real, slots = self.host._ends, self.real, self.slots
        e0, e1 = first = slots[v]
        x0 = x1 = v
        passed0: list[int] = []
        passed1: list[int] = []
        while True:
            a, b = ends[e0]
            x0 = b if a == x0 else a
            if real[x0]:
                side, x, passed = 0, x0, passed0
                break
            passed0.append(x0)
            s0, s1 = slots[x0]
            e0 = s1 if e0 == s0 else s0
            a, b = ends[e1]
            x1 = b if a == x1 else a
            if real[x1]:
                side, x, passed = 1, x1, passed1
                break
            passed1.append(x1)
            s0, s1 = slots[x1]
            e1 = s1 if e1 == s0 else s0
        link = self.links[lid]
        a, b = old = link.pair
        ids = self.by_pair[old]
        ids.discard(lid)
        if not ids:
            del self.by_pair[old]
        y = b if x == a else a
        link.pair = (v, y) if v <= y else (y, v)
        link.edge = first[side ^ 1]
        self.by_pair.setdefault(link.pair, set()).add(lid)
        new = self._store_link(v, x, first[side])
        node_link = self.node_link
        for u in passed:
            node_link[u] = new
        node_link[v] = None
        slots[v] = None
        real[v] = True
        self.inner_count -= 1


def build_subdivision(
    g: MultiGraph, s0_edges, index: dict[tuple[int, int], int] | None = None
) -> Subdivision:
    """Initial subdivision from an explicit edge set, which must be a
    subdivision of K4.

    `index` is `g`'s pair index when the caller holds it, as the parsers
    and `simplify` return it with `g`.  Without it the index is built in
    one pass over `g`'s live edges, which raises `StructureError` naming
    the first doubled pair unless `g` is simple.

    Raises `StructureError` unless the set has no node of degree 1,
    exactly four branch nodes, no link that closes into a loop, no two
    links joining the same pair, and every edge on a link from a branch
    node.  Four branch nodes of degree >= 3 with at most one link per pair
    have six links, one per pair, so the set smooths to K4 and is
    connected.  The links are read with `_chain`, through the interior
    slots that the degree pass fills.
    """
    if index is None:
        try:
            index = _pair_index(g)
        except GraphUsageError as exc:
            raise StructureError(f"host is not simple: {exc}") from None
    s = Subdivision(g, index)
    ends, slots, in_edges, real = g._ends, s.slots, s.in_edges, s.real
    deg = [0] * len(g._node_alive)
    for e in s0_edges:
        if not g.edge_alive(e):
            raise StructureError(f"edge {e} is not a live host edge")
        if in_edges[e]:
            raise StructureError(f"edge {e} listed twice")
        in_edges[e] = True
        for x in ends[e]:
            d = deg[x]
            if d < 2:
                slots[x] = (e, e) if d == 0 else (slots[x][0], e)
            deg[x] = d + 1
    for v, d in enumerate(deg):
        if d == 1:
            raise StructureError(f"node {v} has degree 1 in the edge set")
        if d:
            s.in_nodes[v] = True
            s.n_nodes += 1
            if d >= 3:
                real[v] = True
                slots[v] = None
    branches = sum(real)
    if branches != 4:
        raise StructureError(f"{branches} branch nodes; a subdivision of K4 has 4")
    # Each link is read once, from its smaller end, so link ids follow the
    # branch nodes' incidences, and `_insert_link` orders slots from there.
    node_link = s.node_link
    for r, is_real in enumerate(real):
        if not is_real:
            continue
        for e, w in g._inc[r].items():
            if not in_edges[e] or node_link[w] is not None or (real[w] and w < r):
                continue
            nodes, edges = _chain(ends, slots, e)
            if nodes[0] != r:
                nodes.reverse()
                edges.reverse()
            if nodes[-1] == r:
                raise StructureError(f"link closes into a loop at node {r}")
            lid = s._insert_link(nodes, edges)
            if len(s.by_pair[s.links[lid].pair]) > 1:
                raise StructureError("two links share the same endpoints")
            s.n_edges += len(edges)
            s.inner_count += len(nodes) - 2
    if s.n_nodes != 4 + s.inner_count:
        raise StructureError("edge set contains a cycle without branch nodes")
    return s


def _free_edges(s: Subdivision, nodes) -> list[int] | None:
    """The host edges realizing a step, one lookup in `s.index` per
    consecutive pair of `nodes`.  None when some pair has no host edge or
    its edge is already in S."""
    lookup, in_edges = s.index.get, s.in_edges
    out = []
    for u, v in zip(nodes, nodes[1:]):
        e = lookup((u, v) if u < v else (v, u))
        if e is None or in_edges[e]:
            return None
        out.append(e)
    return out


def _check_path(s: Subdivision, nodes: tuple[int, ...]) -> tuple[int | None, list[int] | None]:
    """First violated attachment condition (or None) and, when the path is
    valid, the host edges realizing it.

    1: the path must meet S exactly in its two endpoints,
    2: the endpoints must not lie on one link other than as its two ends,
    3: the endpoints must not be interior to two parallel links.

    Raises `GraphUsageError` when `nodes` is no path of the host: first on
    a repeated node, then on the first dead or unknown node, then on the
    first pair that no host edge joins.
    """
    if len(nodes) < 2 or len(set(nodes)) != len(nodes):
        raise GraphUsageError("not a simple path")
    alive = s.host._node_alive
    size = len(alive)
    for v in nodes:
        if not (0 <= v < size and alive[v]):
            raise GraphUsageError(f"node {v} is not a live host node")
    edges = _free_edges(s, nodes)
    if edges is None:
        index = s.index
        for u, v in zip(nodes, nodes[1:]):
            if ((u, v) if u < v else (v, u)) not in index:
                raise GraphUsageError(f"{u}-{v} is not a host edge")
        return 1, None
    x, y = nodes[0], nodes[-1]
    in_nodes = s.in_nodes
    if not (in_nodes[x] and in_nodes[y]) or any(map(in_nodes.__getitem__, nodes[1:-1])):
        return 1, None
    node_link, links = s.node_link, s.links
    lx = node_link[x]
    ly = node_link[y]
    if lx is not None:
        px = links[lx].pair
        if ly == lx or y in px:
            return 2, None
    if ly is not None:
        py = links[ly].pair
        if x in py:
            return 2, None
        if lx is not None and px == py:
            return 3, None
    return None, edges


def apply_path_inplace(s: Subdivision, step: PathStep) -> None:
    """Attach a path step to S, realized per consecutive node pair by the
    host edge joining it.  Raises `PathRejected` or `GraphUsageError` on an
    invalid step."""
    nodes = step.nodes
    viol, edges = _check_path(s, nodes)
    if viol is not None:
        raise PathRejected(viol)
    real = s.real
    for v in (nodes[0], nodes[-1]):
        if not real[v]:
            s._split_link_at(v)
    in_nodes = s.in_nodes
    for v in nodes[1:-1]:
        in_nodes[v] = True
    s.n_nodes += len(nodes) - 2
    s.inner_count += len(nodes) - 2
    in_edges = s.in_edges
    for e in edges:
        in_edges[e] = True
    s.n_edges += len(edges)
    s._insert_link(nodes, edges)


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
        edges = _free_edges(s, arm)
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
