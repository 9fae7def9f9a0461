"""Certifying 3-connectedness test.

The pipeline simplifies the input, sparsifies a graph with more than
3(n - 1) edges to at most that many, gates the result, its growth host, on
size / connectivity / minimum degree, finds an initial K4-subdivision of
the host (or takes a prescribed one) and then grows it one attachment
path at a time until every node of the host is a branch node.  The host's
remaining edges and the edges dropped by the sparsifier then join two
branch nodes, so they are appended as single-edge steps without touching
the subdivision.  Success yields a construction-sequence certificate,
failure a witness; one found past the gates is re-validated against the
simplified input.

Determinism: all choices break ties by smallest node id, then smallest
edge id, so identical inputs give byte-identical certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .graph import GraphUsageError, MultiGraph, simplify
from .k4finder import Witness, _find_k4, _gate
from .sparsify import _forests, _keep_only
from .subdivision import (
    PathStep,
    Step,
    StructureError,
    Subdivision,
    apply_path_inplace,
    build_subdivision,
)
from .verifier import verify_witness


class InputError(ValueError):
    """Prescribed starting edge set is not a subdivision of K4 made of
    live edges of the graph."""


@dataclass(frozen=True)
class PathCertificate:
    """A construction sequence: initial edge set plus ordered steps.

    The step edge sets are pairwise disjoint and together with the initial
    edges cover every edge of the (simplified) graph.
    """

    s0_edges: tuple[int, ...]
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class CertifyResult:
    certificate: PathCertificate | None
    witness: Witness | None
    leftover_edges: tuple[int, ...] = ()

    @property
    def certified(self) -> bool:
        return self.certificate is not None


def canonical_step(sub: Subdivision, nodes) -> PathStep:
    """Normalize a path step's direction before recording it.

    An endpoint that is interior to a link goes first; when both endpoints
    are branch nodes the smaller id goes first.  The certificate transforms
    reconstruct exactly these directions.
    """
    nodes = tuple(nodes)
    x, y = nodes[0], nodes[-1]
    x_inner = sub.node_link[x] is not None
    y_inner = sub.node_link[y] is not None
    if y_inner and not x_inner:
        return PathStep(nodes[::-1])
    if not x_inner and not y_inner and x > y:
        return PathStep(nodes[::-1])
    return PathStep(nodes)


class _Worklists:
    """Where the next growth search starts, kept across the steps of one
    growth loop so no step rescans all nodes or edges.  `g` is the
    subdivision's host, the graph the loop covers.

    * `interior`: min-heap of nodes that entered S inside a link.  A node
      that has since become real is dropped when it reaches the top; a
      real node never becomes interior again.
    * `members`: min-heap of S's nodes that may still have an edge of `g`
      outside S, with `open_edges[v]` the part of v's incidence in `g` not
      yet seen covered.  A covered edge never becomes uncovered again.
    * `into_s[x]`: for a node x that a search from a branch node has
      started at, a min-heap of x's edges in `g` whose far end is in S,
      built from x's incidence the first time.  `attached` pushes an edge
      (w, x) when w joins S; a covered edge is dropped when it reaches the
      top.
    * `nbrs[x]`: x's neighbour set in `g`, built at the first search from
      x that finds no live edge in `into_s[x]`.

    These two caches let `branch_search` answer as a depth-first search
    from x that marks every node it pushes, scanning each incidence in
    edge id order, without reading x's whole incidence at each step.  Such
    a search first scans x's uncovered edges, marks every far end and
    stops at the first far end in S.  That far end sits on the smallest
    live edge in `into_s[x]`.  When there is none, the marked far ends
    are exactly x's neighbours outside S, because an edge with an end
    outside S is uncovered; they are popped in decreasing edge id, which
    is the order in which `open_edges[x]` (x's incidence in id order,
    covered edges dropped from its end) lists them backwards.  So the
    search runs the unchanged push-all search from each of them in turn,
    taking a node q as marked when it is in `parent`, or outside S and in
    `nbrs[x]`.  Every node it scans besides x is outside S, so none of
    their edges is covered.  This needs each incidence of `g` to iterate
    in increasing edge id, as `MultiGraph` keeps it, and `g` to be simple.

    Valid only while the host does not change and every step applied to
    `sub` is reported through `attached`.
    """

    __slots__ = ("g", "sub", "interior", "members", "open_edges", "into_s", "nbrs")

    def __init__(self, sub: Subdivision):
        self.g = sub.host
        self.sub = sub
        # Both lists come out sorted, so they are already heaps.
        self.interior = [v for v, lid in enumerate(sub.node_link) if lid is not None]
        self.members = [v for v, inside in enumerate(sub.in_nodes) if inside]
        self.open_edges: dict[int, list[int]] = {}
        self.into_s: dict[int, list[int]] = {}
        self.nbrs: dict[int, set[int]] = {}

    def attached(self, step: PathStep) -> None:
        """Record a path step just applied to `sub`."""
        into_s, inc = self.into_s, self.g._inc
        for v in step.inner:
            heappush(self.interior, v)
            heappush(self.members, v)
            if into_s:
                for e, y in inc[v].items():
                    heap = into_s.get(y)
                    if heap is not None:
                        heappush(heap, e)

    def first_interior(self) -> int:
        """Smallest node interior to a link of `sub` (one must exist)."""
        heap, node_link = self.interior, self.sub.node_link
        while node_link[heap[0]] is None:
            heappop(heap)
        return heap[0]

    def first_open_member(self) -> int | None:
        """Smallest node of `sub` with an edge of `g` outside `sub`."""
        heap, in_edges = self.members, self.sub.in_edges
        while heap:
            v = heap[0]
            pending = self.open_edges.get(v)
            if pending is None:
                pending = self.open_edges[v] = list(self.g._inc[v])
            while pending and in_edges[pending[-1]]:
                pending.pop()
            if pending:
                return v
            heappop(heap)
            del self.open_edges[v]
        return None

    def next_path(self):
        g, sub = self.g, self.sub
        if sub.n_edges >= g.n_live_edges:
            raise GraphUsageError("subdivision already covers the graph")
        if sub.inner_count:
            return _search_from_link_interior(g, sub, self.first_interior())
        x = self.first_open_member()
        if x is None:
            raise GraphUsageError("no remaining edge leaves the subdivision")
        return self.branch_search(x)

    def branch_search(self, x: int):
        """Path from open member x, a branch node, through nodes outside S
        back to S, or a cut-vertex witness when none exists."""
        sub = self.sub
        in_edges, in_nodes = sub.in_edges, sub.in_nodes
        inc = self.g._inc
        inc_x = inc[x]
        heap = self.into_s.get(x)
        if heap is None:
            # Built in id order, so already a heap.
            heap = self.into_s[x] = [e for e, y in inc_x.items() if in_nodes[y] and not in_edges[e]]
        while heap and in_edges[heap[0]]:
            heappop(heap)
        if heap:
            return canonical_step(sub, (x, inc_x[heap[0]]))
        nbrs = self.nbrs.get(x)
        if nbrs is None:
            nbrs = self.nbrs[x] = self.g.neighbors(x)
        parent = {x: -1}
        for e in reversed(self.open_edges[x]):
            if in_edges[e]:
                continue
            r = inc_x[e]
            parent[r] = x
            stack = [r]
            while stack:
                p = stack.pop()
                for q in inc[p].values():
                    if q in parent:
                        continue
                    if in_nodes[q]:
                        parent[q] = p
                        path = [q]
                        while path[-1] != x:
                            path.append(parent[path[-1]])
                        return canonical_step(sub, path[::-1])
                    if q in nbrs:
                        continue
                    parent[q] = p
                    stack.append(q)
        return Witness("cut_vertex", (x,))


def _search_from_link_interior(g: MultiGraph, sub: Subdivision, x: int):
    """Path from x, interior to a link, to a node of S off that link and
    off its parallels, or a separation-pair witness on the link's ends.

    A depth-first search from x that marks a node when it pushes it and
    scans each incidence in edge id order; the link's two ends are marked
    before it starts, so it never enters them.  A node is on the link or a
    parallel one when its link id is in `by_pair` under the link's ends.
    """
    node_link, in_nodes, inc = sub.node_link, sub.in_nodes, g._inc
    ta, tb = pair = sub.links[node_link[x]].pair
    parallel = sub.by_pair[pair]
    parent = {x: -1, ta: -1, tb: -1}
    stack = [x]
    while stack:
        p = stack.pop()
        for q in inc[p].values():
            if q in parent:
                continue
            if in_nodes[q] and node_link[q] not in parallel:
                # Trim to start at the last node lying on the link or a
                # parallel link; x itself is one.
                path = [q, p]
                while node_link[p] not in parallel:
                    p = parent[p]
                    path.append(p)
                path.reverse()
                return canonical_step(sub, path)
            parent[q] = p
            stack.append(q)
    return Witness("separation_pair", pair)


def certify(g_raw: MultiGraph, prescribed_s0=None) -> CertifyResult:
    """Test 3-connectedness, producing a certificate or a witness.

    Pure function: safe to run concurrently on distinct inputs.  Runs
    `_certify` on the simplified input, which keeps the input's edge ids.
    """
    return _certify(*simplify(g_raw), prescribed_s0)


def _certify(g_s: MultiGraph, index: dict[tuple[int, int], int], prescribed_s0=None) -> CertifyResult:
    """`certify` on a simple graph and its pair index, as the parsers and
    `simplify` return them; both are only read.

    First comes the growth host `g_w`.  With m <= 3(n - 1) edges, the
    sparsifier's bound, it is `g_s` with `index`, and nothing is left
    over.  With more, it is the sparsified graph with the live prescribed
    S0 edges put back, filtered with its index out of `g_s` and `index`.
    That graph keeps `g_s`'s nodes, a spanning forest and min(degree, 3)
    edges at each node, so `_gate` gives the same answer on it as on `g_s`
    and names the same node.  The gates run once, on `g_w`, before a dead
    prescribed edge raises `InputError`.  Removing at most two nodes leaves
    `g_w` with the components of `g_s` minus them (see `sparsify`), so a
    witness the search finds there refutes the input too.  It is checked
    against `g_s`, and one that fails raises AssertionError.
    """

    def refuted(w: Witness) -> CertifyResult:
        if not verify_witness(g_s, w):
            raise AssertionError(f"witness {w} found on the growth host does not hold on the input")
        return CertifyResult(None, w)

    # The sparsifier's forests hold at most 3(n - 1) edges, so a graph
    # within that bound is its own sparsified graph.
    if g_s.n_live_edges <= 3 * (g_s.n_live_nodes - 1):
        g_w, index_w, leftover = g_s, index, ()
    else:
        _, keep = _forests(g_s)
        for e in prescribed_s0 or ():
            if g_s.edge_alive(e):
                keep[e] = True
        g_w = _keep_only(g_s, keep)
        index_w = {p: e for p, e in index.items() if keep[e]}
        leftover = tuple(e for e in g_s.live_edges() if not keep[e])
    w = _gate(g_w)
    if w is not None:
        return CertifyResult(None, w)
    for e in prescribed_s0 or ():
        if not g_s.edge_alive(e):
            raise InputError(f"prescribed edge {e} is not in the graph")
    if prescribed_s0 is None:
        sub = _find_k4(g_w, index_w)
        if isinstance(sub, Witness):
            return refuted(sub)
        s0_ids = tuple(sorted(sub.edge_ids()))
    else:
        s0_ids = tuple(sorted(prescribed_s0))
        try:
            sub = build_subdivision(g_w, s0_ids, index_w)
        except StructureError as exc:
            raise InputError(str(exc)) from exc

    steps: list[Step] = []
    worklists = _Worklists(sub)
    while sub.inner_count or sub.n_nodes < g_w.n_live_nodes:
        nxt = worklists.next_path()
        if isinstance(nxt, Witness):
            return refuted(nxt)
        before = sub.n_edges
        apply_path_inplace(sub, nxt)
        worklists.attached(nxt)
        assert sub.n_edges > before
        steps.append(nxt)

    # Every node of g_w is now a branch node, so each edge of g_w outside S,
    # and then each edge the sparsifier dropped, joins two branch nodes and
    # is a single-edge step with nothing to check.
    uncovered = [e for e in g_w.live_edges() if not sub.in_edges[e]]
    for e in (*uncovered, *leftover):
        u, v = g_s.ends(e)
        steps.append(PathStep((min(u, v), max(u, v))))

    cert = PathCertificate(s0_edges=s0_ids, steps=tuple(steps))
    return CertifyResult(cert, None, leftover)
