"""Certifying 3-connectedness test.

The pipeline simplifies the input, gates on size / connectivity / minimum
degree, sparsifies to O(n) edges, finds an initial K4-subdivision (or takes
a prescribed one) and then grows it one attachment path at a time until it
covers the sparsified graph; edges dropped by the sparsifier are appended
as single-edge steps (their endpoints are branch nodes by then).  Success
yields a construction-sequence certificate, failure a witness that is
re-validated against the original input.

Determinism: all choices break ties by smallest node id, then smallest
edge id, so identical inputs give byte-identical certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .graph import (
    GraphUsageError,
    MultiGraph,
    SimplifyReport,
    connected_components,
    simplify,
)
from .k4finder import Witness, find_k4_subdivision
from .sparsify import sparsify3
from .subdivision import (
    PathStep,
    Step,
    StructureError,
    Subdivision,
    apply_path_inplace,
    build_subdivision,
)
from .verifier import _check_witness


class InputError(ValueError):
    """Prescribed starting subdivision is structurally unusable."""


@dataclass(frozen=True)
class PathCertificate:
    """A construction sequence: initial edge set plus ordered steps.

    The step edge sets are pairwise disjoint and together with the initial
    edges cover every edge of the (simplified) graph.
    """

    s0_edges: tuple[int, ...]
    steps: tuple[Step, ...]
    basic: bool = False


@dataclass(frozen=True)
class CertifyResult:
    certificate: PathCertificate | None
    witness: Witness | None
    simplify_report: SimplifyReport
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


def find_next_path(g: MultiGraph, sub: Subdivision):
    """One growth step: an attachment path for `sub` found inside `g`,
    or a Witness when the search proves a small separator.

    `g` is the graph being covered: simple, with incidences in edge id
    order (as `simplify` leaves them), and possibly a spanning subgraph of
    the subdivision's host (same ids).  Raises when `sub` already covers
    `g`.
    """
    return _Worklists(g, sub).next_path()


class _Worklists:
    """Where the next growth search starts, kept across the steps of one
    growth loop so no step rescans all nodes or edges.

    * `interior`: min-heap of nodes that entered S inside a link.  A node
      that has since become real is dropped when it reaches the top; a
      real node never becomes interior again.
    * `members`: min-heap of S's nodes that may still have an edge of `g`
      outside S, with `open_edges[v]` the part of v's incidence in `g` not
      yet seen covered.  A covered edge never becomes uncovered again.
    * `edges` / `edge_pos`: `g`'s live edges in id order; those before
      `edge_pos` are covered.
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

    Valid only for the `g` it was built on, which must not change, and only
    while every step applied to `sub` is reported through `attached`.
    """

    __slots__ = ("g", "sub", "interior", "members", "open_edges", "edges", "edge_pos", "into_s", "nbrs")

    def __init__(self, g: MultiGraph, sub: Subdivision):
        self.g = g
        self.sub = sub
        # Both lists come out sorted, so they are already heaps.
        self.interior = [v for v, lid in enumerate(sub.node_link) if lid is not None]
        self.members = [v for v, inside in enumerate(sub.in_nodes) if inside]
        self.open_edges: dict[int, list[int]] = {}
        self.edges: list[int] | None = None
        self.edge_pos = 0
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

    def first_open_edge(self) -> int:
        """Smallest edge of `g` outside `sub` (one must exist)."""
        if self.edges is None:
            self.edges = self.g.live_edges()
        in_edges = self.sub.in_edges
        while in_edges[self.edges[self.edge_pos]]:
            self.edge_pos += 1
        return self.edges[self.edge_pos]

    def next_path(self):
        g, sub = self.g, self.sub
        if sub.n_edges >= g.n_live_edges:
            raise GraphUsageError("subdivision already covers the graph")
        if sub.inner_count:
            return _search_from_link_interior(g, sub, self.first_interior())
        if sub.n_nodes == g.n_live_nodes:
            u, v = g.ends(self.first_open_edge())
            return canonical_step(sub, (min(u, v), max(u, v)))
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
    t_lid = sub.node_link[x]
    link = sub.links[t_lid]
    ta, tb = link.endpoints
    t_pair = link.pair

    def on_parallel(v: int) -> bool:
        # Interior to the link or to a link parallel to it.
        lid = sub.node_link[v]
        return lid is not None and sub.links[lid].pair == t_pair

    parent = {x: -1}
    stack = [x]
    goal = None
    while stack and goal is None:
        p = stack.pop()
        for q in g._inc[p].values():
            if q in parent or q == ta or q == tb:
                continue
            parent[q] = p
            # Target: V(S) minus the link's nodes minus interiors of parallel links.
            if sub.in_nodes[q] and not on_parallel(q):
                goal = q
                break
            stack.append(q)
    if goal is None:
        return Witness("separation_pair", (min(ta, tb), max(ta, tb)))

    path = [goal]
    while path[-1] != x:
        path.append(parent[path[-1]])
    path.reverse()
    # Trim to start at the last node lying on the link or a parallel link.
    start = 0
    for idx, v in enumerate(path[:-1]):
        if on_parallel(v):
            start = idx
    return canonical_step(sub, path[start:])


def certify(
    g_raw: MultiGraph,
    prescribed_s0=None,
    want_basic: bool = False,
    use_sparsify: bool = True,
) -> CertifyResult:
    """Test 3-connectedness, producing a certificate or a witness.

    Pure function: safe to run concurrently on distinct inputs.  A witness
    discovered on the sparsified graph is re-validated against the original
    input; in the unlikely event it does not transfer, the test reruns
    without sparsification, where witnesses are conclusive.
    """
    result = _certify_once(g_raw, prescribed_s0, want_basic, use_sparsify)
    if result is None:
        result = _certify_once(g_raw, prescribed_s0, want_basic, False)
    if result is None:
        raise AssertionError("witness failed validation on the unsparsified graph")
    return result


def _certify_once(g_raw, prescribed_s0, want_basic, use_sparsify) -> CertifyResult | None:
    g_s, report = simplify(g_raw)

    def refuted(w: Witness) -> CertifyResult | None:
        if not _check_witness(g_s, w):
            return None if use_sparsify else _fail_hard(w)
        return CertifyResult(None, w, report)

    if g_s.n_live_nodes < 4:
        return CertifyResult(None, Witness("too_few_nodes"), report)
    if len(connected_components(g_s)) > 1:
        return CertifyResult(None, Witness("disconnected"), report)
    for v in g_s.live_nodes():
        if g_s.degree(v) < 3:
            return CertifyResult(None, Witness("low_degree", (v,)), report)

    if use_sparsify:
        g_w, forests = sparsify3(g_s)
        if prescribed_s0 is not None:
            for e in prescribed_s0:
                if not g_s.edge_alive(e):
                    raise InputError(f"prescribed edge {e} is not in the graph")
            # Filter rather than re-add, so incidences stay in id order.
            keep = forests.kept.union(prescribed_s0)
            g_w = g_s.copy()
            for e in g_s.live_edges():
                if e not in keep:
                    g_w.kill_edge(e)
    else:
        g_w = g_s

    if prescribed_s0 is not None:
        try:
            sub = build_subdivision(g_s, sorted(prescribed_s0))
        except StructureError as exc:
            raise InputError(str(exc)) from exc
        s0_ids = tuple(sorted(prescribed_s0))
    else:
        found = find_k4_subdivision(g_w)
        if isinstance(found, Witness):
            return refuted(found)
        # Rebuild against the full simplified graph so leftover edges can be
        # appended later; ids are shared between g_w and g_s.
        s0_ids = tuple(sorted(found.edge_ids()))
        sub = build_subdivision(g_s, s0_ids)

    steps: list[Step] = []
    target = g_w.n_live_edges
    worklists = _Worklists(g_w, sub)
    while sub.n_edges < target:
        nxt = worklists.next_path()
        if isinstance(nxt, Witness):
            return refuted(nxt)
        before = sub.n_edges
        apply_path_inplace(sub, nxt)
        worklists.attached(nxt)
        assert sub.n_edges > before
        steps.append(nxt)

    leftover = tuple(
        e for e in g_s.live_edges() if not sub.in_edges[e]
    )
    for e in sorted(leftover):
        u, v = g_s.ends(e)
        step = canonical_step(sub, (min(u, v), max(u, v)))
        apply_path_inplace(sub, step, (e,))
        steps.append(step)

    cert = PathCertificate(s0_edges=s0_ids, steps=tuple(steps), basic=False)
    if want_basic:
        from .transforms import to_basic

        cert = to_basic(g_s, cert)
    return CertifyResult(cert, None, report, tuple(sorted(leftover)))


def _fail_hard(w: Witness) -> CertifyResult:
    raise AssertionError(f"invalid witness {w} produced on unsparsified input")
