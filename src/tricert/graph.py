"""Index-stable undirected multigraph and its edit primitives.

Node and edge ids are never compacted: deletion only flips a liveness flag
and a dead edge keeps its last endpoints.  This keeps ids valid across the
whole pipeline, which is what lets certificates refer to edges of the input
graph by index no matter how many intermediate graphs were derived from it.

The edit methods (``add_node``, ``ensure_node``, ``add_edge``,
``kill_edge``, ``kill_node``) and the ``_inplace`` helpers mutate the graph
they are given; ``contract_edge`` and ``simplify`` return a new graph.
``certify`` and ``verify_*`` only read their input graph (they work on a
simplified copy), so one graph can be shared between concurrent calls.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParseError(ValueError):
    """Malformed graph input."""


class GraphUsageError(ValueError):
    """Operation applied to a dead node/edge or otherwise out of contract."""


class ContractError(ValueError):
    """Edge contraction applied to a self-loop or dead edge."""


class MultiGraph:
    """Undirected multigraph with stable, never-reused slots.

    Each node's incidence is an insertion-ordered dict from live edge id to
    the edge's far end, so removing an edge costs O(1); a self-loop is one
    entry mapping to its own node.  ``degree`` counts a self-loop twice, as
    ``incident`` lists it.  Live node and edge counts are fields that every
    edit keeps current.

    Invariant: every incidence dict iterates in increasing edge id.  The
    constructors and parsers build it that way, ``add_edge`` without an id
    appends the largest id yet, and ``kill_edge`` and ``copy`` keep the
    order; ``simplify`` restores it.  ``add_edge`` with a caller-supplied
    id is the one edit that can break it.  The searches of ``certify``
    (sparsifier, K4 start, growth steps) read incidences in this order
    instead of sorting them, which is what makes their tie-breaks follow
    edge ids.
    """

    __slots__ = ("_ends", "_edge_alive", "_inc", "_loops", "_node_alive", "_n_nodes", "_n_edges", "labels")

    def __init__(self) -> None:
        self._ends: list[tuple[int, int] | None] = []
        self._edge_alive: list[bool] = []
        self._inc: list[dict[int, int]] = []
        self._loops: dict[int, int] = {}  # node -> live self-loops there
        self._node_alive: list[bool] = []
        self._n_nodes = 0
        self._n_edges = 0
        self.labels: list[int] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "MultiGraph":
        """Build a graph on nodes 0..n-1 (labels equal ids)."""
        return _from_pairs(list(range(n)), edges)

    def add_node(self, label: int | None = None) -> int:
        nid = len(self._node_alive)
        self._node_alive.append(True)
        self._inc.append({})
        self.labels.append(nid if label is None else label)
        self._n_nodes += 1
        return nid

    def ensure_node(self, nid: int, label: int | None = None) -> int:
        """Make node id `nid` exist and be alive (used by replays)."""
        while len(self._node_alive) <= nid:
            self._node_alive.append(False)
            self._inc.append({})
            self.labels.append(len(self.labels))
        if self._node_alive[nid]:
            raise GraphUsageError(f"node {nid} already alive")
        self._node_alive[nid] = True
        self._n_nodes += 1
        if label is not None:
            self.labels[nid] = label
        return nid

    def add_edge(self, u: int, v: int, eid: int | None = None) -> int:
        """Add a live edge.  A caller-supplied id may only fill a dead slot.

        A caller-supplied id below an id already at u or v breaks the
        increasing-id order of their incidences (see the class docstring).
        """
        if not (self._node_alive[u] and self._node_alive[v]):
            raise GraphUsageError(f"endpoint of ({u},{v}) is dead")
        if eid is None:
            eid = len(self._ends)
            self._ends.append((u, v))
            self._edge_alive.append(True)
        else:
            while len(self._ends) <= eid:
                self._ends.append(None)
                self._edge_alive.append(False)
            if self._edge_alive[eid]:
                raise GraphUsageError(f"edge id {eid} already alive")
            self._ends[eid] = (u, v)
            self._edge_alive[eid] = True
        inc = self._inc
        inc[u][eid] = v
        inc[v][eid] = u
        if u == v:
            self._loops[u] = self._loops.get(u, 0) + 1
        self._n_edges += 1
        return eid

    # -- queries ----------------------------------------------------------

    def node_alive(self, v: int) -> bool:
        return 0 <= v < len(self._node_alive) and self._node_alive[v]

    def edge_alive(self, e: int) -> bool:
        return 0 <= e < len(self._edge_alive) and self._edge_alive[e]

    def ends(self, e: int) -> tuple[int, int]:
        ends = self._ends[e]
        if ends is None:
            raise GraphUsageError(f"edge {e} was never created")
        return ends

    def other_end(self, e: int, v: int) -> int:
        u, w = self.ends(e)
        return w if u == v else u

    def degree(self, v: int) -> int:
        return len(self._inc[v]) + self._loops.get(v, 0)

    def incident(self, v: int) -> list[int]:
        """Live edge ids at v (self-loops listed twice)."""
        inc = self._inc[v]
        if v not in self._loops:
            return list(inc)
        return [x for e, w in inc.items() for x in ((e, e) if w == v else (e,))]

    def neighbors(self, v: int) -> set[int]:
        return set(self._inc[v].values())

    def edge_between(self, u: int, v: int) -> int | None:
        """Smallest live edge id joining u and v, or None.

        Both must be node ids of this graph.  Only the endpoint of lower
        degree is scanned, so the cost is O(min(deg u, deg v)).
        """
        inc = self._inc[u]
        if len(self._inc[v]) < len(inc):
            inc, v = self._inc[v], u
        best = None
        for e, w in inc.items():
            if w == v and (best is None or e < best):
                best = e
        return best

    def live_nodes(self) -> list[int]:
        return [v for v, a in enumerate(self._node_alive) if a]

    def live_edges(self) -> list[int]:
        return [e for e, a in enumerate(self._edge_alive) if a]

    @property
    def n_live_nodes(self) -> int:
        return self._n_nodes

    @property
    def n_live_edges(self) -> int:
        return self._n_edges

    def min_degree(self) -> int:
        return min((self.degree(v) for v in self.live_nodes()), default=0)

    def label_to_id(self) -> dict[int, int]:
        return {self.labels[v]: v for v, a in enumerate(self._node_alive) if a}

    # -- edits ------------------------------------------------------------

    def kill_edge(self, e: int) -> None:
        if not self.edge_alive(e):
            raise GraphUsageError(f"edge {e} is not alive")
        u, v = self._ends[e]
        self._edge_alive[e] = False
        del self._inc[u][e]
        if u != v:
            del self._inc[v][e]
        elif self._loops[u] == 1:
            del self._loops[u]
        else:
            self._loops[u] -= 1
        self._n_edges -= 1

    def kill_node(self, v: int) -> None:
        if not self.node_alive(v):
            raise GraphUsageError(f"node {v} is not alive")
        if self._inc[v]:
            raise GraphUsageError(f"node {v} still has live edges")
        self._node_alive[v] = False
        self._n_nodes -= 1

    def copy(self) -> "MultiGraph":
        g = MultiGraph.__new__(MultiGraph)
        g._ends = self._ends[:]
        g._edge_alive = self._edge_alive[:]
        g._inc = [inc.copy() for inc in self._inc]
        g._loops = self._loops.copy()
        g._node_alive = self._node_alive[:]
        g._n_nodes = self._n_nodes
        g._n_edges = self._n_edges
        g.labels = self.labels[:]
        return g


def _from_pairs(labels: list[int], pairs) -> MultiGraph:
    """Graph whose node i has label labels[i] and whose edge e joins
    pairs[e]: what add_node / add_edge calls in that order build, in one
    pass without the method calls."""
    g = MultiGraph()
    n = len(labels)
    g.labels = labels
    g._node_alive = [True] * n
    g._n_nodes = n
    inc = g._inc = [{} for _ in range(n)]
    ends = g._ends
    for eid, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphUsageError(f"endpoint of ({u},{v}) is not a node")
        inc[u][eid] = v
        inc[v][eid] = u
        if u == v:
            g._loops[u] = g._loops.get(u, 0) + 1
        ends.append((u, v))
    g._edge_alive = [True] * len(ends)
    g._n_edges = len(ends)
    return g


@dataclass(frozen=True)
class SimplifyReport:
    """What `simplify` removed.  3-connectivity is unaffected by either kind."""

    removed_self_loops: int = 0
    merged_parallel_classes: tuple[tuple[int, tuple[int, ...]], ...] = ()


def parse_graph(data: bytes | str, fmt: str = "edge-list") -> MultiGraph:
    """Parse an edge-list or DIMACS graph.

    Node ids are assigned densely (0-based) in sorted order of the input
    labels; the original labels are kept on the graph.  Duplicate lines
    become parallel edges.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if fmt == "edge-list":
        return _parse_edge_list(data)
    if fmt == "dimacs":
        return _parse_dimacs(data)
    raise ParseError(f"unknown format {fmt!r}")


def _parse_edge_list(text: str) -> MultiGraph:
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer node label") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative node label")
        pairs.append((u, v))
    labels = sorted({x for p in pairs for x in p})
    ids = {lab: i for i, lab in enumerate(labels)}
    return _from_pairs(labels, [(ids[u], ids[v]) for u, v in pairs])


def _parse_dimacs(text: str) -> MultiGraph:
    n = m = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"line {lineno}: bad problem line")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad problem line") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative size")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer node label") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: node label out of range 1..{n}")
            pairs.append((u, v))
        else:
            raise ParseError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise ParseError("missing problem line")
    if m is not None and m != len(pairs):
        raise ParseError(f"problem line declares {m} edges, found {len(pairs)}")
    return _from_pairs(list(range(1, n + 1)), [(u - 1, v - 1) for u, v in pairs])


def serialize_graph(g: MultiGraph) -> str:
    """Sorted 'u v' lines using the original labels."""
    lines = []
    for e in g.live_edges():
        u, v = g.ends(e)
        lu, lv = g.labels[u], g.labels[v]
        lines.append((min(lu, lv), max(lu, lv)))
    lines.sort()
    return "".join(f"{u} {v}\n" for u, v in lines)


def simplify(g: MultiGraph) -> tuple[MultiGraph, SimplifyReport]:
    """Drop self-loops and merge parallel edges (keeping the lowest id).

    The incidences are rebuilt in one pass over the edge ids, so the result
    keeps them in increasing id even when `g` was edited out of order.
    """
    out = MultiGraph.__new__(MultiGraph)
    ends = out._ends = g._ends[:]
    alive = out._edge_alive = g._edge_alive[:]
    inc = out._inc = [{} for _ in g._inc]
    out._loops = {}
    out._node_alive = g._node_alive[:]
    out._n_nodes = g._n_nodes
    out.labels = g.labels[:]
    loops = 0
    first: dict[tuple[int, int], int] = {}
    dups: dict[tuple[int, int], list[int]] = {}
    for e, live in enumerate(g._edge_alive):
        if not live:
            continue
        u, v = ends[e]
        if u == v:
            alive[e] = False
            loops += 1
            continue
        pair = (u, v) if u < v else (v, u)
        if first.setdefault(pair, e) != e:
            alive[e] = False
            dups.setdefault(pair, []).append(e)
            continue
        inc[u][e] = v
        inc[v][e] = u
    out._n_edges = len(first)
    merged = tuple((first[pair], tuple(dups[pair])) for pair in sorted(dups))
    return out, SimplifyReport(loops, merged)


def smooth_inplace(g: MultiGraph, v: int, reuse_edge_id: int | None = None) -> int:
    """Replace a degree-2 node by an edge between its two neighbors; returns
    the replacement edge id.

    Raises `GraphUsageError`, leaving `g` unchanged, unless v is alive with
    degree 2, two distinct neighbors and no self-loop.  `reuse_edge_id` may
    name a dead slot to receive the replacement edge; by default a fresh id
    is used.  Endpoints are stored as (far end of the lower-id incident
    edge, far end of the higher-id one) for determinism.
    """
    if not g.node_alive(v):
        raise GraphUsageError(f"node {v} is not alive")
    inc = g._inc[v]
    if len(inc) != 2:
        raise GraphUsageError(f"node {v} does not have two incident edges")
    e1, e2 = sorted(inc)
    p, q = inc[e1], inc[e2]
    if p == q or v in (p, q):
        raise GraphUsageError(f"node {v} does not have two distinct neighbors")
    g.kill_edge(e1)
    g.kill_edge(e2)
    g.kill_node(v)
    return g.add_edge(p, q, eid=reuse_edge_id)


def contract_edge(g: MultiGraph, e: int) -> MultiGraph:
    """Contract edge e into its lower-id endpoint.

    Parallel classes arising at the merged node are collapsed to their
    lowest-id edge and self-loops created by the identification are dropped,
    so a simple graph stays simple.
    """
    if not g.edge_alive(e):
        raise ContractError(f"edge {e} is not alive")
    u, v = g.ends(e)
    if u == v:
        raise ContractError(f"edge {e} is a self-loop")
    out = g.copy()
    contract_edge_inplace(out, e)
    return out


def contract_edge_inplace(g: MultiGraph, e: int) -> int:
    u, v = g.ends(e)
    s, t = min(u, v), max(u, v)
    g.kill_edge(e)
    # Rewire every live edge at t; copies of e become loops at s and die.
    for eid in list(g._inc[t]):
        a, b = g.ends(eid)
        na = s if a == t else a
        nb = s if b == t else b
        g.kill_edge(eid)
        if na == nb == s:
            continue
        g.add_edge(na, nb, eid=eid)
    g.kill_node(t)
    # Merge parallel classes at the survivor.
    groups: dict[int, list[int]] = {}
    for eid, other in g._inc[s].items():
        groups.setdefault(other, []).append(eid)
    for other in sorted(groups):
        eids = sorted(groups[other])
        for dup in eids[1:]:
            g.kill_edge(dup)
    return s


def connected_components(g: MultiGraph) -> list[set[int]]:
    """Partition of the live nodes into connected sets, ordered by minimum."""
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in g.live_nodes():
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g._inc[x].values():
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(comp)
    return comps
