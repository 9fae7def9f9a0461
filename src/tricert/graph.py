"""Index-stable undirected multigraph and its edit primitives.

Node and edge ids are never compacted: deletion only flips a liveness flag
and a dead edge keeps its last endpoints.  This keeps ids valid across the
whole pipeline, which is what lets certificates refer to edges of the input
graph by index no matter how many intermediate graphs were derived from it.

A graph is simple as built: the parsers, ``from_edges`` and ``simplify``
share one builder, which keeps every line's edge id and ends but leaves a
loop line, and a line repeating an earlier line's pair, dead, and returns
the pair index from the same pass.  ``add_edge`` refuses a loop and is the
one way to a live parallel edge, which ``simplify`` merges.

The edit methods (``add_node``, ``ensure_node``, ``add_edge``,
``kill_edge``, ``kill_node``) mutate the graph; ``simplify`` returns a new
one.  ``certify`` and ``verify_*`` only read their input graph (``certify``
and ``verify_certificate`` work on a simplified copy), so one graph can be
shared between concurrent calls.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed graph input."""


# Largest DIMACS node count and edge-rep edge id the parsers accept, so a
# size field cannot make them allocate before anything else is read.
MAX_ID = 10**7


def decode_text(data: bytes, source: str = "input") -> str:
    """`data` as UTF-8 text with CRLF and lone CR read as newlines, the way
    a file opened in text mode reads; `ParseError` when it is not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: byte {exc.start} is not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


class GraphUsageError(ValueError):
    """Operation applied to a dead node/edge or otherwise out of contract."""


class MultiGraph:
    """Undirected multigraph with stable, never-reused slots.

    Each node's incidence is an insertion-ordered dict from live edge id to
    the edge's far end, so removing an edge costs O(1), and a degree is an
    incidence's length.  Live node and edge counts are fields that every
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

    __slots__ = ("_ends", "_edge_alive", "_inc", "_node_alive", "_n_nodes", "_n_edges", "labels")

    def __init__(self) -> None:
        self._ends: list[tuple[int, int] | None] = []
        self._edge_alive: list[bool] = []
        self._inc: list[dict[int, int]] = []
        self._node_alive: list[bool] = []
        self._n_nodes = 0
        self._n_edges = 0
        self.labels: list[int] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "MultiGraph":
        """Build a graph on nodes 0..n-1 (labels equal ids) whose edge e
        joins ``edges[e]``.  A ``(u, u)`` pair, and a pair an earlier one
        already joins, keeps its edge id and ends but is dead; `add_edge`
        builds a parallel edge."""
        ends = [(u, v) for u, v in edges]
        for u, v in ends:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphUsageError(f"endpoint of ({u},{v}) is not a node")
        return _build(list(range(n)), [True] * n, ends, [True] * len(ends))[0]

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
        Raises `GraphUsageError`, changing nothing, when u == v.

        A caller-supplied id below an id already at u or v breaks the
        increasing-id order of their incidences (see the class docstring).
        """
        if u == v:
            raise GraphUsageError(f"edge ({u},{v}) would be a self-loop")
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
        return len(self._inc[v])

    def incident(self, v: int) -> list[int]:
        """Live edge ids at v."""
        return list(self._inc[v])

    def neighbors(self, v: int) -> set[int]:
        return set(self._inc[v].values())

    def edge_between(self, u: int, v: int) -> int | None:
        """Smallest live edge id joining u and v, or None.

        Both must be node ids of this graph.  Only the endpoint of lower
        degree is scanned, so the cost is O(min(deg u, deg v)); callers
        that look up every edge of a simple graph, as the verifier does,
        use the pair index the parsers and `simplify` return instead.
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

    def label_to_id(self) -> dict[int, int]:
        return {self.labels[v]: v for v, a in enumerate(self._node_alive) if a}

    # -- edits ------------------------------------------------------------

    def kill_edge(self, e: int) -> None:
        if not self.edge_alive(e):
            raise GraphUsageError(f"edge {e} is not alive")
        u, v = self._ends[e]
        self._edge_alive[e] = False
        del self._inc[u][e], self._inc[v][e]
        self._n_edges -= 1

    def kill_node(self, v: int) -> None:
        if not self.node_alive(v):
            raise GraphUsageError(f"node {v} is not alive")
        if self._inc[v]:
            raise GraphUsageError(f"node {v} still has live edges")
        self._node_alive[v] = False
        self._n_nodes -= 1

    def copy(self) -> "MultiGraph":
        return _subgraph(self, self._edge_alive[:], [inc.copy() for inc in self._inc], self._n_edges)


def _subgraph(g: MultiGraph, alive: list[bool], inc: list[dict[int, int]], n_edges: int) -> MultiGraph:
    """A graph with `g`'s nodes, labels and edge ends and the `n_edges`
    live edges that `alive` flags and `inc` holds."""
    out = MultiGraph.__new__(MultiGraph)
    out._ends = g._ends[:]
    out._edge_alive = alive
    out._inc = inc
    out._node_alive = g._node_alive[:]
    out._n_nodes = g._n_nodes
    out._n_edges = n_edges
    out.labels = g.labels[:]
    return out


def _build(labels: list[int], node_alive: list[bool], ends: list,
           live: list[bool]) -> tuple[MultiGraph, dict[tuple[int, int], int]]:
    """The graph whose node i has label labels[i] and liveness flag
    node_alive[i], and whose edge e joins ends[e], with its pair index: a
    dict from each node pair ``(min, max)`` joined by a live edge to that
    edge's id.  Edge e is live exactly when live[e] is set, e is not a
    loop, and no lower live id joins the same pair; the others keep their
    ids and ends.  The four lists become the graph's own, and `live` is
    cleared in place.  Incidences are filled in increasing id."""
    inc: list[dict[int, int]] = [{} for _ in labels]
    index: dict[tuple[int, int], int] = {}
    for e, a in enumerate(live):
        if a:
            u, v = ends[e]
            if u == v or index.setdefault((u, v) if u < v else (v, u), e) != e:
                live[e] = False
            else:
                inc[u][e] = v
                inc[v][e] = u
    g = MultiGraph.__new__(MultiGraph)
    g.labels = labels
    g._node_alive = node_alive
    g._n_nodes = node_alive.count(True)
    g._ends = ends
    g._edge_alive = live
    g._inc = inc
    g._n_edges = len(index)
    return g, index


def parse_graph(data: bytes | str, fmt: str = "edge-list") -> MultiGraph:
    """Parse an edge-list or DIMACS graph.

    Node ids are assigned densely (0-based) in sorted order of the input
    labels; the original labels are kept on the graph.  The i-th edge line
    is edge id i.  A loop line ``u u`` makes u a node, and a line that
    repeats an earlier line's pair keeps its ends, but both edges are dead,
    so the graph is simple.
    """
    return _parse(data, fmt)[0]


def _parse(data: bytes | str, fmt: str | None = None) -> tuple[MultiGraph, dict[tuple[int, int], int]]:
    """`parse_graph` and the result's pair index, built in the same pass.

    With `fmt` None the text is DIMACS when its first line that is neither
    blank nor a ``#`` comment starts with a ``p`` or ``c`` record, and an
    edge list otherwise; the text is split into lines once either way."""
    if isinstance(data, bytes):
        data = decode_text(data)
    lines = data.splitlines()
    if fmt is None:
        fmt = "edge-list"
        for line in lines:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                if stripped.split()[0] in ("p", "c"):
                    fmt = "dimacs"
                break
    if fmt == "edge-list":
        return _parse_edge_list(lines)
    if fmt == "dimacs":
        return _parse_dimacs(lines)
    raise ParseError(f"unknown format {fmt!r}")


def _parse_edge_list(lines: list[str]) -> tuple[MultiGraph, dict[tuple[int, int], int]]:
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
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
    return _build(labels, [True] * len(labels), [(ids[u], ids[v]) for u, v in pairs], [True] * len(pairs))


def _parse_dimacs(lines: list[str]) -> tuple[MultiGraph, dict[tuple[int, int], int]]:
    n = m = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
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
            if n > MAX_ID:
                raise ParseError(f"line {lineno}: {n} nodes exceed the limit of {MAX_ID}")
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
    return _build(list(range(1, n + 1)), [True] * n, [(u - 1, v - 1) for u, v in pairs], [True] * len(pairs))


def serialize_graph(g: MultiGraph) -> str:
    """Sorted 'u v' lines using the original labels."""
    lines = []
    for e in g.live_edges():
        u, v = g.ends(e)
        lu, lv = g.labels[u], g.labels[v]
        lines.append((min(lu, lv), max(lu, lv)))
    lines.sort()
    return "".join(f"{u} {v}\n" for u, v in lines)


def simplify(g: MultiGraph) -> tuple[MultiGraph, dict[tuple[int, int], int]]:
    """Merge parallel edges (keeping the lowest id), and return the result
    with its pair index.  The result is simple, so until it is edited the
    index answers what `edge_between` would, in O(1).  3-connectivity is
    unaffected by the merge.

    The parsers' builder runs over copies of `g`'s labels, node flags, ends
    and edge flags, so `g` is left as it is, and the result keeps its
    incidences in increasing id even when `g` was edited out of order.
    Only `add_edge` makes a parallel edge: a parsed graph is simple already.
    """
    return _build(g.labels[:], g._node_alive[:], g._ends[:], g._edge_alive[:])


def _pair_index(g: MultiGraph) -> dict[tuple[int, int], int]:
    """`g`'s pair index, as `simplify` returns it for a simple graph.
    Raises `GraphUsageError` naming, by label, the first edge that doubles
    a pair, when `g` is not simple."""
    index: dict[tuple[int, int], int] = {}
    ends, lab = g._ends, g.labels
    for e, live in enumerate(g._edge_alive):
        if not live:
            continue
        u, v = ends[e]
        pair = (u, v) if u < v else (v, u)
        if index.setdefault(pair, e) != e:
            lu, lv = sorted((lab[u], lab[v]))
            raise GraphUsageError(f"edges {index[pair]} and {e} both join {lu} {lv}")
    return index


def _disconnects(g: MultiGraph, removed=()) -> bool:
    """Whether the live nodes of `g` outside `removed` fall into two or
    more connected components: one depth-first walk that flags each node
    as it pushes it.  Fewer than two such nodes are never disconnected."""
    flag = [not a for a in g._node_alive]
    for v in removed:
        flag[v] = True
    left = flag.count(False)
    if left < 2:
        return False
    start = flag.index(False)
    flag[start] = True
    stack = [start]
    reached = 1
    inc = g._inc
    while stack:
        for y in inc[stack.pop()].values():
            if not flag[y]:
                flag[y] = True
                reached += 1
                stack.append(y)
    return reached != left
