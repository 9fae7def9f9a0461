"""Shared graph builders for the test suite."""

from __future__ import annotations

import random

from tricert import GraphUsageError, MultiGraph, PathCertificate, PathStep

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def multigraph(n: int, pairs) -> MultiGraph:
    """Nodes 0..n-1 and edge e joining pairs[e], a repeated pair included as
    a live parallel edge.  Built with `add_edge`: the parsers and
    `from_edges` leave a repeated pair dead."""
    g = MultiGraph.from_edges(n, [])
    for u, v in pairs:
        g.add_edge(u, v)
    return g


def k4() -> MultiGraph:
    return MultiGraph.from_edges(4, K4_EDGES)


def complete(n: int) -> MultiGraph:
    return MultiGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n: int) -> MultiGraph:
    return MultiGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> MultiGraph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return MultiGraph.from_edges(10, edges)


def gnp(n: int, p: float, seed: int) -> MultiGraph:
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return MultiGraph.from_edges(n, edges)


def from_mask(n: int, mask: int) -> MultiGraph:
    """Graph on n nodes from a bitmask over the ordered pair list."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    return MultiGraph.from_edges(n, edges)


def components(g: MultiGraph) -> list[set[int]]:
    """Partition of the live nodes into connected sets, ordered by minimum:
    the reference for `graph._disconnects`."""
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in g.live_nodes():
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def components_without(g: MultiGraph, removed) -> list[set[int]]:
    """`components` of a copy of `g` with the nodes `removed` deleted."""
    h = g.copy()
    for v in removed:
        for e in h.incident(v):
            h.kill_edge(e)
        h.kill_node(v)
    return components(h)


def min_degree(g: MultiGraph) -> int:
    return min((g.degree(v) for v in g.live_nodes()), default=0)


def contract(g: MultiGraph, u: int, v: int) -> MultiGraph:
    """`g` with its edge u-v contracted into the smaller id: the pairs are
    relabelled, loops dropped and parallels merged.  Node ids are kept and
    the larger end dies; edge ids are renumbered."""
    assert g.edge_between(u, v) is not None
    s, t = min(u, v), max(u, v)
    pairs = {tuple(sorted(s if x == t else x for x in g.ends(e))) for e in g.live_edges()}
    out = MultiGraph.from_edges(len(g.labels), sorted(p for p in pairs if p[0] != p[1]))
    for x in range(len(g.labels)):
        if x == t or not g.node_alive(x):
            out.kill_node(x)
    return out


def counterexample_graph() -> MultiGraph:
    """K4 on labels 1..4 plus a fifth node adjacent to 1, 2, 3.

    Prescribing the K4 forces a parallel-making step: no basic sequence
    exists from that start, but a non-basic one does.
    """
    text = "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n1 5\n2 5\n3 5\n"
    from tricert import parse_graph

    return parse_graph(text)


# Instance from the worked example: a K4-subdivision S0 with branch nodes
# a, c, d, f grown by the path e -> h -> g.  Labels chosen so the lowest
# interior node id is e (the search start the sequence expects).
FIG_IDS = {"a": 0, "e": 1, "h": 2, "g": 3, "b": 4, "c": 5, "d": 6, "f": 7}

_FIG_S0_EDGES = [
    ("a", "b"), ("b", "c"), ("a", "e"), ("e", "f"), ("d", "g"),
    ("g", "f"), ("a", "d"), ("c", "f"), ("c", "d"),
]
_FIG_C0_EDGES = [("e", "h"), ("h", "g")]


def figure_host() -> tuple[MultiGraph, list[int], list[int]]:
    """Returns (graph S1, ids of the S0 edges, ids of the added-path edges)."""
    g = MultiGraph()
    for _ in range(8):
        g.add_node()
    s0 = [g.add_edge(FIG_IDS[u], FIG_IDS[v]) for u, v in _FIG_S0_EDGES]
    c0 = [g.add_edge(FIG_IDS[u], FIG_IDS[v]) for u, v in _FIG_C0_EDGES]
    return g, s0, c0


def k3n(n: int) -> MultiGraph:
    """K_{3,n}: hubs 0, 1, 2, each joined to the leaves 3 .. n+2."""
    return MultiGraph.from_edges(n + 3, [(h, 3 + i) for i in range(n) for h in range(3)])


def wheel(n: int) -> MultiGraph:
    """W_n: hub 0 joined to every node of the rim cycle 1 .. n-1."""
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return MultiGraph.from_edges(n, rim + [(0, i) for i in range(1, n)])


def circular_ladder(k: int) -> MultiGraph:
    """Two k-cycles 0 .. k-1 and k .. 2k-1 joined by the rungs (i, k+i)."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return MultiGraph.from_edges(2 * k, edges)


def torus(k: int) -> MultiGraph:
    """The 3 x k torus: node r*k + c joined to its row and column
    neighbours, rows and columns wrapping around."""
    edges = []
    for r in range(3):
        for c in range(k):
            v = r * k + c
            edges.append((v, r * k + (c + 1) % k))
            edges.append((v, (r + 1) % 3 * k + c))
    return MultiGraph.from_edges(3 * k, edges)


def glued_on_pair(a: MultiGraph, b: MultiGraph) -> MultiGraph:
    """Disjoint union of a and b with b's nodes 0 and 1 identified with
    a's nodes 0 and 1: {0, 1} separates the result."""
    n = a.n_live_nodes
    ids = {0: 0, 1: 1}
    for v in range(2, b.n_live_nodes):
        ids[v] = n + v - 2
    edges = [a.ends(e) for e in a.live_edges()]
    for e in b.live_edges():
        u, v = b.ends(e)
        if {ids[u], ids[v]} != {0, 1}:
            edges.append((ids[u], ids[v]))
    return MultiGraph.from_edges(n + b.n_live_nodes - 2, edges)


def dense_3_connected(n: int, extra: int, seed: int) -> MultiGraph:
    """gen_3_connected(n, seed) plus `extra` seeded random new edges.

    Still simple and 3-connected.  Its certificates usually hold
    parallel-making paths, which `to_basic` turns into expands.
    """
    from tricert import gen_3_connected

    g = gen_3_connected(n, seed)
    if extra > n * (n - 1) // 2 - g.n_live_edges:
        raise ValueError("too many extra edges for n")
    rng = random.Random(seed)
    pairs = sorted({tuple(sorted(g.ends(e))) for e in g.live_edges()})
    have = set(pairs)
    want = len(pairs) + extra
    while len(pairs) < want:
        u, v = rng.randrange(n), rng.randrange(n)
        pair = (min(u, v), max(u, v))
        if u != v and pair not in have:
            have.add(pair)
            pairs.append(pair)
    return MultiGraph.from_edges(n, pairs)


def hoist_single_edges(g: MultiGraph, cert):
    """The certificate with each single-edge step moved to just after the
    step that first makes both its endpoints branch nodes.

    A branch node stays one, so the moved step is still a valid attachment,
    and it adds a link without interior nodes, which leaves every later
    step valid.  Where a link with interior nodes already joins its two
    endpoints, the moved step is parallel-making.
    """
    from tricert import PathCertificate
    from tricert.subdivision import apply_step_inplace, build_subdivision

    sub = build_subdivision(g, cert.s0_edges)
    real_at = {v: 0 for v in sub.real_nodes()}
    keys = []
    for k, step in enumerate(cert.steps, 1):
        ends = step.nodes[0], step.nodes[-1]
        if len(step.nodes) == 2 and all(v in real_at for v in ends):
            keys.append((max(real_at[v] for v in ends), k))
        else:
            keys.append((k, k))
        apply_step_inplace(sub, step)
        for v in ends:
            real_at.setdefault(v, k)
    order = sorted(range(len(cert.steps)), key=keys.__getitem__)
    return PathCertificate(cert.s0_edges, tuple(cert.steps[i] for i in order))


def glued_on_node(a: MultiGraph, b: MultiGraph) -> MultiGraph:
    """Disjoint union of a and b with b's node 0 identified with a's node
    0: node 0 is a cut vertex of the result."""
    n = a.n_live_nodes
    ids = {0: 0}
    for v in range(1, b.n_live_nodes):
        ids[v] = n + v - 1
    edges = [a.ends(e) for e in a.live_edges()]
    edges += [(ids[u], ids[v]) for u, v in (b.ends(e) for e in b.live_edges())]
    return MultiGraph.from_edges(n + b.n_live_nodes - 1, edges)


def shuffled(g: MultiGraph, seed: int) -> MultiGraph:
    """g with its node ids permuted and its edges listed in a seeded
    random order, as an input read from a file with shuffled labels."""
    rng = random.Random(seed)
    perm = list(range(g.n_live_nodes))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in (g.ends(e) for e in g.live_edges())]
    rng.shuffle(edges)
    return MultiGraph.from_edges(len(perm), edges)


def reference_keep_only(g: MultiGraph, keep) -> MultiGraph:
    """The sparsified graph as first built: a copy of g without its live
    edges outside the id set `keep`, killed one at a time.  The filtered
    graph `certify` grows on must equal it."""
    out = g.copy()
    for eid in g.live_edges():
        if eid not in keep:
            out.kill_edge(eid)
    return out


def reference_branch_search(g: MultiGraph, sub, x: int):
    """The growth search from branch node x as it was first written: a
    depth-first search that marks a node when it pushes it and sorts every
    incidence it scans.  The growth loop's search must answer exactly as
    this one does."""
    from tricert import Witness
    from tricert.sequencer import canonical_step

    parent = {x: -1}
    stack = [x]
    goal = None
    while stack and goal is None:
        p = stack.pop()
        for e, q in sorted(g._inc[p].items()):
            if sub.in_edges[e] or q in parent:
                continue
            parent[q] = p
            if sub.in_nodes[q]:
                goal = q
                break
            stack.append(q)
    if goal is None:
        return Witness("cut_vertex", (x,))
    path = [goal]
    while path[-1] != x:
        path.append(parent[path[-1]])
    path.reverse()
    return canonical_step(sub, path)


def reference_link_search(g: MultiGraph, sub, x: int):
    """The growth search from x, interior to a link, frozen as it stood
    with a closure testing each node for a parallel link and explicit
    tests against the link's two ends.  The growth loop's search must
    answer exactly as this one does."""
    from tricert import Witness
    from tricert.sequencer import canonical_step

    t_lid = sub.node_link[x]
    link = sub.links[t_lid]
    ta, tb = link.pair
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


def _reference_resolve(s, nodes):
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


def reference_check_path(s, nodes):
    """A path step's attachment check, frozen as first written with one
    `node_alive` call per node, a separate edge-resolving pass and an
    `edge_between` call per pair on failure: the first violated condition
    (or None) and, when valid, the host edges realizing the path."""
    from tricert import GraphUsageError

    nodes = tuple(nodes)
    if len(nodes) < 2 or len(set(nodes)) != len(nodes):
        raise GraphUsageError("not a simple path")
    g = s.host
    for v in nodes:
        if not g.node_alive(v):
            raise GraphUsageError(f"node {v} is not a live host node")
    edges = _reference_resolve(s, nodes)
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
    if lx is not None and (ly == lx or y in s.links[lx].pair):
        return 2, None
    if ly is not None and x in s.links[ly].pair:
        return 2, None
    if lx is not None and ly is not None and s.links[lx].pair == s.links[ly].pair:
        return 3, None
    return None, edges


def smooth_inplace(g: MultiGraph, v: int, reuse_edge_id: int | None = None) -> int:
    """Replace a degree-2 node by an edge between its two neighbors; returns
    the replacement edge id.

    Raises `GraphUsageError`, leaving `g` unchanged, unless v is alive with
    degree 2 and two distinct neighbors.  `reuse_edge_id` may
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
    if p == q:
        raise GraphUsageError(f"node {v} does not have two distinct neighbors")
    g.kill_edge(e1)
    g.kill_edge(e2)
    g.kill_node(v)
    return g.add_edge(p, q, eid=reuse_edge_id)


def reference_reverse_pass(g: MultiGraph, cert, basic_mode: bool = False, removals: list | None = None):
    """The verifier's reverse pass, frozen as it stood with an
    `edge_between` call and two `node_alive` calls per step pair, a
    counter built from a second pass over the edges, and path removals
    through `neighbors`, `incident` and sorting, each removal edited
    through `kill_edge` and `smooth_inplace`.  It simplifies `g` first, as
    `verify_certificate` does, appends the same removal records as
    `verifier._reverse_pass`, and returns its result together with the
    graph the pass leaves behind.  The verifier must answer, record and
    leave its graph exactly as this does."""
    from collections import Counter

    from tricert import ExpandStep, simplify
    from tricert.verifier import ACCEPT, _check_residue, _reject

    def pair(u, v):
        return (u, v) if u < v else (v, u)

    def step_sequences(step):
        if isinstance(step, PathStep):
            seq = step.nodes
            if len(seq) < 2 or len(set(seq)) != len(seq):
                return None
            return [seq]
        if isinstance(step, ExpandStep):
            seen = {step.center}
            for arm in step.arms:
                if len(arm) < 2 or arm[0] != step.center or len(set(arm)) != len(arm):
                    return None
                for v in arm[1:]:
                    if v in seen:
                        return None
                    seen.add(v)
            if len({arm[-1] for arm in step.arms}) != 3:
                return None
            return list(step.arms)
        return None

    def remove_path(wk, step, edges, k, pairs):
        live = [e for e in edges if wk.edge_alive(e)]
        if len(live) != 1:
            return _reject("step_not_reduced", k)
        e = live[0]
        a, b = step.nodes[0], step.nodes[-1]
        ends = wk.ends(e)
        if set(ends) != {a, b}:
            return _reject("step_endpoints", k)
        wk.kill_edge(e)
        da, db = wk.degree(a), wk.degree(b)
        if da < 2 or db < 2:
            return _reject("dangling_endpoint", k)
        na = wk.neighbors(a) if da == 2 else None
        nb = wk.neighbors(b) if db == 2 else None
        if (na is not None and b in na) or (nb is not None and a in nb):
            return _reject("cond2", k)
        if na is not None and na == nb:
            return _reject("cond3", k)
        if pairs is not None:
            ab = pair(a, b)
            pairs[ab] -= 1
            if pairs[ab]:
                return _reject("nonbasic_step", k)
        merges = [] if removals is not None else None
        for v, nbrs in ((a, na), (b, nb)):
            if nbrs is not None:
                if len(nbrs) != 2 or v in nbrs:
                    return _reject("smooth_failed", k)
                e1, e2 = sorted(wk.incident(v))
                if merges is not None:
                    merges.append((v, e1, e2, wk.other_end(e2, v)))
                smooth_inplace(wk, v, reuse_edge_id=e1)
                if pairs is not None:
                    pairs[pair(*nbrs)] += 1
        if removals is not None:
            removals.append((e, ends, merges))
        return None

    def remove_expand(wk, step, arm_edges, k):
        c = step.center
        if not wk.node_alive(c) or wk.degree(c) != 3:
            return _reject("expand_center", k)
        killed = []
        for arm, edges in zip(step.arms, arm_edges):
            live = [e for e in edges if wk.edge_alive(e)]
            if len(live) != 1:
                return _reject("step_not_reduced", k)
            e = live[0]
            if set(wk.ends(e)) != {c, arm[-1]}:
                return _reject("step_endpoints", k)
            wk.kill_edge(e)
            killed.append(e)
        wk.kill_node(c)
        for anchor in step.anchors:
            if not wk.node_alive(anchor) or wk.degree(anchor) < 3:
                return _reject("expand_anchor", k)
        if removals is not None:
            removals.append(tuple(killed))
        return None

    def check(w):
        if w.n_live_nodes < 4:
            return _reject("too_few_nodes")
        if min_degree(w) < 3:
            return _reject("min_degree")
        s0 = list(dict.fromkeys(cert.s0_edges))
        if len(s0) != len(cert.s0_edges):
            return _reject("s0_duplicate")
        used = [False] * len(w._edge_alive)
        for e in s0:
            if not w.edge_alive(e):
                return _reject("bad_s0_edge")
            used[e] = True
        step_edges = []
        for k, step in enumerate(cert.steps):
            seqs = step_sequences(step)
            if seqs is None:
                return _reject("bad_step", k)
            groups = []
            for seq in seqs:
                edges = []
                for u, v in zip(seq, seq[1:]):
                    if not w.node_alive(u) or not w.node_alive(v):
                        return _reject("bad_path", k)
                    e = w.edge_between(u, v)
                    if e is None or used[e]:
                        return _reject("bad_path" if e is None else "overlap", k)
                    used[e] = True
                    edges.append(e)
                groups.append(edges)
            step_edges.append(groups)
        if used.count(True) != w.n_live_edges:
            return _reject("not_partition")
        pairs = Counter(pair(*w.ends(e)) for e in w.live_edges()) if basic_mode else None
        for k in range(len(cert.steps) - 1, -1, -1):
            step = cert.steps[k]
            if isinstance(step, PathStep):
                res = remove_path(w, step, step_edges[k][0], k, pairs)
            else:
                res = remove_expand(w, step, step_edges[k], k)
            if res is not None:
                return res
        res = _check_residue(w, set(s0))
        return ACCEPT if res is None else res

    w, _ = simplify(g)
    return check(w), w


def reference_to_basic(g: MultiGraph, cert):
    """`to_basic` as it stood before its one-edge tail pass: every step,
    one-edge steps after the last node became real included, goes through
    the general loop and `apply_path_inplace`.  `to_basic` must return
    the same certificate, or raise `TransformError` with the same
    message."""
    from collections import deque

    from tricert import ExpandStep, TransformError, simplify
    from tricert.subdivision import (
        ExpandRejected,
        PathRejected,
        StructureError,
        apply_expand_inplace,
        apply_path_inplace,
        build_subdivision,
    )
    from tricert.transforms import _merge_steps

    w, index = simplify(g)
    if any(isinstance(s, ExpandStep) for s in cert.steps):
        raise TransformError("input certificate must not contain expand steps")
    pending = deque(cert.steps)
    held = {}
    out = []
    requeued = 0
    try:
        sub = build_subdivision(w, cert.s0_edges, index)
        while pending:
            step = pending.popleft()
            if isinstance(step, PathStep):
                x, y = step.endpoints
                p = held.get(x) or held.get(y)
                if p is not None:
                    for v in p.inner:
                        del held[v]
                    pending.extendleft(reversed(_merge_steps(sub, p, step)))
                    continue
                if sub.parallel_count((x, y) if x <= y else (y, x)):
                    if len(step.nodes) > 2:
                        held.update(dict.fromkeys(step.inner, step))
                        continue
                    pending.append(step)
                    requeued += 1
                    if requeued >= len(pending):
                        raise TransformError("parallel-making single edges left at the end")
                    continue
                apply_path_inplace(sub, step)
            else:
                apply_expand_inplace(sub, step)
            out.append(step)
            requeued = 0
    except (StructureError, PathRejected, ExpandRejected, GraphUsageError) as exc:
        raise TransformError(f"certificate is invalid: {exc}") from None
    if held:
        raise TransformError("no later step attaches to a parallel-making path")
    if len(cert.s0_edges) + sum(len(s.nodes) - 1 for s in cert.steps) != w.n_live_edges:
        raise TransformError("certificate is invalid: S0 and the steps do not partition the edges")
    return PathCertificate(tuple(cert.s0_edges), tuple(out))


def reference_basic_verdict(w: MultiGraph, s0, steps):
    """Basic mode as the verifier first checked it: a forward replay over
    the link structure after the reverse pass had accepted.  Only defined
    for certificates that plain `verify_certificate` accepts on the
    simplified graph w; the reverse pass must then answer as this does."""
    from tricert.subdivision import (
        ExpandRejected,
        PathRejected,
        PathStep,
        StructureError,
        apply_expand_inplace,
        apply_path_inplace,
        build_subdivision,
    )
    from tricert.verifier import ACCEPT, _reject

    try:
        sub = build_subdivision(w, s0)
    except StructureError:
        return _reject("residue_not_k4")
    for k, step in enumerate(steps):
        try:
            if isinstance(step, PathStep):
                x, y = step.endpoints
                pair = (x, y) if x <= y else (y, x)
                if sub.parallel_count(pair) >= 1:
                    return _reject("nonbasic_step", k)
                apply_path_inplace(sub, step)
            else:
                apply_expand_inplace(sub, step)
        except (PathRejected, ExpandRejected):
            return _reject("bad_step", k)
    return ACCEPT


def recompute_links(sub) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The link table of `sub` rebuilt from scratch: each link's normalised
    (nodes, edges), sorted.  Link ids are left out, so it equals the
    incremental table up to renaming.  The walk reads the host's
    incidences, not the slots it checks: from each edge of S at a node of
    S-degree >= 3, it goes on through nodes of S-degree 2."""
    g, in_edges = sub.host, sub.in_edges
    deg = [sum(in_edges[e] for e in inc) for inc in g._inc]
    links = set()
    for start, d in enumerate(deg):
        if d < 3:
            continue
        for e in g._inc[start]:
            if not in_edges[e]:
                continue
            nodes, edges, x = [start], [], start
            while True:
                edges.append(e)
                x = g.other_end(e, x)
                nodes.append(x)
                if deg[x] != 2:
                    break
                e = next(f for f in g._inc[x] if in_edges[f] and f != e)
            if nodes[0] > nodes[-1]:
                nodes.reverse()
                edges.reverse()
            links.add((tuple(nodes), tuple(edges)))
    return sorted(links)


def check_link_table(sub) -> None:
    """The incremental link table of `sub` equals a recomputation up to id
    renaming, each link's stored ends are its walked ends, and node_link,
    slots and by_pair agree with the links."""
    assert recompute_links(sub) == sorted((link.nodes, link.edges) for link in sub.links)
    by_pair: dict[tuple[int, int], set[int]] = {}
    for lid, link in enumerate(sub.links):
        nodes = link.nodes
        assert link.pair == (nodes[0], nodes[-1])
        by_pair.setdefault(link.pair, set()).add(lid)
    assert sub.by_pair == by_pair
    interior = {v: lid for lid, link in enumerate(sub.links) for v in link.nodes[1:-1]}
    assert all(sub.node_link[v] == interior.get(v) for v in range(len(sub.node_link)))
    inc = sub.host._inc
    for v in interior:
        assert sorted(sub.slots[v]) == sorted(e for e in inc[v] if sub.in_edges[e])


def mutate_certificate(g: MultiGraph, cert, seed: int):
    """Break an honest certificate in one of five ways.

    Every mutation is invalid by construction: dropped or duplicated steps
    break the edge partition, a redirected endpoint is no longer a path in
    the graph, swapping dependent steps breaks the removal order, and a
    missing initial edge leaves an uncovered edge.
    """
    rng = random.Random(seed)
    steps = list(cert.steps)

    def inner_nodes(step):
        if isinstance(step, PathStep):
            return set(step.inner)
        out = {step.center}
        for arm in step.arms:
            out |= set(arm[1:-1])
        return out

    candidates = []
    if steps:
        candidates.append("drop")
        candidates.append("duplicate")
    if any(isinstance(s, PathStep) for s in steps):
        candidates.append("redirect")
    dependent = [
        (i, j)
        for i, si in enumerate(steps)
        for j in range(i + 1, len(steps))
        if isinstance(steps[j], PathStep)
        and set(steps[j].endpoints) & inner_nodes(si)
    ]
    if dependent:
        candidates.append("swap")
    if cert.s0_edges:
        candidates.append("drop_s0")
    if not candidates:
        raise ValueError("certificate has nothing to mutate")

    kind = candidates[rng.randrange(len(candidates))]
    s0 = tuple(cert.s0_edges)
    if kind == "drop":
        k = rng.randrange(len(steps))
        del steps[k]
    elif kind == "duplicate":
        k = rng.randrange(len(steps))
        steps.insert(k, steps[k])
    elif kind == "redirect":
        paths = [i for i, s in enumerate(steps) if isinstance(s, PathStep)]
        k = paths[rng.randrange(len(paths))]
        nodes = list(steps[k].nodes)
        prev = nodes[-2]
        bad = g.neighbors(prev) | set(nodes)
        targets = [v for v in g.live_nodes() if v not in bad]
        if not targets:
            del steps[k]  # fall back to a drop; still invalid
        else:
            nodes[-1] = targets[rng.randrange(len(targets))]
            steps[k] = PathStep(tuple(nodes))
    elif kind == "swap":
        i, j = dependent[rng.randrange(len(dependent))]
        steps[i], steps[j] = steps[j], steps[i]
    else:
        drop = sorted(s0)[rng.randrange(len(s0))]
        s0 = tuple(e for e in s0 if e != drop)
    return PathCertificate(s0_edges=s0, steps=steps)


def trailing_run(steps) -> int:
    """Where the maximal trailing run of one-edge path steps starts."""
    t = len(steps)
    while t and isinstance(steps[t - 1], PathStep) and len(steps[t - 1].nodes) == 2:
        t -= 1
    return t


def break_trailing_run(g: MultiGraph, cert, seed: int):
    """Certificates that differ from an honest one at its trailing run of
    one-edge steps, one per kind that applies:

    * a run step repeated later in the run: an overlap;
    * a run step's second end moved to a node its first end does not
      touch: no such edge;
    * the last step before the run moved behind it, so the run stops
      being the tail;
    * every one-edge step at one node x moved to the end, in order.  x is
      chosen to have the fewest edges left once they are gone, so the
      reverse pass usually reaches a step there with x at degree 3.  A
      one-edge step stays a valid attachment when it moves later, so this
      one is usually still valid.

    `g` is the graph the certificate's node ids refer to."""
    rng = random.Random(seed)
    steps = list(cert.steps)
    t = trailing_run(steps)
    out = []

    def make(new_steps):
        out.append(PathCertificate(tuple(cert.s0_edges), tuple(new_steps)))

    if t < len(steps):
        i = rng.randrange(t, len(steps))
        dup = steps[:]
        dup.insert(rng.randrange(i + 1, len(steps) + 1), steps[i])
        make(dup)
        u = steps[i].nodes[0]
        far = [v for v in g.live_nodes() if v != u and v not in g.neighbors(u)]
        if far:
            moved = steps[:]
            moved[i] = PathStep((u, rng.choice(far)))
            make(moved)
    if 0 < t < len(steps):
        make(steps[: t - 1] + steps[t:] + [steps[t - 1]])
    singles: dict[int, list[int]] = {}
    for k, step in enumerate(steps):
        if isinstance(step, PathStep) and len(step.nodes) == 2:
            for v in step.nodes:
                singles.setdefault(v, []).append(k)
    if singles:
        left = {v: g.degree(v) - len(ks) for v, ks in singles.items()}
        fewest = min(left.values())
        x = rng.choice(sorted(v for v, d in left.items() if d == fewest))
        last = set(singles[x])
        make([s for k, s in enumerate(steps) if k not in last] + [steps[k] for k in singles[x]])
    return out


def reference_edge_to_path(er):
    """`edge_to_path` as it stood when it glued chains: replay, follow the
    ops a second time to collect each added edge's parts, then order each
    chain's parts through an incidence map of its own.  `edge_to_path`
    must return the same certificate on every edge rep that replays."""
    from tricert import ExpandStep, OpA, OpB, OpC, OpD, TransformError, replay_edge_rep

    g = replay_edge_rep(er)
    chain: dict[int, list[int]] = {e: [e] for e in er.g0.live_edges()}
    for op in er.ops:
        if isinstance(op, OpB):
            splits = ((op.split_edge, op.part_edge),)
        elif isinstance(op, OpC):
            splits = ((op.split_edge1, op.part_edge1), (op.split_edge2, op.part_edge2))
        else:
            splits = ()
        for e, f in splits:
            chain[f] = chain[e]
            chain[f].append(f)
        for e in op.new_edges if isinstance(op, OpD) else (op.new_edge,):
            chain[e] = [e]

    def chain_nodes(eids: list[int]) -> list[int]:
        inc: dict[int, list[int]] = {}
        for e in eids:
            u, v = g.ends(e)
            inc.setdefault(u, []).append(e)
            inc.setdefault(v, []).append(e)
        ends = [v for v, es in inc.items() if len(es) == 1]
        if len(eids) == 1:
            u, v = g.ends(eids[0])
            return [u, v]
        if len(ends) != 2:
            raise TransformError("subdivision chain is not a path")
        cur = min(ends)
        seq = [cur]
        used: set[int] = set()
        while len(used) < len(eids):
            nxt = next((e for e in inc[cur] if e not in used), None)
            if nxt is None:
                raise TransformError("subdivision chain is not a path")
            used.add(nxt)
            cur = g.other_end(nxt, cur)
            seq.append(cur)
        return seq

    steps = []
    for op in er.ops:
        if isinstance(op, OpD):
            arms = []
            for e in op.new_edges:
                seq = chain_nodes(chain[e])
                if seq[0] != op.new_node:
                    seq.reverse()
                arms.append(tuple(seq))
            arms.sort(key=lambda arm: arm[-1])
            steps.append(ExpandStep(op.new_node, tuple(arms)))
            continue
        seq = chain_nodes(chain[op.new_edge])
        if isinstance(op, OpA):
            if seq[0] > seq[-1]:
                seq.reverse()
        else:
            start = op.new_node if isinstance(op, OpB) else op.new_node1
            if seq[0] != start:
                seq.reverse()
            if seq[0] != start:
                raise TransformError("added edge chain does not reach its new node")
        steps.append(PathStep(tuple(seq)))
    s0_edges = [f for e in er.g0.live_edges() for f in chain[e]]
    return PathCertificate(s0_edges=tuple(sorted(s0_edges)), steps=tuple(steps))


def reference_gen_3_connected(n_target: int, seed: int, op_mix=(1, 1, 1)) -> MultiGraph:
    """`gen_3_connected` with the second move's far end drawn from an
    explicit list of every node but the subdivided edge's two ends: the
    reference its O(1) draw must match, quadratic in n."""
    rng = random.Random(seed)
    wa, wb, wc = op_mix
    g = MultiGraph.from_edges(4, K4_EDGES)
    edge_list = g.live_edges()

    def subdivide(slot: int) -> int:
        e = edge_list[slot]
        u, v = g.ends(e)
        g.kill_edge(e)
        x = g.add_node()
        edge_list[slot] = g.add_edge(u, x)
        edge_list.append(g.add_edge(x, v))
        return x

    while g.n_live_nodes < n_target:
        remaining = n_target - g.n_live_nodes
        weights = [wa, wb, 0.0 if remaining == 1 else wc]
        r = rng.random() * sum(weights)
        op = 0
        for op, wgt in enumerate(weights):
            r -= wgt
            if r < 0:
                break
        else:
            op = max(i for i, wgt in enumerate(weights) if wgt)
        if op == 0:
            n = g.n_live_nodes
            for _ in range(10):
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u != v and v not in g.neighbors(u):
                    edge_list.append(g.add_edge(min(u, v), max(u, v)))
                    break
        elif op == 1:
            slot = rng.randrange(len(edge_list))
            a, b = g.ends(edge_list[slot])
            x = subdivide(slot)
            choices = [v for v in range(x) if v not in (a, b)]
            y = choices[rng.randrange(len(choices))]
            edge_list.append(g.add_edge(x, y))
        else:
            s1 = rng.randrange(len(edge_list))
            s2 = rng.randrange(len(edge_list))
            if s1 == s2:
                continue
            x = subdivide(s1)
            y = subdivide(s2)
            edge_list.append(g.add_edge(x, y))
    return g
