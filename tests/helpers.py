"""Shared graph builders for the test suite."""

from __future__ import annotations

import random

from tricert import MultiGraph, PathCertificate, PathStep

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


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
    incremental table up to renaming."""
    from tricert.subdivision import _normalize, _walk_links

    g = sub.host
    deg = [0] * len(g._node_alive)
    for e, inside in enumerate(sub.in_edges):
        if inside:
            u, v = g.ends(e)
            deg[u] += 1
            deg[v] += 1
    return sorted(_normalize(nodes, edges) for nodes, edges in _walk_links(g, sub.in_edges, deg))


def check_link_table(sub) -> None:
    """The incremental link table of `sub` equals a recomputation up to id
    renaming, each link's stored ends are its walked ends, and node_link,
    slots and by_pair agree with the links."""
    links = sub.links.values()
    assert recompute_links(sub) == sorted((link.nodes, link.edges) for link in links)
    by_pair: dict[tuple[int, int], set[int]] = {}
    for link in links:
        nodes = link.nodes
        assert link.pair == (nodes[0], nodes[-1])
        by_pair.setdefault(link.pair, set()).add(link.lid)
    assert sub.by_pair == by_pair
    interior = {v: link.lid for link in links for v in link.nodes[1:-1]}
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
    return PathCertificate(s0_edges=s0, steps=steps, basic=cert.basic)
