import random

import pytest

from tricert import (
    ExpandStep,
    GraphUsageError,
    MultiGraph,
    PathRejected,
    PathStep,
    StructureError,
    build_subdivision,
    is_3_connected_brute,
)
from tricert.graph import _pair_index, simplify
from tricert.subdivision import (
    ExpandRejected,
    _check_path,
    _free_edges,
    apply_expand_inplace,
    apply_path_inplace,
)

from helpers import (
    FIG_IDS,
    _reference_resolve,
    check_link_table,
    counterexample_graph,
    figure_host,
    k4,
    reference_check_path,
    smooth_inplace,
)


def link_node_sets(sub):
    return sorted(link.nodes for link in sub.links)


def test_k4_subdivision_six_links():
    g = k4()
    sub = build_subdivision(g, range(6))
    assert sorted(sub.real_nodes()) == [0, 1, 2, 3]
    assert len(sub.links) == 6
    assert all(len(link.edges) == 1 for link in sub.links)


def test_figure_s0_links():
    g, s0, _ = figure_host()
    sub = build_subdivision(g, s0)
    ids = FIG_IDS
    assert sorted(sub.real_nodes()) == sorted([ids["a"], ids["c"], ids["d"], ids["f"]])
    expected = sorted(
        [
            (ids["a"], ids["b"], ids["c"]),
            (ids["a"], ids["e"], ids["f"]),
            (ids["d"], ids["g"], ids["f"]),
            tuple(sorted((ids["a"], ids["d"]))),
            tuple(sorted((ids["c"], ids["f"]))),
            tuple(sorted((ids["c"], ids["d"]))),
        ]
    )
    assert link_node_sets(sub) == sorted(expected)


def test_figure_s1_links():
    g, s0, c0 = figure_host()
    ids = FIG_IDS
    sub = build_subdivision(g, s0)
    apply_path_inplace(sub, PathStep((ids["e"], ids["h"], ids["g"])))
    with pytest.raises(StructureError):
        build_subdivision(g, s0 + c0)  # S1 smooths to a graph on six nodes, not K4
    expected = sorted(
        [
            (ids["e"], ids["h"], ids["g"]),
            (ids["a"], ids["b"], ids["c"]),
            (ids["a"], ids["e"]),
            (ids["e"], ids["f"]),
            (ids["f"], ids["c"])[::-1] if ids["f"] > ids["c"] else (ids["f"], ids["c"]),
            (ids["c"], ids["d"]),
            (ids["a"], ids["d"]),
            tuple(sorted((ids["f"], ids["g"]))),
            tuple(sorted((ids["g"], ids["d"]))),
        ]
    )
    assert link_node_sets(sub) == sorted(expected)
    assert len(sub.links) == 9


def test_triangle_is_not_a_subdivision():
    g = k4()
    with pytest.raises(StructureError):
        build_subdivision(g, [0, 1, 3])  # edges 01, 02, 12 form a triangle


def test_dangling_edge_rejected():
    g = MultiGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    with pytest.raises(StructureError):
        build_subdivision(g, range(7))


def test_parallel_links_rejected_at_build():
    # Two disjoint 1-2 paths of length 2 next to a K4 core would smooth to
    # parallel edges; the initial subdivision must be simple when smoothed.
    g = MultiGraph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 1), (0, 5), (5, 1)]
    )
    with pytest.raises(StructureError):
        build_subdivision(g, range(10))


@pytest.mark.parametrize(
    "extra, message",
    [
        ((0, 1), "host is not simple: edges 0 and 6 both join 0 1"),
        ((1, 0), "host is not simple: edges 0 and 6 both join 0 1"),
        ((2, 2), "edge (2,2) would be a self-loop"),
    ],
    ids=["parallel", "reversed", "loop"],
)
def test_non_simple_host_rejected_at_build(extra, message):
    # A lookup resolves a pair to one edge, so a host with two edges on one
    # pair is refused, naming the first such edge.  A self-loop never gets
    # that far: `add_edge` refuses it and leaves K4 as it was.
    g = k4()
    if extra[0] == extra[1]:
        with pytest.raises(GraphUsageError) as info:
            g.add_edge(*extra)
        assert str(info.value) == message
        assert build_subdivision(g, range(6)).n_edges == 6
        return
    g.add_edge(*extra)
    with pytest.raises(StructureError) as info:
        build_subdivision(g, range(6))
    assert str(info.value) == message


@pytest.mark.parametrize("seed", range(4))
def test_built_index_is_the_simplify_index(seed):
    # The random host keeps the dead ids of the doubled edges it dropped.
    g, index = _random_host(random.Random(seed))
    assert _pair_index(g) == index


def test_figure_attachment_path_valid():
    g, s0, _ = figure_host()
    sub = build_subdivision(g, s0)
    e, h, gg = FIG_IDS["e"], FIG_IDS["h"], FIG_IDS["g"]
    assert _check_path(sub, (e, h, gg))[0] is None


def test_condition2_same_link():
    g, s0, _ = figure_host()
    a, b, h = FIG_IDS["a"], FIG_IDS["b"], FIG_IDS["h"]
    g.add_edge(b, h)
    g.add_edge(h, a)
    sub = build_subdivision(g, s0)
    # b is interior to the link a-b-c and a is one of its endpoints.
    assert _check_path(sub, (b, h, a))[0] == 2


def test_condition3_parallel_links():
    # Nodes {1,2,3,4,a,b} as ids 0..5: a K4-subdivision whose 0-1 link runs
    # through 4, grown by a second 0-1 path through 5.  The two links are
    # parallel, so a path joining their interiors violates condition 3.
    g = MultiGraph.from_edges(
        6,
        [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 1), (0, 5), (5, 1), (4, 5)],
    )
    sub = build_subdivision(g, range(7))
    apply_path_inplace(sub, PathStep((0, 5, 1)))
    assert sub.parallel_count((0, 1)) == 2
    assert _check_path(sub, (4, 5))[0] == 3


def test_condition1_endpoint_outside():
    g, s0, _ = figure_host()
    sub = build_subdivision(g, s0)
    e, h = FIG_IDS["e"], FIG_IDS["h"]
    assert _check_path(sub, (h, e))[0] == 1


def test_apply_path_splits_and_counts():
    g, s0, c0 = figure_host()
    sub = build_subdivision(g, s0)
    before_real = len(sub.real_nodes())
    e, h, gg = FIG_IDS["e"], FIG_IDS["h"], FIG_IDS["g"]
    apply_path_inplace(sub, PathStep((e, h, gg)))
    # Both endpoints were interior, so the real-node count grew by two.
    assert len(sub.real_nodes()) == before_real + 2
    assert len(sub.links) == 9
    # Incremental tables equal the from-scratch recomputation.
    check_link_table(sub)


def test_apply_path_parallel_apex():
    g = counterexample_graph()
    sub = build_subdivision(g, range(6))
    apply_path_inplace(sub, PathStep((0, 4, 1)))
    assert sub.parallel_count((0, 1)) == 2
    apply_path_inplace(sub, PathStep((4, 2)))
    assert sub.n_edges == 9
    assert sorted(sub.real_nodes()) == [0, 1, 2, 3, 4]
    check_link_table(sub)


def test_apply_path_rejects_violations():
    g = counterexample_graph()
    sub = build_subdivision(g, range(6))
    with pytest.raises(PathRejected) as err:
        apply_path_inplace(sub, PathStep((4, 2)))
    assert err.value.condition == 1
    # Edge 1 joins 0 and 2 but is already in S; 4 and 3 are not adjacent.
    with pytest.raises(PathRejected) as err:
        apply_path_inplace(sub, PathStep((0, 2)))
    assert err.value.condition == 1
    with pytest.raises(GraphUsageError):
        apply_path_inplace(sub, PathStep((4, 3)))
    assert sub.n_edges == 6


def test_expand_apex():
    g = counterexample_graph()
    sub = build_subdivision(g, range(6))
    step = ExpandStep(4, ((4, 0), (4, 1), (4, 2)))
    apply_expand_inplace(sub, step)
    assert sub.real[4]
    assert sub.n_edges == 9
    check_link_table(sub)


def test_expand_rejects_duplicate_anchor():
    with pytest.raises(ValueError):
        ExpandStep(4, ((4, 0), (4, 0), (4, 2)))


def test_expand_rejects_interior_anchor():
    g, s0, _ = figure_host()
    a, b, c = FIG_IDS["a"], FIG_IDS["b"], FIG_IDS["c"]
    w = g.add_node()
    for anchor in (a, b, c):
        g.add_edge(w, anchor)
    sub = build_subdivision(g, s0)
    arms = tuple(sorted([(w, a), (w, b), (w, c)], key=lambda arm: arm[-1]))
    with pytest.raises(ExpandRejected):
        apply_expand_inplace(sub, ExpandStep(w, arms))


def test_expand_rejects_arm_through_subdivision():
    g = MultiGraph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1), (4, 5), (5, 2), (5, 3)]
    )
    sub = build_subdivision(g, range(6))
    apply_path_inplace(sub, PathStep((0, 4, 1)))
    with pytest.raises(ExpandRejected):
        apply_expand_inplace(sub, ExpandStep(5, ((5, 4, 0), (5, 2), (5, 3))))


def _snapshot(sub):
    return (
        sub.in_nodes[:],
        sub.in_edges[:],
        sub.real[:],
        sub.node_link[:],
        sub.slots[:],
        {pair: set(ids) for pair, ids in sub.by_pair.items()},
        [(link.pair, link.edge) for link in sub.links],
        (sub.n_nodes, sub.n_edges, sub.inner_count),
    )


def _random_host(rng):
    """K4 plus a few nodes, each joined to two or three earlier ones, some
    edges doubled, and one dead node; simplified, so the doubled edges
    leave dead edge ids behind."""
    g = k4()
    for _ in range(rng.randrange(4, 9)):
        v = g.add_node()
        for w in rng.sample(range(v), rng.choice((2, 3, 3))):
            g.add_edge(v, w)
    for _ in range(rng.randrange(4)):
        g.add_edge(*g.ends(rng.choice(g.live_edges())))
    g.kill_node(g.add_node())
    return simplify(g)


def _candidate(rng, g, sub):
    """A node sequence to try as a step: mostly a walk from a node of S
    through nodes outside S until it meets S again (or gets stuck), else
    one host edge, else a sequence with a repeated, dead or unknown node
    or a non-adjacent pair."""
    live = g.live_nodes()
    roll = rng.random()
    if roll < 0.6:
        path = [rng.choice([v for v in live if sub.in_nodes[v]])]
        while True:
            nxt = sorted(g.neighbors(path[-1]) - set(path))
            if not nxt:
                break
            path.append(rng.choice(nxt))
            if sub.in_nodes[path[-1]]:
                break
        if len(path) < 2:
            return None
    elif roll < 0.85:
        path = list(g.ends(rng.choice(g.live_edges())))
    else:
        u, w = rng.sample(live, 2)
        bad = rng.choice([u, -1, len(g._node_alive), len(g._node_alive) - 1])
        path = rng.choice([[u, w, u], [u, bad], [u, w] + [bad] * (bad != u), [u, w]])
    if rng.random() < 0.5:
        path.reverse()
    return tuple(path)


def _shorter_side(sub, v):
    """Which side of v (0: through slots[v][0]) reaches a real node first
    when the split walks both in turn, and the nodes of the other side."""
    link = sub.links[sub.node_link[v]]
    nodes, edges = link.nodes, link.edges
    i = nodes.index(v)
    toward_first = sub.slots[v][0] == edges[i - 1]
    d0, d1 = (i, len(nodes) - 1 - i) if toward_first else (len(nodes) - 1 - i, i)
    side = 0 if d0 <= d1 else 1
    longer_first = (side == 0) != toward_first
    return side, nodes[1:i] if longer_first else nodes[i + 1 : -1]


def random_growth(seed: int, tries: int = 40, seen=None):
    """Grow S inside a random host by random node sequences.  Each one's
    verdict and realized edges must equal the reference check's; an
    accepted one is applied and the link table checked, a rejected one
    must leave S unchanged.  `seen` tallies verdicts and split sides.

    S gets the host's pair index, as `to_basic` and `tricert dot` hand it
    over."""
    rng = random.Random(seed)
    g, index = _random_host(rng)
    sub = build_subdivision(g, range(6), index)
    seen = {} if seen is None else seen
    for _ in range(tries):
        nodes = _candidate(rng, g, sub)
        if nodes is None:
            continue
        try:
            want = reference_check_path(sub, nodes)
        except GraphUsageError as exc:
            want = ("raises", str(exc))
        try:
            got = _check_path(sub, nodes)
        except GraphUsageError as exc:
            got = ("raises", str(exc))
        assert got == want, nodes
        if all(0 <= v < len(g._node_alive) and g._node_alive[v] for v in nodes):
            assert _free_edges(sub, nodes) == _reference_resolve(sub, nodes), nodes
        verdict, edges = want  # on a raise, edges holds the message
        key = edges.split()[-1] if verdict == "raises" else verdict
        seen[key] = seen.get(key, 0) + 1
        before = _snapshot(sub)
        if verdict is not None:
            with pytest.raises((PathRejected, GraphUsageError)) as err:
                apply_path_inplace(sub, PathStep(nodes))
            if verdict != "raises":
                assert err.value.condition == verdict
            assert _snapshot(sub) == before
            continue
        kept = {}
        for v in (nodes[0], nodes[-1]):
            if sub.node_link[v] is not None:
                side, longer = _shorter_side(sub, v)
                seen[f"side{side}"] = seen.get(f"side{side}", 0) + 1
                kept[sub.node_link[v]] = longer
        apply_path_inplace(sub, PathStep(nodes))
        assert [sub.in_edges[e] for e in edges] == [True] * len(edges)
        assert sub.n_edges == before[-1][1] + len(edges)
        check_link_table(sub)
        for lid, longer in kept.items():
            assert all(sub.node_link[v] == lid for v in longer)
    return g, sub


def test_random_growth_matches_the_reference_check():
    # The reference check scans incidences; S looks each pair up.
    seen = {}
    for seed in range(60):
        random_growth(seed, seen=seen)
    wanted = [None, 1, 2, 3, "path", "node", "edge", "side0", "side1"]
    assert all(seen.get(k) for k in wanted), seen


@pytest.mark.parametrize("seed", range(8))
def test_random_growth_invariants(seed):
    g, sub = random_growth(seed)
    # Every incremental table matches the recomputation.
    check_link_table(sub)
    for v in g.live_nodes():
        if sub.in_nodes[v]:
            deg = sum(1 for e in g.incident(v) if sub.in_edges[e])
            assert sub.real[v] == (deg >= 3)
    # Smoothing the subdivision leaves a 3-connected graph on small hosts.
    members = sorted(sub.edge_ids())
    host_sub = MultiGraph.from_edges(len(g._node_alive), [])
    for e in members:
        u, v = g.ends(e)
        host_sub.add_edge(u, v)
    for v in list(host_sub.live_nodes()):
        if host_sub.degree(v) == 0:
            host_sub.kill_node(v)
    sm = host_sub
    changed = True
    while changed:
        changed = False
        for v in sm.live_nodes():
            if sm.degree(v) == 2 and len(sm.neighbors(v)) == 2 and v not in sm.neighbors(v):
                smooth_inplace(sm, v)
                changed = True
                break
    assert is_3_connected_brute(sm)
