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
    path_violation,
)
from tricert.graph import smooth_inplace
from tricert.subdivision import ExpandRejected, apply_expand_inplace, apply_path_inplace

from helpers import FIG_IDS, check_link_table, counterexample_graph, figure_host, k4


def link_node_sets(sub):
    return sorted(link.nodes for link in sub.links.values())


def test_k4_subdivision_six_links():
    g = k4()
    sub = build_subdivision(g, range(6))
    assert sorted(sub.real_nodes()) == [0, 1, 2, 3]
    assert len(sub.links) == 6
    assert all(len(link.edges) == 1 for link in sub.links.values())


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
    sub = build_subdivision(g, s0 + c0)
    ids = FIG_IDS
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


def test_figure_attachment_path_valid():
    g, s0, _ = figure_host()
    sub = build_subdivision(g, s0)
    e, h, gg = FIG_IDS["e"], FIG_IDS["h"], FIG_IDS["g"]
    assert path_violation(sub, (e, h, gg)) is None


def test_condition2_same_link():
    g, s0, _ = figure_host()
    a, b, h = FIG_IDS["a"], FIG_IDS["b"], FIG_IDS["h"]
    g.add_edge(b, h)
    g.add_edge(h, a)
    sub = build_subdivision(g, s0)
    # b is interior to the link a-b-c and a is one of its endpoints.
    assert path_violation(sub, (b, h, a)) == 2


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
    assert path_violation(sub, (4, 5)) == 3


def test_condition1_endpoint_outside():
    g, s0, _ = figure_host()
    sub = build_subdivision(g, s0)
    e, h = FIG_IDS["e"], FIG_IDS["h"]
    assert path_violation(sub, (h, e)) == 1


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


def test_apply_path_checks_supplied_edges():
    """Edges the caller hands in are checked, not looked up: a wrong one
    rejects like a bad step and leaves S unchanged."""
    g = counterexample_graph()
    sub = build_subdivision(g, range(6))
    apply_path_inplace(sub, PathStep((0, 4, 1)), (6, 7))
    for edges in [(0,), (6,), (7,), (8, 8), ()]:
        with pytest.raises(PathRejected) as err:
            apply_path_inplace(sub, PathStep((4, 2)), edges)
        assert err.value.condition == 1
    # Edge 1 joins 0 and 2 but is already in S.
    with pytest.raises(PathRejected) as err:
        apply_path_inplace(sub, PathStep((0, 2)), (1,))
    assert err.value.condition == 1
    with pytest.raises(GraphUsageError):
        apply_path_inplace(sub, PathStep((4, 3)), (8,))
    assert sub.n_edges == 8
    apply_path_inplace(sub, PathStep((4, 2)), (8,))
    assert sub.in_edges[8] and sub.n_edges == 9
    check_link_table(sub)


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


def random_growth(seed: int, steps: int = 6):
    """Grow a random host around K4 and attach random valid paths."""
    rng = random.Random(seed)
    g = k4()
    extra = rng.randrange(2, 5)
    for _ in range(extra):
        v = g.add_node()
        others = rng.sample(range(v), 3)
        for w in others:
            if g.edge_between(v, w) is None:
                g.add_edge(v, w)
    sub = build_subdivision(g, range(6))
    applied = 0
    nodes = g.live_nodes()
    for _ in range(steps * 20):
        if applied >= steps:
            break
        u = rng.choice(nodes)
        w = rng.choice(nodes)
        if u == w or g.edge_between(u, w) is None:
            continue
        if path_violation(sub, (u, w)) is None:
            apply_path_inplace(sub, PathStep((u, w)))
            applied += 1
    return g, sub


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
