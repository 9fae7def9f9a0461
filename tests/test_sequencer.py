import math
import random

import pytest

from tricert import (
    GraphUsageError,
    InputError,
    MultiGraph,
    PathStep,
    Witness,
    build_subdivision,
    certify,
    find_k4_subdivision,
    gen_3_connected,
    is_3_connected_brute,
    simplify,
    sparsify3,
    verify_certificate,
    verify_witness,
)
from tricert.certformat import format_certificate
from tricert import subdivision
from tricert.sequencer import _Worklists
from tricert.subdivision import apply_path_inplace

from helpers import (
    FIG_IDS,
    K4_EDGES,
    check_link_table,
    circular_ladder,
    counterexample_graph,
    dense_3_connected,
    figure_host,
    glued_on_node,
    glued_on_pair,
    gnp,
    k3n,
    k4,
    reference_branch_search,
    reference_link_search,
    shuffled,
    torus,
    wheel,
)


def test_figure_search_finds_the_path():
    g, s0, _ = figure_host()
    sub = build_subdivision(g, s0)
    step = _Worklists(sub).next_path()
    assert isinstance(step, PathStep)
    assert step.nodes == (FIG_IDS["e"], FIG_IDS["h"], FIG_IDS["g"])


def test_apex_search_smallest_first():
    g = counterexample_graph()
    sub = build_subdivision(g, range(6))
    step = _Worklists(sub).next_path()
    assert step == PathStep((0, 4, 1))


def test_search_cut_vertex_branch():
    # K4 plus a pendant chain 0-4-5 that never reaches back: with the
    # degree gate bypassed, the search must name 0 as a cut vertex.
    g = MultiGraph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5)])
    sub = build_subdivision(g, range(6))
    w = _Worklists(sub).next_path()
    assert w == Witness("cut_vertex", (0,))
    assert verify_witness(g, w)


def test_search_separation_pair_branch():
    # Subdivide one K4 edge and hang a triangle off its interior node; the
    # link's endpoints separate when nothing else is attachable.
    g = MultiGraph.from_edges(
        7, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 1), (4, 5), (5, 6), (6, 4)]
    )
    sub = build_subdivision(g, range(7))
    w = _Worklists(sub).next_path()
    assert w == Witness("separation_pair", (0, 1))


def test_search_rejects_complete_cover():
    g = k4()
    sub = build_subdivision(g, range(6))
    with pytest.raises(GraphUsageError):
        _Worklists(sub).next_path()


def test_certify_k4_empty():
    result = certify(k4())
    assert result.certified
    assert result.certificate.steps == ()
    assert sorted(result.certificate.s0_edges) == list(range(6))


def test_certify_counterexample_prescribed():
    g = counterexample_graph()
    result = certify(g, prescribed_s0=range(6))
    assert result.certified
    assert [s.nodes for s in result.certificate.steps] == [(0, 4, 1), (4, 2)]
    assert verify_certificate(g, result.certificate).ok
    assert not verify_certificate(g, result.certificate, basic_mode=True).ok


def test_certify_k4_minus_edge_refuted():
    g = MultiGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    result = certify(g)
    assert not result.certified
    assert verify_witness(g, result.witness)


def test_certify_gates():
    assert certify(MultiGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])).witness.kind == "too_few_nodes"
    two = MultiGraph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                    (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)])
    assert certify(two).witness.kind == "disconnected"
    from helpers import cycle

    assert certify(cycle(6)).witness.kind == "low_degree"


@pytest.mark.parametrize("bogus", [99, -1])
def test_gates_run_before_the_prescribed_edges_are_checked(bogus):
    # A disconnected graph is refuted even when the prescribed S0 names an
    # edge it does not have; a graph that passes the gates is not.
    two = MultiGraph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                    (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)])
    result = certify(two, prescribed_s0=(bogus,))
    assert result.witness == Witness("disconnected")
    with pytest.raises(InputError):
        certify(k4(), prescribed_s0=(bogus,))


def test_certify_prescribed_must_be_structural():
    g = counterexample_graph()
    with pytest.raises(InputError):
        certify(g, prescribed_s0=[0, 1, 3])


def test_certify_deterministic_bytes():
    g = gnp(9, 0.6, 11)
    r1 = certify(g)
    r2 = certify(g)
    assert r1.certified and r2.certified
    g_s, _ = simplify(g)
    assert format_certificate(g_s, r1.certificate) == format_certificate(g_s, r2.certificate)


def test_leftover_edges_skip_the_subdivision(monkeypatch):
    """certify grows the one subdivision the K4 search builds on the
    sparsified graph, and appends the edges the sparsifier dropped without
    applying them to it."""
    import tricert.sequencer as sequencer

    built = []
    applied = []

    class Counting(subdivision.Subdivision):
        __slots__ = ()

        def __init__(self, host, index):
            built.append(host)
            super().__init__(host, index)

    def counting_apply(s, step):
        applied.append(step)
        apply_path_inplace(s, step)

    monkeypatch.setattr(subdivision, "Subdivision", Counting)
    monkeypatch.setattr(sequencer, "apply_path_inplace", counting_apply)
    g = dense_3_connected(60, 300, 3)
    result = certify(g)
    assert result.certified and result.leftover_edges
    assert len(built) == 1
    steps = result.certificate.steps
    assert applied == list(steps[: len(steps) - len(result.leftover_edges)])
    assert verify_certificate(g, result.certificate)


def step_edge_count(step):
    if isinstance(step, PathStep):
        return len(step.nodes) - 1
    return sum(len(arm) - 1 for arm in step.arms)


def _mixed_gnp(seed):
    rng = random.Random(seed)
    return gnp(rng.randrange(4, 10), rng.choice([0.3, 0.5, 0.8]), seed * 1009 + 7)


# Random graphs of mixed size and density, then 30 at n = 8, p = 1/2.
ORACLE_INPUTS = [pytest.param(_mixed_gnp, seed, id=str(seed)) for seed in range(120)] + [
    pytest.param(lambda seed: gnp(8, 0.5, seed * 13 + 5), seed, id=f"gnp8-{seed}") for seed in range(30)
]


@pytest.mark.parametrize("make, seed", ORACLE_INPUTS)
def test_certify_agrees_with_oracle(make, seed):
    g = make(seed)
    result = certify(g)
    truth = is_3_connected_brute(g)
    assert result.certified == truth
    if result.certified:
        cert = result.certificate
        assert verify_certificate(g, cert).ok
        g_s, _ = simplify(g)
        total = len(cert.s0_edges) + sum(step_edge_count(s) for s in cert.steps)
        assert total == g_s.n_live_edges
        assert len(cert.steps) <= g_s.n_live_edges
    else:
        assert verify_witness(g, result.witness)


# Reference linear scans the growth loop's worklists replace.
def _scan_interior(sub):
    return next(v for v, lid in enumerate(sub.node_link) if lid is not None)


def _scan_open_member(g, sub):
    for v in range(len(sub.in_nodes)):
        if sub.in_nodes[v] and any(not sub.in_edges[e] for e in g.incident(v)):
            return v
    return None


def _worklist_input(name):
    if name == "k3n":
        return k3n(25)
    if name == "wheel":
        return wheel(40)
    if name == "ladder":
        return circular_ladder(20)
    kind, seed = name[:3], int(name[3:])
    if kind == "gen":
        return gen_3_connected(60 + 20 * seed, 900 + seed)
    return gnp(14, 0.5, 77 + seed)


def _growth_start(g):
    """The growth loop's graph, starting subdivision and worklists, as
    `certify` builds them; None when the K4 search gives a witness."""
    g_s, _ = simplify(g)
    g_w, _ = sparsify3(g_s)
    sub = find_k4_subdivision(g_w)
    if isinstance(sub, Witness):
        return None
    return g_w, sub, _Worklists(sub)


@pytest.mark.parametrize(
    "name", ["k3n", "wheel", "ladder"] + [f"gen{i}" for i in range(4)] + [f"gnp{i}" for i in range(4)]
)
def test_worklists_pick_what_the_scans_pick(name):
    """At every growth step the worklists name the same start node as a
    full scan, and the link table and node_link stay equal to a
    recomputation; the loop reproduces certify's steps."""
    g = _worklist_input(name)
    start = _growth_start(g)
    if start is None:
        return
    g_w, sub, wl = start
    steps = []
    while sub.inner_count or sub.n_nodes < g_w.n_live_nodes:
        if sub.inner_count:
            assert wl.first_interior() == _scan_interior(sub)
        assert wl.first_open_member() == _scan_open_member(g_w, sub)
        step = wl.next_path()
        if isinstance(step, Witness):
            break
        apply_path_inplace(sub, step)
        wl.attached(step)
        steps.append(step)
        check_link_table(sub)
    result = certify(g)
    if result.certified:
        assert tuple(steps) == result.certificate.steps[: len(steps)]


class _CountingList(list):
    """A list that counts its item writes."""

    writes = 0

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


@pytest.mark.parametrize(
    "build", [lambda: wheel(2000), lambda: circular_ladder(1000), lambda: gen_3_connected(2000, 4242)],
    ids=["wheel2000", "ladder1000", "gen2000"],
)
def test_link_splits_relabel_the_shorter_half(build):
    """Over a whole growth loop, link splits rewrite node_link at most
    n log2 n times besides the writes every step needs: one per new
    interior node and one per split node.  Natural labels make every
    split on a wheel's rim or a ladder's cycles cut a long link."""
    g = build()
    g_w, sub, wl = _growth_start(g)
    sub.node_link = counted = _CountingList(sub.node_link)
    needed = 0
    while sub.n_edges < g_w.n_live_edges:
        step = wl.next_path()
        needed += len(step.inner) + sum(not sub.real[v] for v in step.endpoints)
        apply_path_inplace(sub, step)
        wl.attached(step)
    relabels = counted.writes - needed
    n = g.n_live_nodes
    assert relabels <= n * math.log2(n), f"{relabels} relabels on {n} nodes"


def _branch_search_corpus():
    """(graph, prescribed S0 or None) pairs, labels shuffled: hubs, long
    links, random 3-connected and dense graphs, G(n,p) graphs (many not
    3-connected), hubs glued on a pair or a node, and prescribed starts
    that the sparsifier cuts into."""
    base = [k3n(n) for n in (4, 9, 30)] + [wheel(n) for n in (5, 12, 40)]
    base += [circular_ladder(k) for k in (4, 9, 25)]
    base += [gen_3_connected(n, 300 + n) for n in (12, 40, 150)]
    base += [dense_3_connected(n, 2 * n, n) for n in (12, 30)]
    base += [glued_on_pair(k3n(12), k3n(8)), glued_on_node(k3n(10), k3n(7))]
    base += [glued_on_node(gen_3_connected(20, 5), wheel(9))]
    base += [gnp(n, p, 1000 * n + k) for n in (8, 12, 20) for p in (0.25, 0.4) for k in range(6)]
    for i, g in enumerate(base):
        for seed in range(2):
            yield shuffled(g, 17 * i + seed), None
    for n, extra, seed in ((40, 80, 2), (30, 60, 3), (40, 80, 7)):
        g = shuffled(dense_3_connected(n, extra, seed), seed)
        yield g, tuple(sorted(find_k4_subdivision(simplify(g)[0]).edge_ids()))


def test_branch_search_answers_as_the_reference(monkeypatch):
    """Every growth step that searches from a branch node returns the same
    step or witness as the original sorting search, through certify's own
    loop (so with its sparsified or prescribed-start graph)."""
    search = _Worklists.branch_search
    seen = {"edge": 0, "path": 0, "sibling": 0, "cut_vertex": 0}

    def checked(wl, x):
        g, sub = wl.g, wl.sub
        got = search(wl, x)
        want = reference_branch_search(g, sub, x)
        assert got == want
        if isinstance(want, Witness):
            seen["cut_vertex"] += 1
        elif len(want.nodes) == 2:
            seen["edge"] += 1
        else:
            seen["path"] += 1
            first = want.nodes[1] if want.nodes[0] == x else want.nodes[-2]
            last_open = max(e for e in g._inc[x] if not sub.in_edges[e])
            if first != g.other_end(last_open, x):
                seen["sibling"] += 1
        return got

    monkeypatch.setattr(_Worklists, "branch_search", checked)
    for g, s0 in _branch_search_corpus():
        result = certify(g, prescribed_s0=s0)
        assert result.certified or verify_witness(g, result.witness)
    assert all(seen.values()), seen


def _link_search_corpus():
    """Random 3-connected graphs, long links with shuffled labels (ladders
    and 3 x k tori), wheels, and graphs glued on a node or a pair, whose
    link searches end in a separation-pair witness."""
    for seed in range(30):
        yield gen_3_connected(40 + 12 * seed, 500 + seed)
    for k, seed in ((20, 1), (60, 2), (150, 3), (300, 4)):
        yield shuffled(circular_ladder(k), seed)
        yield shuffled(torus(k), seed)
    for n, seed in ((6, 5), (40, 6), (300, 7)):
        yield wheel(n)
        yield shuffled(wheel(n), seed)
    for seed in range(4):
        a, b = gen_3_connected(60 + 20 * seed, seed), gen_3_connected(30 + 10 * seed, seed + 50)
        yield shuffled(glued_on_pair(a, b), seed)
        yield shuffled(glued_on_node(a, b), seed)
    yield shuffled(glued_on_pair(circular_ladder(30), wheel(20)), 8)
    yield shuffled(glued_on_node(torus(20), wheel(12)), 9)


def test_link_interior_search_answers_as_the_reference(monkeypatch):
    """Every growth step that searches from a link's interior returns the
    same step or witness as the frozen reference search, through certify's
    own loop; the corpus reaches trimmed paths and the witness branch."""
    import tricert.sequencer as sequencer

    search = sequencer._search_from_link_interior
    seen = {"untrimmed": 0, "trimmed": 0, "separation_pair": 0}

    def checked(g, sub, x):
        want = reference_link_search(g, sub, x)
        got = search(g, sub, x)
        assert got == want
        if isinstance(want, Witness):
            seen[want.kind] += 1
        else:
            seen["untrimmed" if x in want.endpoints else "trimmed"] += 1
        return got

    monkeypatch.setattr(sequencer, "_search_from_link_interior", checked)
    for g in _link_search_corpus():
        result = certify(g)
        assert result.certified or verify_witness(g, result.witness)
    assert all(seen.values()), seen


def test_prescribed_start_graph_keeps_incidence_order(monkeypatch):
    """With a prescribed start that the sparsifier cuts into, the growth
    loop runs on the sparsified edges plus the prescribed ones, and every
    incidence there still iterates in increasing edge id."""
    import tricert.sequencer as sequencer

    grown_on = []

    class Recording(_Worklists):
        __slots__ = ()

        def __init__(self, sub):
            grown_on.append(sub.host)
            super().__init__(sub)

    monkeypatch.setattr(sequencer, "_Worklists", Recording)
    g = dense_3_connected(40, 80, 2)
    g_s, _ = simplify(g)
    s0 = tuple(sorted(find_k4_subdivision(g_s).edge_ids()))
    _, forests = sparsify3(g_s)
    grown_on.clear()
    assert certify(g, prescribed_s0=s0).certified
    (g_w,) = grown_on
    assert set(g_w.live_edges()) == forests.kept | set(s0) != forests.kept
    assert all(list(inc) == sorted(inc) for inc in g_w._inc)


def test_branch_search_treats_start_neighbours_as_seen():
    # S is the K4 on 0..3.  From 0 the search enters 5 (the larger of 0's
    # open edges); 5 sees 6 and then 4.  4 is 0's own neighbour, so the
    # search must not go on through it to 1: it goes 5 -> 6 -> 2.
    g = MultiGraph.from_edges(7, K4_EDGES + [(0, 4), (0, 5), (5, 6), (5, 4), (6, 2), (4, 1)])
    sub = build_subdivision(g, range(6))
    assert _Worklists(sub).next_path() == PathStep((0, 5, 6, 2))
    assert reference_branch_search(g, sub, 0) == PathStep((0, 5, 6, 2))


def _sparse_graphs_the_forests_would_thin():
    """Graphs with at most 3(n - 1) edges from which the sparsifier's
    forests would still drop an edge, as (family, graph): `certify` grows
    on such a graph as it is, so these are the inputs whose certificates
    can differ from ones grown on the forests."""
    from tricert.sparsify import _forests

    def candidates():
        for n in range(5, 13):
            for seed in range(60):
                yield "3-connected", gen_3_connected(n, seed)
                yield "3-connected", shuffled(gen_3_connected(n, seed), seed)
        for seed in range(60):
            yield "3-connected", shuffled(gen_3_connected(20 + 3 * seed, seed), seed)
            yield "3-connected", dense_3_connected(20 + seed, 10 + seed // 2, seed)
        for seed in range(200):
            small = gen_3_connected(4 + seed % 5, seed), gen_3_connected(4 + seed % 4, seed + 1)
            large = gen_3_connected(10 + seed % 30, seed), gen_3_connected(10 + seed % 20, seed + 1)
            for a, b in (small, large):
                yield "pair", shuffled(glued_on_pair(a, b), seed)
                yield "node", shuffled(glued_on_node(a, b), seed)
        for seed in range(100):
            yield "random", gnp(8 + seed % 5, 0.4, seed)

    for family, g in candidates():
        g_s, _ = simplify(g)
        if g_s.n_live_edges <= 3 * (g_s.n_live_nodes - 1):
            _, keep = _forests(g_s)
            if keep.count(True) < g_s.n_live_edges:
                yield family, g


def test_certify_sparse_graphs_the_forests_would_thin():
    seen = {}
    for family, g in _sparse_graphs_the_forests_would_thin():
        res = certify(g)
        if res.certified:
            assert res.leftover_edges == ()
            assert verify_certificate(g, res.certificate).ok
        else:
            assert verify_witness(g, res.witness)
        small = g.n_live_nodes <= 12
        if small:
            assert res.certified == is_3_connected_brute(g)
        key = (family, small, res.certified)
        seen[key] = seen.get(key, 0) + 1
    assert seen.get(("3-connected", True, True), 0) >= 20
    assert seen.get(("3-connected", False, True), 0) >= 20
    for family in ("pair", "node"):
        assert seen.get((family, True, False), 0) >= 5
        assert seen.get((family, False, False), 0) >= 10
    assert seen.get(("random", True, False), 0) >= 5
