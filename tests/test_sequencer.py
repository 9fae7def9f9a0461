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
from tricert.sequencer import _Worklists, find_next_path
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
    shuffled,
    wheel,
)


def test_figure_search_finds_the_path():
    g, s0, _ = figure_host()
    sub = build_subdivision(g, s0)
    step = find_next_path(g, sub)
    assert isinstance(step, PathStep)
    assert step.nodes == (FIG_IDS["e"], FIG_IDS["h"], FIG_IDS["g"])


def test_apex_search_smallest_first():
    g = counterexample_graph()
    sub = build_subdivision(g, range(6))
    step = find_next_path(g, sub)
    assert step == PathStep((0, 4, 1))


def test_search_cut_vertex_branch():
    # K4 plus a pendant chain 0-4-5 that never reaches back: with the
    # degree gate bypassed, the search must name 0 as a cut vertex.
    g = MultiGraph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5)])
    sub = build_subdivision(g, range(6))
    w = find_next_path(g, sub)
    assert w == Witness("cut_vertex", (0,))
    assert verify_witness(g, w)


def test_search_separation_pair_branch():
    # Subdivide one K4 edge; the interior node's link endpoints separate
    # when nothing else is attachable.
    g = MultiGraph.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 1)])
    g.add_node()
    g.add_edge(4, 5)
    g.add_edge(5, 4)
    sub = build_subdivision(g, range(7))
    w = find_next_path(g, sub)
    assert w == Witness("separation_pair", (0, 1))


def test_search_rejects_complete_cover():
    g = k4()
    sub = build_subdivision(g, range(6))
    with pytest.raises(GraphUsageError):
        find_next_path(g, sub)


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


def test_leftover_steps_carry_their_edge(monkeypatch):
    """A leftover step hands its edge id to the subdivision, so only the
    growth steps look their host edges up."""
    calls = []

    def counting(s, nodes):
        calls.append(nodes)
        return resolve(s, nodes)

    resolve = subdivision.resolve_step_edges
    monkeypatch.setattr(subdivision, "resolve_step_edges", counting)
    g = dense_3_connected(60, 300, 3)
    result = certify(g)
    assert result.certified and result.leftover_edges
    assert len(calls) <= len(result.certificate.steps) - len(result.leftover_edges)
    assert verify_certificate(g, result.certificate)


def step_edge_count(step):
    if isinstance(step, PathStep):
        return len(step.nodes) - 1
    return sum(len(arm) - 1 for arm in step.arms)


@pytest.mark.parametrize("seed", range(120))
def test_certify_agrees_with_oracle(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 10)
    g = gnp(n, rng.choice([0.3, 0.5, 0.8]), seed * 1009 + 7)
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


@pytest.mark.parametrize("seed", range(30))
def test_certify_without_sparsifier_matches(seed):
    g = gnp(8, 0.5, seed * 13 + 5)
    assert certify(g).certified == certify(g, use_sparsify=False).certified


# Reference linear scans the growth loop's worklists replace.
def _scan_interior(sub):
    return next(v for v, lid in enumerate(sub.node_link) if lid is not None)


def _scan_open_member(g, sub):
    for v in range(len(sub.in_nodes)):
        if sub.in_nodes[v] and any(not sub.in_edges[e] for e in g.incident(v)):
            return v
    return None


def _scan_open_edge(g, sub):
    return min(e for e in g.live_edges() if not sub.in_edges[e])


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
    found = find_k4_subdivision(g_w)
    if isinstance(found, Witness):
        return None
    sub = build_subdivision(g_s, sorted(found.edge_ids()))
    return g_w, sub, _Worklists(g_w, sub)


@pytest.mark.parametrize(
    "name", ["k3n", "wheel", "ladder"] + [f"gen{i}" for i in range(4)] + [f"gnp{i}" for i in range(4)]
)
def test_worklists_pick_what_the_scans_pick(name):
    """At every growth step the worklists name the same start node (and
    leftover edge) as a full scan, and the link table and node_link stay
    equal to a recomputation; the loop reproduces certify's steps."""
    g = _worklist_input(name)
    start = _growth_start(g)
    if start is None:
        return
    g_w, sub, wl = start
    steps = []
    while sub.n_edges < g_w.n_live_edges:
        if sub.inner_count:
            assert wl.first_interior() == _scan_interior(sub)
        assert wl.first_open_member() == _scan_open_member(g_w, sub)
        assert wl.first_open_edge() == _scan_open_edge(g_w, sub)
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
        yield g, certify(g, use_sparsify=False).certificate.s0_edges


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


def test_prescribed_start_graph_keeps_incidence_order(monkeypatch):
    """With a prescribed start that the sparsifier cuts into, the growth
    loop runs on the sparsified edges plus the prescribed ones, and every
    incidence there still iterates in increasing edge id."""
    import tricert.sequencer as sequencer

    grown_on = []

    class Recording(_Worklists):
        __slots__ = ()

        def __init__(self, g, sub):
            grown_on.append(g)
            super().__init__(g, sub)

    monkeypatch.setattr(sequencer, "_Worklists", Recording)
    g = dense_3_connected(40, 80, 2)
    s0 = certify(g, use_sparsify=False).certificate.s0_edges
    g_s, _ = simplify(g)
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
    assert find_next_path(g, sub) == PathStep((0, 5, 6, 2))
    assert reference_branch_search(g, sub, 0) == PathStep((0, 5, 6, 2))
