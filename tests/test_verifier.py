import ast
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricert import (
    ExpandStep,
    MultiGraph,
    PathCertificate,
    PathStep,
    TransformError,
    Witness,
    certify,
    from_basic,
    gen_3_connected,
    is_3_connected_brute,
    path_to_edge,
    simplify,
    to_basic,
    verify_certificate,
    verify_witness,
)
from tricert.certformat import parse_witness
from tricert import verifier
from tricert.verifier import ACCEPT, _check_residue, _reverse_pass

from helpers import (
    K4_EDGES,
    break_trailing_run,
    circular_ladder,
    complete,
    counterexample_graph,
    dense_3_connected,
    gnp,
    hoist_single_edges,
    k3n,
    k4,
    min_degree,
    multigraph,
    mutate_certificate,
    petersen,
    reference_basic_verdict,
    reference_reverse_pass,
    trailing_run,
    wheel,
)


def test_accept_k4_empty():
    cert = PathCertificate(tuple(range(6)), ())
    assert verify_certificate(k4(), cert).ok


def test_counterexample_accept_and_basic_reject():
    g = counterexample_graph()
    cert = PathCertificate(tuple(range(6)), (PathStep((0, 4, 1)), PathStep((4, 2))))
    assert verify_certificate(g, cert).ok
    res = verify_certificate(g, cert, basic_mode=True)
    assert not res.ok
    assert res.reason == "nonbasic_step"
    assert res.step == 0


def test_reordered_steps_rejected():
    g = counterexample_graph()
    cert = PathCertificate(tuple(range(6)), (PathStep((4, 2)), PathStep((0, 4, 1))))
    res = verify_certificate(g, cert)
    assert not res.ok
    assert res.reason == "step_not_reduced"


def test_step_ending_next_to_its_link_rejected_with_one_degree2_end():
    # K4 with 0-1 subdivided at 4; the first step 4-5-0 joins the link's
    # interior to its own end, which stays invalid although later steps
    # leave 0 with degree 3 when the step is removed (only 4 drops to 2).
    # The edge 0-4 left behind is condition 2, not a parallel link, in
    # basic mode too.
    edges = [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 0), (5, 2), (4, 3)]
    g = MultiGraph.from_edges(6, edges)
    assert is_3_connected_brute(g)
    steps = (PathStep((4, 5, 0)), PathStep((5, 2)), PathStep((4, 3)))
    for basic in (False, True):
        res = verify_certificate(g, PathCertificate(tuple(range(7)), steps), basic_mode=basic)
        assert (res.ok, res.reason, res.step) == (False, "cond2", 0)


def test_parallel_step_between_hubs_rejected_in_basic_mode():
    # K_{3,n} with hubs 0, 1, 2.  S0 has branch nodes 0, 1, 2, 3 and the
    # links 0-4-1, 1-5-2, 0-6-2.  Every other leaf v first joins 0 and 2,
    # then 1; only then does 0-7-1 run parallel to 0-4-1, whose interior
    # node 4 is the last to become a branch node.  When that step is
    # removed, hubs 0 and 1 both have degree about n.
    n = 40
    g = k3n(n)
    s0 = (
        [g.edge_between(h, 3) for h in (0, 1, 2)]
        + [g.edge_between(h, v) for h, v in ((0, 4), (1, 4), (1, 5), (2, 5), (0, 6), (2, 6))]
    )
    steps = [PathStep((5, 0)), PathStep((6, 1))]
    for v in range(8, n + 3):
        steps += [PathStep((0, v, 2)), PathStep((v, 1))]
    k_parallel = len(steps)
    steps += [PathStep((0, 7, 1)), PathStep((7, 2)), PathStep((4, 2))]
    cert = PathCertificate(tuple(sorted(s0)), tuple(steps))
    assert verify_certificate(g, cert).ok
    res = verify_certificate(g, cert, basic_mode=True)
    assert (res.ok, res.reason, res.step) == (False, "nonbasic_step", k_parallel)
    assert reference_basic_verdict(g, cert.s0_edges, cert.steps) == res
    assert verify_certificate(g, to_basic(g, cert), basic_mode=True).ok


def _basic_mode_corpus():
    """(graph, certificates) over every certificate source and family."""
    graphs = [petersen(), counterexample_graph()] + [complete(n) for n in range(5, 9)]
    graphs += [k3n(n) for n in (3, 4, 5, 9, 17)]
    graphs += [wheel(n) for n in (5, 6, 9, 17)]
    graphs += [circular_ladder(k) for k in (3, 4, 7, 12)]
    graphs += [gen_3_connected(n, seed) for seed, n in enumerate((6, 9, 14, 25, 40, 70))]
    graphs += [dense_3_connected(n, 2 * n, seed) for seed, n in enumerate((10, 16, 25, 40))]
    rng = random.Random(4375)
    while len(graphs) < 50:
        g = gnp(rng.randrange(6, 13), 0.6, rng.randrange(1 << 30))
        if certify(g).certified:
            graphs.append(g)
    for g in graphs:
        cert = certify(g).certificate
        # Started from S0 of the mirrored graph, the growth loop takes
        # other steps than from certify's own K4 start.
        mirrored = certify(g, prescribed_s0=certify(_mirrored(g)).certificate.s0_edges).certificate
        certs = [cert, mirrored, hoist_single_edges(g, cert)]
        for plain in certs[0], certs[2]:
            basic = to_basic(g, plain)
            certs += [basic, from_basic(basic)]
        # from_basic(to_basic(cert)) and the hoisted or mirrored
        # certificate are often cert itself; mutate each one once.
        certs += [mutate_certificate(g, c, seed) for c in dict.fromkeys(certs[:5]) for seed in range(4)]
        yield g, certs


def _mirrored(g: MultiGraph) -> MultiGraph:
    """g with node id v renamed n - 1 - v and every edge id kept, so a
    certificate's edge ids on it are edge ids of g."""
    n = len(g._node_alive)
    out = MultiGraph()
    for _ in range(n):
        out.add_node()
    for e in g.live_edges():
        u, v = g.ends(e)
        out.add_edge(n - 1 - u, n - 1 - v, eid=e)
    for v in range(n):
        if not g.node_alive(v):
            out.kill_node(n - 1 - v)
    return out


def test_basic_mode_answers_as_the_forward_replay():
    """The reverse pass decides basic mode exactly as the forward replay
    over the link structure did, on certificates from every source.
    `path_to_edge` runs the same pass, so it raises exactly on a reject."""
    seen = Counter()
    for g, certs in _basic_mode_corpus():
        for cert in certs:
            res = verify_certificate(g, cert, basic_mode=True)
            plain = verify_certificate(g, cert)
            try:
                path_to_edge(g, cert)
            except TransformError:
                assert not plain.ok, cert
            else:
                assert plain.ok, (cert, plain)
            if plain.ok:
                ref = reference_basic_verdict(g, cert.s0_edges, cert.steps)
                assert res.ok == ref.ok, (cert, res, ref)
                if not res.ok:
                    assert res.reason == ref.reason == "nonbasic_step"
            else:
                assert not res.ok
            seen[res.reason or "accept"] += 1
    assert seen["accept"] >= 50
    assert seen["nonbasic_step"] >= 50


def _hostile_variants(g: MultiGraph, cert, seed: int):
    """(graph, certificate) pairs that bend `cert` the way a crafted input
    could: a path step through a negative, out-of-range, dead or isolated
    node id, a step pair reused by an inserted step, path steps with their
    ends reversed, and S0 holding a dead edge id."""
    rng = random.Random(seed)
    steps = list(cert.steps)
    n = len(g._node_alive)

    def with_steps(new_steps, s0=cert.s0_edges):
        return PathCertificate(tuple(s0), tuple(new_steps))

    out = []
    paths = [k for k, step in enumerate(steps) if isinstance(step, PathStep)]
    if paths:
        g_dead = g.copy()
        dead = g_dead.add_node()
        g_dead.kill_node(dead)
        g_isolated = g.copy()
        isolated = g_isolated.add_node()
        for host, node in ((g, -1 - rng.randrange(3)), (g, n + rng.randrange(3)),
                           (g_dead, dead), (g_isolated, isolated)):
            k = rng.choice(paths)
            nodes = list(steps[k].nodes)
            nodes[rng.randrange(len(nodes))] = node
            out.append((host, with_steps(steps[:k] + [PathStep(tuple(nodes))] + steps[k + 1:])))
        k = rng.choice(paths)
        reused = PathStep(steps[k].nodes[:2])
        j = rng.randrange(len(steps) + 1)
        out.append((g, with_steps(steps[:j] + [reused] + steps[j:])))
        out.append((g, with_steps(steps[:k] + [PathStep(steps[k].nodes[::-1])] + steps[k + 1:])))
        out.append((g, with_steps(PathStep(s.nodes[::-1]) if isinstance(s, PathStep) else s for s in steps)))
    g_extra = g.copy()
    u, v = g.ends(cert.s0_edges[0])
    parallel = g_extra.add_edge(u, v)
    # The id of a loop line, as a parser leaves it: dead, with ends (u, u).
    loop = g_extra.add_edge(u, v)
    g_extra.kill_edge(loop)
    g_extra._ends[loop] = (u, u)
    for e in (parallel, loop, len(g_extra._ends) + rng.randrange(3), -1):
        s0 = list(cert.s0_edges)
        s0[rng.randrange(len(s0))] = e
        out.append((g_extra, with_steps(steps, s0)))
    return out


def _random_partition_cert(g_s: MultiGraph, rng: random.Random) -> PathCertificate:
    """A random S0 and the other edges of the simple graph g_s cut into
    random paths of one to three edges, in random order: the partition
    holds, so the pass gets to remove steps and rejects where a removal
    first breaks a condition."""
    edges = g_s.live_edges()
    s0 = rng.sample(edges, rng.randrange(3, min(9, len(edges))))
    used = set(s0)
    free = [e for e in edges if e not in used]
    rng.shuffle(free)
    steps = []
    for e in free:
        if e in used:
            continue
        used.add(e)
        nodes = list(g_s.ends(e))
        if rng.random() < 0.5:
            nodes.reverse()
        for _ in range(rng.randrange(3)):
            nxt = [(f, y) for f, y in g_s._inc[nodes[-1]].items() if f not in used and y not in nodes]
            if not nxt:
                break
            f, y = rng.choice(nxt)
            used.add(f)
            nodes.append(y)
        steps.append(PathStep(tuple(nodes)))
    return PathCertificate(tuple(sorted(s0)), tuple(steps))


def _frozen_pass_cases():
    """The certificate corpus, hostile variants of its certificates, and
    random edge partitions of small random graphs."""
    for g, certs in _basic_mode_corpus():
        yield from ((g, cert) for cert in certs)
        for seed, cert in enumerate(certs[:7]):
            yield from _hostile_variants(g, cert, seed)
            yield from ((g, broken) for broken in break_trailing_run(g, cert, seed))
    rng = random.Random(1)
    made = 0
    while made < 1500:
        g = gnp(rng.randrange(5, 9), rng.choice([0.6, 0.8]), rng.randrange(1 << 30))
        if min_degree(g) >= 3:
            made += 1
            yield g, _random_partition_cert(g, rng)


def _graph_state(g: MultiGraph):
    """Everything of g a reader can tell apart: live flags, the ends of
    the live edges, every incidence in order and the live counts."""
    return (
        g._node_alive,
        g._edge_alive,
        [g._ends[e] for e in g.live_edges()],
        [list(inc.items()) for inc in g._inc],
        g.n_live_nodes,
        g.n_live_edges,
    )


def test_reverse_pass_answers_as_the_frozen_one():
    """The pair-index pass, editing incidences in place, gives the same
    verdict, reason and step in both modes, the same removal records and
    the same graph left behind (the residue `path_to_edge` turns into g0,
    or wherever a reject stopped) as the pass it replaced.

    One reject stops at a different point by design: the frozen pass
    smooths the first end before it finds that the second cannot be
    smoothed, and the current one checks both ends before it smooths
    either, so after a `smooth_failed` the graphs are not compared."""
    seen = Counter()
    for host, cert in _frozen_pass_cases():
        for basic in (False, True):
            want_removals: list = []
            want, want_w = reference_reverse_pass(host, cert, basic, want_removals)
            w, index = simplify(host)
            removals: list = []
            assert _reverse_pass(w, index, cert, basic, removals) == want, (cert, basic)
            assert removals == want_removals, (cert, basic)
            if want.reason != "smooth_failed":
                assert _graph_state(w) == _graph_state(want_w), (cert, basic)
            assert verify_certificate(host, cert, basic_mode=basic) == want
            seen[want.reason or "accept"] += 1
    for reason in ("accept", "bad_path", "overlap", "bad_s0_edge", "min_degree", "not_partition",
                   "step_not_reduced", "step_endpoints", "cond2", "cond3", "nonbasic_step",
                   "smooth_failed", "expand_center", "residue_degrees"):
        assert seen[reason] >= 10, (reason, seen)


def _count_remove_path(monkeypatch) -> list[int]:
    """The step index of every `_remove_path` call from now on."""
    calls: list[int] = []
    real = verifier._remove_path

    def counting(w, step, edges, k, *rest):
        calls.append(k)
        return real(w, step, edges, k, *rest)

    monkeypatch.setattr(verifier, "_remove_path", counting)
    return calls


@pytest.mark.parametrize("g", [wheel(40), k3n(30)], ids=["wheel", "k3n"])
def test_trailing_run_hands_off_at_a_node_of_degree_3(g, monkeypatch):
    # Every edge of a wheel or of K_{3,n} has an end of degree 3, a rim node
    # or a leaf, so the run loop hands its first step on to `_remove_path`
    # and every path step goes through it.
    cert = certify(g).certificate
    assert trailing_run(cert.steps) < len(cert.steps)
    calls = _count_remove_path(monkeypatch)
    for basic in (False, True):
        calls.clear()
        want_removals: list = []
        want, want_w = reference_reverse_pass(g, cert, basic, want_removals)
        w, index = simplify(g)
        removals: list = []
        assert _reverse_pass(w, index, cert, basic, removals) == want == ACCEPT
        assert removals == want_removals and _graph_state(w) == _graph_state(want_w)
        assert calls == list(range(len(cert.steps) - 1, -1, -1))


def test_broken_trailing_runs_break_as_they_say(monkeypatch):
    """`break_trailing_run`'s four kinds on dense certificates: an overlap
    and a missing edge inside the run, the run moved off the tail, and a
    reverse pass that hands off inside the run."""
    inside = 0
    run_calls = _count_remove_path(monkeypatch)
    for seed, n in enumerate((20, 30, 40)):
        g = dense_3_connected(n, 4 * n, seed)
        cert = certify(g).certificate
        t = trailing_run(cert.steps)
        dup, missing, moved, gathered = break_trailing_run(g, cert, seed)
        res = verify_certificate(g, dup)
        assert res.reason == "overlap" and res.step > t
        res = verify_certificate(g, missing)
        assert res.reason == "bad_path" and res.step >= t
        assert trailing_run(moved.steps) == len(moved.steps)
        assert not verify_certificate(g, moved)
        run_calls.clear()
        assert verify_certificate(g, gathered)
        t = trailing_run(gathered.steps)
        inside += any(k >= t for k in run_calls)
    assert inside == 3


def test_no_incidence_scan(monkeypatch):
    """Every step pair is one lookup in the pair index: verify in both
    modes and path_to_edge never scan an incidence for an edge."""
    graphs = [wheel(40), k3n(30), dense_3_connected(40, 80, 3), counterexample_graph()]
    cases = []
    for g in graphs:
        cert = certify(g).certificate
        g_s, _ = simplify(g)
        cases += [(g, cert), (g, to_basic(g, cert)), (g, mutate_certificate(g_s, cert, 5))]
        cases += _hostile_variants(g, cert, 7)

    def scan(self, u, v):
        raise AssertionError("edge_between called")

    monkeypatch.setattr(MultiGraph, "edge_between", scan)
    accepted = 0
    for g, cert in cases:
        res = verify_certificate(g, cert)
        verify_certificate(g, cert, basic_mode=True)
        try:
            path_to_edge(g, cert)
        except TransformError:
            assert not res.ok
        else:
            accepted += 1
    assert accepted >= 8


def test_verifier_shares_no_code_with_the_producer():
    # The checker may take the step types from `subdivision`, but none of
    # the link machinery, transforms or search it is there to check.
    import tricert.verifier

    tree = ast.parse(Path(tricert.verifier.__file__).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.setdefault(module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                imported.setdefault(a.name, set())
    assert imported[".subdivision"] == {"PathStep", "ExpandStep"}
    for module, names in imported.items():
        for banned in ("transforms", "sequencer"):
            assert banned not in module.split(".") and banned not in names, module


def test_expand_certificate_accepted():
    g = counterexample_graph()
    cert = PathCertificate(
        tuple(range(6)), (ExpandStep(4, ((4, 0), (4, 1), (4, 2))),)
    )
    assert verify_certificate(g, cert).ok
    assert verify_certificate(g, cert, basic_mode=True).ok


def test_low_degree_graph_rejected():
    from helpers import cycle

    cert = PathCertificate((0, 1, 2, 3, 4, 5), ())
    res = verify_certificate(cycle(6), cert)
    assert not res.ok
    assert res.reason == "min_degree"


def test_partition_failures():
    g = counterexample_graph()
    missing = PathCertificate(tuple(range(6)), (PathStep((0, 4, 1)),))
    assert verify_certificate(g, missing).reason == "not_partition"
    doubled = PathCertificate(
        tuple(range(6)), (PathStep((0, 4, 1)), PathStep((0, 4, 1)), PathStep((4, 2)))
    )
    assert verify_certificate(g, doubled).reason == "overlap"
    not_path = PathCertificate(
        tuple(range(6)), (PathStep((0, 4, 3)), PathStep((4, 1)), PathStep((4, 2)))
    )
    assert verify_certificate(g, not_path).reason == "bad_path"


def test_residue_degrees_rejected():
    # S0 is the whole of K5: nothing to remove, and the residue has degree 4.
    res = verify_certificate(complete(5), PathCertificate(tuple(range(10)), ()))
    assert (res.ok, res.reason, res.step) == (False, "residue_degrees", -1)


# Cubic graphs on a, b, c, d, x, y, z, w (ids 0..7) whose two steps x-z and
# y-w remove cleanly and leave a, b, c, d of degree 3 with parallel edges.
_A, _B, _C, _D, _X, _Y, _Z, _W = range(8)
_TWO_LINK_PAIRS = [(_A, _X), (_X, _B), (_A, _Y), (_Y, _B), (_C, _Z), (_Z, _D), (_C, _W), (_W, _D)]
_RESIDUE_STEPS = (PathStep((_X, _Z)), PathStep((_Y, _W)))


@pytest.mark.parametrize("basic", [False, True])
@pytest.mark.parametrize(
    "closing, reason",
    [
        # Links a-x-b, a-y-b, c-z-d, c-w-d plus a-c, b-d: connected, but
        # two pairs of parallel links.
        ([(_A, _C), (_B, _D)], "residue_not_k4"),
        # Links a-b, a-x-b, a-y-b and c-d, c-z-d, c-w-d: two thetas.
        ([(_A, _B), (_C, _D)], "residue_disconnected"),
    ],
)
def test_residue_shape_rejected(closing, reason, basic):
    g = MultiGraph.from_edges(8, _TWO_LINK_PAIRS + closing + [(_X, _Z), (_Y, _W)])
    cert = PathCertificate(tuple(range(10)), _RESIDUE_STEPS)
    res = verify_certificate(g, cert, basic_mode=basic)
    assert (res.ok, res.reason, res.step) == (False, reason, -1)


def test_residue_check_on_built_residues():
    # These residues cannot come out of a reverse pass: every id of a step
    # dies with the step, and each node that a removal leaves with degree 2
    # is smoothed away.  The residue check still rejects them.
    assert _check_residue(k4(), set(range(6))) is None
    subdivided = MultiGraph.from_edges(6, [(0, 4), (4, 5), (5, 1)] + K4_EDGES[1:])
    res = _check_residue(subdivided, set(range(8)))
    assert (res.ok, res.reason, res.step) == (False, "residue_degrees", -1)
    res = _check_residue(k4(), set(range(5)))
    assert (res.ok, res.reason, res.step) == (False, "residue_extra_edges", -1)
    # Doubled a-b and c-d: four nodes of degree 3 on four pairs.
    a, b, c, d = range(4)
    doubled = [(a, b), (a, b), (c, d), (c, d), (a, c), (b, d)]
    res = _check_residue(multigraph(4, doubled), set(range(6)))
    assert (res.ok, res.reason, res.step) == (False, "residue_not_k4", -1)
    # A loop pair is dead from the start, so it leaves a with degree 1.
    # The repeated c-d starts dead too; add_edge revives it as a parallel
    # edge, so only a is off degree 3.
    looped = MultiGraph.from_edges(4, [(a, a), (a, b), (b, c), (b, d), (c, d), (c, d)])
    looped.add_edge(c, d, eid=5)
    res = _check_residue(looped, set(range(6)))
    assert (res.ok, res.reason, res.step) == (False, "residue_degrees", -1)


_BOWTIE = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]


def test_witness_examples():
    g = MultiGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert verify_witness(g, Witness("separation_pair", (0, 1)))
    assert not verify_witness(k4(), Witness("separation_pair", (0, 1)))
    bowtie = MultiGraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert verify_witness(bowtie, Witness("cut_vertex", (2,)))
    assert not verify_witness(bowtie, Witness("cut_vertex", (0,)))
    assert verify_witness(MultiGraph.from_edges(2, [(0, 1)]), Witness("too_few_nodes"))
    assert not verify_witness(k4(), Witness("too_few_nodes"))
    assert verify_witness(bowtie, Witness("low_degree", (0,)))
    assert not verify_witness(k4(), Witness("low_degree", (0,)))
    assert not verify_witness(k4(), Witness("disconnected"))
    assert not verify_witness(k4(), Witness("separation_pair", (0, 0)))


def test_low_degree_counts_distinct_neighbours():
    # Node 0 has three edges but two neighbours, so removing them cuts it off.
    g = multigraph(4, [(0, 1), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert g.degree(0) == 3
    assert verify_witness(g, Witness("low_degree", (0,)))
    assert verify_witness(simplify(g)[0], Witness("low_degree", (0,)))
    assert not verify_witness(g, Witness("low_degree", (1,)))


@st.composite
def _parallel_multigraphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=14))
    return multigraph(n, [*pairs, *pairs[: draw(st.integers(0, len(pairs)))]])


@settings(max_examples=80)
@given(_parallel_multigraphs())
def test_witness_verdicts_ignore_parallel_edges(g):
    # verify_witness reads the graph as given, parallel edges included; the
    # verdict is the one on the simplified graph for every witness.
    g_s, _ = simplify(g)
    nodes = g.live_nodes()
    witnesses = [Witness("too_few_nodes"), Witness("disconnected")]
    witnesses += [Witness(kind, (v,)) for kind in ("low_degree", "cut_vertex") for v in nodes]
    witnesses += [Witness("separation_pair", (u, v)) for u in nodes for v in nodes]
    for w in witnesses:
        assert verify_witness(g, w) == verify_witness(g_s, w), w


_WRONG_NODE_COUNT = [
    (_BOWTIE, "WITNESS SEPPAIR 2"),
    (_BOWTIE, "WITNESS SEPPAIR 0 2 3"),
    (_BOWTIE, "WITNESS CUTVERTEX"),
    (_BOWTIE, "WITNESS CUTVERTEX 2 3"),
    (_BOWTIE, "WITNESS LOWDEGREE"),
    (_BOWTIE, "WITNESS LOWDEGREE 0 1"),
    ([(0, 1)], "WITNESS TOOSMALL 0"),
    ([(0, 1), (2, 3)], "WITNESS DISCONNECTED 0"),
]


@pytest.mark.parametrize(
    "edges, text", _WRONG_NODE_COUNT, ids=[text[8:].replace(" ", "-") for _, text in _WRONG_NODE_COUNT]
)
def test_witness_with_the_wrong_node_count_is_false(edges, text):
    # Each graph has a witness of the named kind with the right number of
    # nodes, so only the count makes these false; none may raise.
    g = MultiGraph.from_edges(1 + max(max(p) for p in edges), edges)
    assert verify_witness(g, parse_witness(g, text)) is False


def test_verifier_never_accepts_non3connected():
    # Exhaustive over all labeled graphs on 5 nodes with a fabricated
    # "certificate" shaped from whatever the sequencer would produce on a
    # related graph cannot be done here; instead check honest certificates
    # only exist for 3-connected inputs.
    for seed in range(60):
        rng = random.Random(seed)
        g = gnp(6, rng.choice([0.4, 0.6]), seed + 991)
        result = certify(g)
        if result.certified:
            assert is_3_connected_brute(g)
            assert verify_certificate(g, result.certificate).ok


@pytest.mark.parametrize("seed", range(60))
def test_mutations_rejected(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 16)
    g = gen_3_connected(n, seed * 7 + 1)
    result = certify(g)
    assert result.certified
    g_s, _ = simplify(g)
    mutated = mutate_certificate(g_s, result.certificate, seed)
    assert not verify_certificate(g, mutated).ok
    _assert_transforms_reject(g, mutated)


def _assert_transforms_reject(g, cert):
    with pytest.raises(TransformError):
        path_to_edge(g, cert)
    with pytest.raises(TransformError):
        to_basic(g, cert)


@pytest.mark.parametrize("seed", range(20))
def test_mutations_of_basic_certificates_rejected(seed):
    g = gen_3_connected(10 + seed % 5, seed * 3 + 2)
    g_s, _ = simplify(g)
    mutated = mutate_certificate(g_s, to_basic(g, certify(g).certificate), seed)
    assert not verify_certificate(g, mutated).ok
    _assert_transforms_reject(g, mutated)


def _random_garbage_cert(g_s, rng):
    edges = g_s.live_edges()
    nodes = g_s.live_nodes()
    if len(edges) < 6 or len(nodes) < 4:
        return None
    k = rng.randrange(5, min(len(edges), 12) + 1)
    s0 = tuple(sorted(rng.sample(edges, k)))
    steps = []
    for _ in range(rng.randrange(0, 5)):
        seq = [rng.choice(nodes)]
        for _ in range(rng.randrange(1, 4)):
            nbrs = sorted(g_s.neighbors(seq[-1]) - set(seq))
            if not nbrs:
                break
            seq.append(rng.choice(nbrs))
        if len(seq) >= 2:
            steps.append(PathStep(tuple(seq)))
    return PathCertificate(s0, tuple(steps))


@pytest.mark.parametrize("block", range(8))
def test_adversarial_soundness(block):
    # No certificate, however crafted, is accepted for a graph the oracle
    # refutes; and the checker never crashes on shaped garbage.
    rng = random.Random(block * 5717 + 1)
    for _ in range(400):
        n = rng.randrange(4, 9)
        g = gnp(n, rng.choice([0.3, 0.5, 0.7, 0.9]), rng.randrange(1 << 30))
        g_s, _ = simplify(g)
        cert = _random_garbage_cert(g_s, rng)
        if cert is None:
            continue
        if verify_certificate(g, cert).ok:
            assert is_3_connected_brute(g)


@pytest.mark.parametrize("seed", range(10))
def test_cross_graph_certificates_sound(seed):
    # An honest certificate verified against an unrelated graph of the same
    # size never certifies a non-3-connected one.
    rng = random.Random(seed + 303)
    for _ in range(40):
        g1 = gen_3_connected(rng.randrange(5, 9), rng.randrange(1 << 30))
        cert = certify(g1).certificate
        g2 = gnp(g1.n_live_nodes, 0.6, rng.randrange(1 << 30))
        if verify_certificate(g2, cert).ok:
            assert is_3_connected_brute(g2)
