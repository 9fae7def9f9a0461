import random

import pytest

from tricert import (
    ContractionSequence,
    EdgeRep,
    ExpandStep,
    MultiGraph,
    OpA,
    OpB,
    OpC,
    OpD,
    PathCertificate,
    PathStep,
    ReplayError,
    TransformError,
    certify,
    edge_to_path,
    from_basic,
    gen_3_connected,
    is_3_connected_brute,
    parse_graph,
    path_to_edge,
    replay_edge_rep,
    serialize_graph,
    simplify,
    to_basic,
    to_contractions,
    verify_certificate,
)
import tricert.transforms
from tricert.certformat import format_certificate, format_edge_rep

from helpers import (
    break_trailing_run,
    contract,
    counterexample_graph,
    dense_3_connected,
    hoist_single_edges,
    k3n,
    k4,
    multigraph,
    mutate_certificate,
    reference_edge_to_path,
    reference_to_basic,
    wheel,
)


def certify_cert(g, **kw):
    result = certify(g, **kw)
    assert result.certified
    return result.certificate


def test_path_to_edge_k4():
    er = path_to_edge(k4(), PathCertificate(tuple(range(6)), ()))
    assert er.ops == []
    assert sorted(er.g0.live_edges()) == list(range(6))


def test_path_to_edge_counterexample():
    g = counterexample_graph()
    cert = certify_cert(g, prescribed_s0=range(6))
    er = path_to_edge(g, cert)
    assert er.ops == [OpA(0, 1, 6), OpB(6, 4, 7, 1, 2, 8)]
    g_z = replay_edge_rep(er)
    assert serialize_graph(g_z) == serialize_graph(simplify(g)[0])
    # Same live ids pair-for-pair, not merely isomorphic.
    g_s, _ = simplify(g)
    for e in g_s.live_edges():
        assert set(g_z.ends(e)) == set(g_s.ends(e))


def test_edge_to_path_counterexample():
    g = counterexample_graph()
    cert = certify_cert(g, prescribed_s0=range(6))
    er = path_to_edge(g, cert)
    back = edge_to_path(er)
    assert [s.nodes for s in back.steps] == [(0, 4, 1), (4, 2)]
    assert back.s0_edges == tuple(range(6))


def _random_edge_rep(seed: int, n_ops: int) -> tuple[EdgeRep, int]:
    """An edge rep grown op by op from K4 that replays, and how many of its
    splits go toward a split node of the same chain.

    A, B, C and D ops come in a random mix with a random `part_far` per
    split.  Half the A ops double a live edge, and half the splits take a
    part an earlier split made, so chains get split again toward their own
    split nodes."""
    rng = random.Random(seed)
    g0 = k4()
    ops: list = []
    next_node, next_edge = 4, 6
    chain_of = {e: e for e in g0.live_edges()}  # edge id -> its chain's first edge
    split_chain: dict[int, int] = {}  # split node -> the chain it lies inside
    parts: list[int] = []
    inside = 0

    def fresh_edge() -> int:
        nonlocal next_edge
        next_edge += 1
        return next_edge - 1

    for _ in range(n_ops):
        g = replay_edge_rep(EdgeRep(g0, ops))
        nodes = g.live_nodes()
        splittable = [e for e in g.live_edges() if len(set(g.ends(e))) == 2]

        def pick(avoid: set[int] | None = None) -> int:
            """A splittable edge, not parallel to the edge whose ends are `avoid`."""
            pool = parts if parts and rng.random() < 0.5 else splittable
            ok = [e for e in pool if set(g.ends(e)) != avoid]
            return rng.choice(ok or [e for e in splittable if set(g.ends(e)) != avoid])

        def split(e: int) -> tuple[int, int, int, int]:
            nonlocal next_node, inside
            x, f, far = next_node, fresh_edge(), rng.choice(g.ends(e))
            next_node += 1
            inside += split_chain.get(far) == chain_of[e]
            chain_of[f] = split_chain[x] = chain_of[e]
            parts.append(f)
            return e, x, f, far

        kind = rng.choice("ABCD")
        if kind == "A":
            u, v = g.ends(rng.choice(splittable)) if rng.random() < 0.5 else rng.sample(nodes, 2)
            ops.append(OpA(u, v, fresh_edge()))
        elif kind == "B":
            e = pick()
            other = rng.choice([v for v in nodes if v not in g.ends(e)])
            ops.append(OpB(*split(e), other, fresh_edge()))
        elif kind == "C":
            e1 = pick()
            e2 = pick(avoid=set(g.ends(e1)))
            ops.append(OpC(*split(e1), *split(e2), fresh_edge()))
        else:
            w = next_node
            next_node += 1
            ops.append(OpD(w, tuple(rng.sample(nodes, 3)), (fresh_edge(), fresh_edge(), fresh_edge())))
        op = ops[-1]
        for e in op.new_edges if isinstance(op, OpD) else (op.new_edge,):
            chain_of[e] = e
    er = EdgeRep(g0, ops)
    replay_edge_rep(er)
    return er, inside


def test_edge_to_path_equals_the_chain_gluing_reference():
    inside = 0
    for seed in range(150):
        er, k = _random_edge_rep(seed, 1 + seed % 40)
        inside += k
        assert edge_to_path(er) == reference_edge_to_path(er), seed
    assert inside >= 100


def test_edge_to_path_follows_a_chain_split_twice_toward_the_same_end():
    # Edge 6 doubles 0-1 and is split at 4 toward 1, then at 5 toward 4:
    # node 4 sees part 9 where it saw edge 6, so its slot must follow.
    ops = [OpA(0, 1, 6), OpB(6, 4, 7, 1, 2, 8), OpB(6, 5, 9, 4, 3, 10)]
    er = EdgeRep(k4(), ops)
    back = edge_to_path(er)
    assert [s.nodes for s in back.steps] == [(0, 5, 4, 1), (4, 2), (5, 3)]
    assert back.s0_edges == tuple(range(6))
    assert back == reference_edge_to_path(er)


def test_replay_errors():
    er = EdgeRep(g0=k4(), ops=[OpA(0, 1, 3)])
    with pytest.raises(ReplayError):
        replay_edge_rep(er)
    er = EdgeRep(g0=k4(), ops=[OpB(0, 4, 6, 1, 0, 7)])
    with pytest.raises(ReplayError):
        replay_edge_rep(er)
    er = EdgeRep(g0=k4(), ops=[OpB(99, 4, 6, 1, 2, 7)])
    with pytest.raises(ReplayError):
        replay_edge_rep(er)
    # part_far must be an endpoint of the split edge.
    er = EdgeRep(g0=k4(), ops=[OpB(0, 4, 6, 3, 2, 7)])
    with pytest.raises(ReplayError):
        replay_edge_rep(er)


def test_roundtrip_byte_identity_small():
    for seed in range(40):
        rng = random.Random(seed)
        g = gen_3_connected(rng.randrange(5, 20), seed * 101 + 3)
        cert = certify_cert(g)
        g_s, _ = simplify(g)
        er = path_to_edge(g_s, cert)
        back = edge_to_path(er)
        assert format_certificate(g_s, back) == format_certificate(g_s, cert)
        er2 = path_to_edge(g_s, back)
        assert format_edge_rep(er2) == format_edge_rep(er)


def test_to_basic_counterexample_single_expand():
    g = counterexample_graph()
    cert = certify_cert(g, prescribed_s0=range(6))
    basic = to_basic(g, cert)
    assert len(basic.steps) == 1
    (step,) = basic.steps
    assert isinstance(step, ExpandStep)
    assert step.center == 4
    assert step.anchors == (0, 1, 2)
    assert verify_certificate(g, basic, basic_mode=True).ok


def test_to_basic_k4_unchanged():
    cert = PathCertificate(tuple(range(6)), ())
    basic = to_basic(k4(), cert)
    assert basic.steps == ()


def test_to_basic_requires_paths_and_rewrites_the_simplified_graph():
    g = counterexample_graph()
    with pytest.raises(TransformError):
        to_basic(g, PathCertificate(tuple(range(6)), (ExpandStep(4, ((4, 0), (4, 1), (4, 2))),)))
    # A doubled edge is dropped first, as certify and verify_certificate
    # drop it, and a loop line is dead from the parse.
    g = parse_graph("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n1 5\n2 5\n3 5\n1 2\n3 3\n")
    cert = certify_cert(g, prescribed_s0=range(6))
    basic = to_basic(g, cert)
    assert basic == to_basic(simplify(g)[0], cert)
    assert verify_certificate(g, basic, basic_mode=True).ok


def test_to_basic_replacement_when_no_expand_possible():
    # S0 subdivides both the 0-1 and 2-3 edges of a K4.  The 0-1 step
    # through 5 is parallel to the 0-4-1 link, and the step attaching to
    # its interior starts at 6, itself interior to the 2-6-3 link, so no
    # expand can be formed: the two steps are re-cut into two paths that
    # both end at link interiors.
    g = MultiGraph.from_edges(
        7,
        [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 6), (6, 3),
         (0, 5), (5, 1), (5, 6), (4, 2)],
    )
    cert = PathCertificate(
        tuple(range(8)), (PathStep((0, 5, 1)), PathStep((5, 6)), PathStep((4, 2)))
    )
    assert verify_certificate(g, cert).ok
    assert not verify_certificate(g, cert, basic_mode=True).ok
    basic = to_basic(g, cert)
    assert verify_certificate(g, basic, basic_mode=True).ok
    assert all(isinstance(s, PathStep) for s in basic.steps)
    assert len(basic.steps) == 3
    # The two replacement paths cover exactly the edges of the two merged
    # steps and both start at a degree-2 node of their moment.
    assert basic.steps[0] == PathStep((6, 5, 0))
    assert basic.steps[1] == PathStep((5, 1))


def test_to_basic_appends_parallel_single_edges():
    # A single-edge step parallel to an initial link is postponed to the
    # end, after the link's interior has become branch nodes.
    g = MultiGraph.from_edges(
        5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 1), (0, 1), (4, 2)]
    )
    cert = PathCertificate(
        tuple(range(7)), (PathStep((0, 1)), PathStep((4, 2)))
    )
    assert verify_certificate(g, cert).ok
    basic = to_basic(g, cert)
    assert verify_certificate(g, basic, basic_mode=True).ok
    assert basic.steps[-1] == PathStep((0, 1))


# Graphs and certificates that parse but are invalid.  Edge ids follow the
# edge lists: K4 is 0..5, so "0 4 1" below is edges 6 and 7.
_K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_INVALID_FOR_BASIC = {
    # Three S0 edges make a triangle, with no branch node.
    "triangle_s0": (_K4_EDGES + [(0, 4), (4, 1), (4, 2)], (0, 1, 3), ()),
    # The first step leaves node 4 hanging from node 0.
    "dangling_step": (
        _K4_EDGES + [(0, 4), (4, 1), (4, 2)],
        tuple(range(6)),
        (PathStep((0, 4)), PathStep((4, 1)), PathStep((4, 2))),
    ),
    # A parallel-making path that no later step attaches to.
    "path_never_attached": (_K4_EDGES + [(0, 4), (4, 1)], tuple(range(6)), (PathStep((0, 4, 1)),)),
    # A parallel-making edge whose link interior never becomes a branch node.
    "edge_stays_parallel": (_K4_EDGES[1:] + [(0, 4), (4, 1), (0, 1)], tuple(range(7)), (PathStep((0, 1)),)),
    # The step attaching to the held path 0-5-4-1 ends at the path's own end.
    "attaches_to_own_end": (
        _K4_EDGES + [(0, 5), (5, 4), (4, 1), (4, 0)],
        tuple(range(6)),
        (PathStep((0, 5, 4, 1)), PathStep((4, 0))),
    ),
    # A step through node 0 twice.
    "repeated_node": (_K4_EDGES + [(0, 4), (4, 1), (4, 2)], tuple(range(6)), (PathStep((0, 4, 0)),)),
    # S0 is the whole graph, K4 with edge 1-2 subdivided by node 4, which
    # keeps degree 2.
    "degree_two_node": ([(0, 1), (0, 2), (0, 3), (1, 4), (4, 2), (1, 3), (2, 3)], tuple(range(7)), ()),
    # S0 is two K4s on node 0, which smooth to a graph with seven nodes.
    "two_k4s_s0": (
        _K4_EDGES + [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6)],
        tuple(range(12)),
        (PathStep((1, 4)), PathStep((2, 5)), PathStep((3, 6))),
    ),
}


@pytest.mark.parametrize("name", sorted(_INVALID_FOR_BASIC))
def test_to_basic_rejects_invalid_certificate(name):
    edges, s0, steps = _INVALID_FOR_BASIC[name]
    g = MultiGraph.from_edges(1 + max(map(max, edges)), edges)
    with pytest.raises(TransformError):
        to_basic(g, PathCertificate(s0, steps))


def _with_k4_on_a_cut_vertex(g):
    """A copy of `g` with a K4 hung on node 0, and the K4's six edge ids."""
    h = g.copy()
    a, b, c = (h.add_node() for _ in range(3))
    return h, [h.add_edge(u, v) for u, v in ((0, a), (0, b), (0, c), (a, b), (a, c), (b, c))]


def _differential_cases(seed):
    """Certificates on `gen_3_connected(5..13)` and on the same graph with
    a K4 hung on a cut vertex, whose certificates add the K4 to S0: the
    honest one with its first 0-6 steps folded into S0, three random
    splits into S0 plus one-edge steps, and three `mutate_certificate`
    mutants."""
    rng = random.Random(seed)
    base = gen_3_connected(5 + seed % 9, seed)
    honest = certify_cert(base)
    hung, k4_edges = _with_k4_on_a_cut_vertex(base)
    for g, extra in ((base, ()), (hung, tuple(k4_edges))):
        _, index = simplify(g)
        s0 = honest.s0_edges + extra
        cert = PathCertificate(tuple(sorted(s0)), honest.steps)
        for j in range(min(6, len(cert.steps)) + 1):
            folded = [index[min(p), max(p)] for s in cert.steps[:j] for p in zip(s.nodes, s.nodes[1:])]
            yield g, PathCertificate(tuple(sorted(s0 + tuple(folded))), cert.steps[j:])
        live = sorted(g.live_edges())
        for _ in range(3):
            rng.shuffle(live)
            k = rng.randrange(len(live) // 2)
            yield g, PathCertificate(tuple(sorted(live[k:])), tuple(PathStep(g.ends(e)) for e in live[:k]))
        for t in range(3):
            yield g, mutate_certificate(g, cert, 7 * seed + t)


def test_to_basic_raises_exactly_when_verify_rejects():
    # About 1500 certificates, most of them with an S0 that has more than
    # four branch nodes, which `verify` rejects at the residue and
    # `build_subdivision` must refuse.
    cases = accepted = 0
    for seed in range(68):
        for g, cert in _differential_cases(seed):
            verdict = verify_certificate(g, cert)
            try:
                to_basic(g, cert)
            except TransformError:
                assert not verdict.ok, (seed, cert)
            else:
                assert verdict.ok, (seed, cert, verdict.reason)
                accepted += 1
            cases += 1
    assert cases >= 1500 and 0 < accepted < cases


def _outcome(rewrite, g, cert):
    try:
        return rewrite(g, cert)
    except TransformError as exc:
        return str(exc)


def test_to_basic_answers_as_the_general_loop_on_broken_trailing_runs(monkeypatch):
    # Once every node is real, `to_basic` checks the remaining one-edge
    # steps in one flat pass.  It must return the certificate the general
    # loop returns, or raise its message: an error of a later step before
    # "parallel-making single edges left at the end" for a step whose edge
    # is already in S.  Twice-broken runs put those two kinds together.
    graphs = [dense_3_connected(n, 3 * n, seed) for seed, n in enumerate((12, 20, 30, 40))]
    graphs += [gen_3_connected(n, seed) for seed, n in enumerate((10, 25, 60))]
    graphs += [wheel(12), k3n(9), counterexample_graph()]
    tails = []
    real_tail = tricert.transforms._append_single_edges

    def counting(*args):
        tails.append(len(args[1]))
        return real_tail(*args)

    monkeypatch.setattr(tricert.transforms, "_append_single_edges", counting)
    seen = {}
    for g in graphs:
        cert = certify_cert(g)
        certs = [cert, hoist_single_edges(g, cert)]
        for seed in range(3):
            for broken in break_trailing_run(g, cert, seed):
                certs += [broken, *break_trailing_run(g, broken, seed + 7)[:2]]
        for c in certs:
            got = _outcome(to_basic, g, c)
            assert got == _outcome(reference_to_basic, g, c), c
            key = got.split(":")[0] if isinstance(got, str) else "rewritten"
            seen[key] = seen.get(key, 0) + 1
    assert sum(n > 10 for n in tails) >= 20
    for message in ("rewritten", "parallel-making single edges left at the end", "certificate is invalid"):
        assert seen.get(message, 0) >= 10, seen


# Certificates whose steps all remove cleanly but leave no K4 on S0 edges:
# an S0 triangle, a node no step attaches, and five of K4's six edges.
_SHORT_OF_K4 = {
    "triangle_s0": (_K4_EDGES + [(0, 4), (4, 1), (4, 2)], (0, 1, 3)),
    "node_never_attached": (_K4_EDGES + [(0, 4), (4, 1), (4, 2)], tuple(range(6))),
    "edge_outside_s0": (_K4_EDGES, tuple(range(5))),
}


@pytest.mark.parametrize("name", sorted(_SHORT_OF_K4))
def test_path_to_edge_rejects_certificate_short_of_k4(name):
    edges, s0 = _SHORT_OF_K4[name]
    g = MultiGraph.from_edges(1 + max(map(max, edges)), edges)
    with pytest.raises(TransformError):
        path_to_edge(g, PathCertificate(s0, ()))


def test_from_basic_expands_split():
    g = counterexample_graph()
    basic = PathCertificate(tuple(range(6)), (ExpandStep(4, ((4, 0), (4, 1), (4, 2))),))
    plain = from_basic(basic)
    assert [s.nodes for s in plain.steps] == [(0, 4, 1), (4, 2)]
    assert verify_certificate(g, plain).ok
    assert from_basic(PathCertificate((), ())).steps == ()


@pytest.mark.parametrize("seed", range(30))
def test_to_basic_roundtrip_random(seed):
    g = gen_3_connected(6 + seed % 12, seed * 37 + 11)
    cert = certify_cert(g)
    basic = to_basic(g, cert)
    assert verify_certificate(g, basic, basic_mode=True).ok
    plain = from_basic(basic)
    assert verify_certificate(g, plain).ok
    again = to_basic(g, plain)
    assert verify_certificate(g, again, basic_mode=True).ok


def test_to_contractions_k4_empty():
    er = EdgeRep(g0=k4(), ops=[])
    assert to_contractions(er) == ContractionSequence(())


@pytest.mark.parametrize(
    "pairs",
    [
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],  # K4 minus an edge
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 2)],  # six edges on five pairs
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 3)],  # K4 plus a parallel edge
    ],
)
def test_to_contractions_needs_g0_to_be_k4(pairs):
    # Built with add_edge, so a repeated pair is a live parallel edge.
    with pytest.raises(TransformError, match="must start at K4"):
        to_contractions(EdgeRep(g0=multigraph(4, pairs), ops=[]))


def test_to_contractions_counterexample():
    g = counterexample_graph()
    cert = certify_cert(g, prescribed_s0=range(6))
    er = path_to_edge(g, cert)
    seq = to_contractions(er)
    # One new node, one contraction, toward the larger far endpoint.
    assert seq.pairs == ((4, 1),)
    g2 = contract(simplify(g)[0], 4, 1)
    assert g2.n_live_nodes == 4
    assert g2.n_live_edges == 6
    assert is_3_connected_brute(g2)


def test_to_contractions_joint_subdivision():
    # K4 with edge 0-1 subdivided at 4 and edge 2-3 subdivided at 5, plus
    # the joining edge 4-5.
    g = MultiGraph.from_edges(
        6, [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 5), (5, 3), (4, 5)]
    )
    cert = certify_cert(g)
    g_s, _ = simplify(g)
    er = path_to_edge(g_s, cert)
    seq = to_contractions(er)
    assert len(seq.pairs) == 2
    cur = g_s
    for u, v in seq.pairs:
        cur = contract(cur, u, v)
        assert is_3_connected_brute(cur)
    assert cur.n_live_nodes == 4
    assert cur.n_live_edges == 6


@pytest.mark.parametrize("seed", range(25))
def test_to_contractions_random(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 13)
    g = gen_3_connected(n, seed * 53 + 29)
    cert = certify_cert(g)
    g_s, _ = simplify(g)
    er = path_to_edge(g_s, cert)
    seq = to_contractions(er)
    assert len(seq.pairs) == n - 4
    cur = g_s
    for u, v in seq.pairs:
        # Both endpoints keep at least three neighbors at contraction time.
        assert len(cur.neighbors(u)) >= 3
        assert len(cur.neighbors(v)) >= 3
        cur = contract(cur, u, v)
        assert is_3_connected_brute(cur)
    assert cur.n_live_nodes == 4
    assert cur.n_live_edges == 6
    simple_pairs = set()
    for e in cur.live_edges():
        a, b = cur.ends(e)
        assert a != b
        simple_pairs.add((min(a, b), max(a, b)))
    assert len(simple_pairs) == 6


@pytest.mark.parametrize("seed", range(10))
def test_to_contractions_through_basic_form(seed):
    # Certificates holding expand records lower them to an addition plus a
    # subdivision before contraction extraction.
    g = gen_3_connected(8 + seed % 4, seed * 7 + 5)
    cert = to_basic(g, certify_cert(g))
    g_s, _ = simplify(g)
    er = path_to_edge(g_s, cert)
    if not any(isinstance(op, OpD) for op in er.ops):
        return
    seq = to_contractions(er)
    assert len(seq.pairs) == g_s.n_live_nodes - 4
    cur = g_s
    for u, v in seq.pairs:
        cur = contract(cur, u, v)
    assert cur.n_live_nodes == 4
