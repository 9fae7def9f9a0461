import random

import pytest

from tricert import (
    ContractionSequence,
    EdgeRep,
    ExpandStep,
    MultiGraph,
    OpA,
    OpB,
    OpD,
    PathCertificate,
    PathStep,
    ReplayError,
    TransformError,
    certify,
    contract_edge,
    edge_to_path,
    from_basic,
    gen_3_connected,
    is_3_connected_brute,
    path_to_edge,
    replay_edge_rep,
    serialize_graph,
    simplify,
    to_basic,
    to_contractions,
    verify_certificate,
)
from tricert.certformat import format_certificate, format_edge_rep

from helpers import counterexample_graph, k4


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
    assert basic.basic
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
    assert basic.basic


def test_to_basic_requires_paths_and_simple_graph():
    g = counterexample_graph()
    with pytest.raises(TransformError):
        to_basic(g, PathCertificate(tuple(range(6)), (ExpandStep(4, ((4, 0), (4, 1), (4, 2))),)))
    doubled = MultiGraph.from_edges(2, [(0, 1), (0, 1)])
    with pytest.raises(TransformError):
        to_basic(doubled, PathCertificate((), ()))


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
}


@pytest.mark.parametrize("name", sorted(_INVALID_FOR_BASIC))
def test_to_basic_rejects_invalid_certificate(name):
    edges, s0, steps = _INVALID_FOR_BASIC[name]
    g = MultiGraph.from_edges(1 + max(map(max, edges)), edges)
    with pytest.raises(TransformError):
        to_basic(g, PathCertificate(s0, steps))


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
    basic = PathCertificate(tuple(range(6)), (ExpandStep(4, ((4, 0), (4, 1), (4, 2))),), basic=True)
    plain = from_basic(basic)
    assert [s.nodes for s in plain.steps] == [(0, 4, 1), (4, 2)]
    assert verify_certificate(g, plain).ok
    assert from_basic(PathCertificate((), (), basic=True)).steps == ()


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


def test_to_contractions_counterexample():
    g = counterexample_graph()
    cert = certify_cert(g, prescribed_s0=range(6))
    er = path_to_edge(g, cert)
    seq = to_contractions(er)
    # One new node, one contraction, toward the larger far endpoint.
    assert seq.pairs == ((4, 1),)
    g_s, _ = simplify(g)
    e = g_s.edge_between(4, 1)
    g2 = contract_edge(g_s, e)
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
        e = cur.edge_between(u, v)
        assert e is not None
        cur = contract_edge(cur, e)
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
        e = cur.edge_between(u, v)
        assert e is not None
        cur = contract_edge(cur, e)
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
    cert = certify_cert(g, want_basic=True)
    g_s, _ = simplify(g)
    er = path_to_edge(g_s, cert)
    if not any(isinstance(op, OpD) for op in er.ops):
        return
    seq = to_contractions(er)
    assert len(seq.pairs) == g_s.n_live_nodes - 4
    cur = g_s
    for u, v in seq.pairs:
        e = cur.edge_between(u, v)
        assert e is not None
        cur = contract_edge(cur, e)
    assert cur.n_live_nodes == 4
