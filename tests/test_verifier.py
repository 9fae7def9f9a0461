import ast
import random
from collections import Counter
from pathlib import Path

import pytest

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
from tricert.verifier import _check_residue

from helpers import (
    K4_EDGES,
    circular_ladder,
    complete,
    counterexample_graph,
    dense_3_connected,
    gnp,
    hoist_single_edges,
    k3n,
    k4,
    mutate_certificate,
    petersen,
    reference_basic_verdict,
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
        certs = [cert, certify(g, want_basic=True).certificate, hoist_single_edges(g, cert)]
        for plain in certs[0], certs[2]:
            basic = to_basic(g, plain)
            certs += [basic, from_basic(basic)]
        certs += [mutate_certificate(g, c, seed) for c in certs[:5] for seed in range(4)]
        yield g, certs


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
    assert _check_residue(subdivided, set(range(8))) is None
    res = _check_residue(k4(), set(range(5)))
    assert (res.ok, res.reason, res.step) == (False, "residue_extra_edges", -1)
    # a-x-y-a closes into a loop at a; b, c, d are joined by b-c, b-d,
    # c-d and c-z-d.
    a, b, c, d, x, y, z = range(7)
    loop = [(a, x), (x, y), (y, a), (a, b), (b, c), (b, d), (c, d), (c, z), (z, d)]
    res = _check_residue(MultiGraph.from_edges(7, loop), set(range(9)))
    assert (res.ok, res.reason, res.step) == (False, "residue_not_k4", -1)


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
    result = certify(g, want_basic=True)
    assert result.certified
    g_s, _ = simplify(g)
    mutated = mutate_certificate(g_s, result.certificate, seed)
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
