import pytest

import tricert.sequencer as sequencer_mod
from tricert import (
    MultiGraph,
    Witness,
    certify,
    gen_3_connected,
    is_3_connected_brute,
    parse_graph,
    simplify,
    verify_certificate,
    verify_witness,
)
from tricert.certformat import (
    CertMismatchError,
    CertSyntaxError,
    format_certificate,
    format_edge_rep,
    parse_certificate,
    parse_edge_rep,
    parse_witness,
    format_witness,
)
from tricert.transforms import path_to_edge, to_basic

from helpers import counterexample_graph, k4, min_degree


def test_certify_multigraph_input():
    # Parallel edges and self-loops never change the verdict; the
    # certificate covers the simplified graph, which keeps the lowest id of
    # the doubled pair 1-2.  The loop line (id 2) is dead from the parse.
    text = "1 2\n1 2\n1 1\n1 3\n1 4\n2 3\n2 4\n3 4\n"
    g = parse_graph(text)
    result = certify(g)
    assert result.certified
    g_s, index = simplify(g)
    assert g_s.live_edges() == [0, 3, 4, 5, 6, 7]
    assert index[(0, 1)] == 0 and sorted(index.values()) == g_s.live_edges()
    assert result.certificate.s0_edges == (0, 3, 4, 5, 6, 7)
    assert verify_certificate(g, result.certificate).ok
    assert is_3_connected_brute(g)


def test_sparse_labels_roundtrip():
    g = parse_graph("10 20\n10 30\n10 40\n20 30\n20 40\n30 40\n10 55\n20 55\n30 55\n")
    result = certify(g)
    assert result.certified
    g_s, _ = simplify(g)
    text = format_certificate(g_s, result.certificate)
    assert " 55" in text or "55 " in text
    cert2 = parse_certificate(g_s, text)
    assert verify_certificate(g, cert2).ok
    er = path_to_edge(g_s, result.certificate)
    er_text = format_edge_rep(er)
    er2 = parse_edge_rep(er_text, g_s)
    assert format_edge_rep(er2) == er_text
    er3 = parse_edge_rep(er_text)  # standalone id space
    assert len(er3.ops) == len(er.ops)


def test_certificate_text_roundtrip():
    g = counterexample_graph()
    cert = to_basic(g, certify(g, prescribed_s0=range(6)).certificate)
    g_s, _ = simplify(g)
    text = format_certificate(g_s, cert)
    cert2 = parse_certificate(g_s, text)
    assert format_certificate(g_s, cert2) == text
    assert verify_certificate(g, cert2, basic_mode=True).ok


def test_witness_text_roundtrip():
    g = k4()
    for w in (
        Witness("cut_vertex", (2,)),
        Witness("separation_pair", (0, 3)),
        Witness("low_degree", (1,)),
        Witness("disconnected"),
        Witness("too_few_nodes"),
    ):
        text = format_witness(g, w)
        assert parse_witness(g, text) == w


@pytest.mark.parametrize(
    "text",
    [
        "",
        "tricert v2\n",
        "tricert v1\nn 4 m 6\n",
        "tricert v1\nn 4 m 6\nS0 1\n0 1\nSTEPS x\n",
        "tricert v1\nn 4 m 6\nS0 0\nSTEPS 1\nP 2 0 1\n",
        "tricert v1\nn 4 m 6\nS0 0\nSTEPS 1\nQ 1 0 1\n",
        "tricert v1\nx 4 y 6\nS0 0\nSTEPS 0\n",
        "tricert v1\nn 4 m 6\nS0 0\nSTEPSfoo 0 junk\n",
        "tricert v1\nn 4 m 6\nS0 0\nSTEPS 0 junk\n",
    ],
)
def test_hostile_certificate_text(text):
    g = k4()
    with pytest.raises((CertSyntaxError, CertMismatchError)):
        parse_certificate(g, text)


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("cert", "tricert v2\n", "missing 'tricert v1' header"),
        ("cert", "tricert v1\nn 4 m 6\nS0 -1\n", "bad S0 line"),
        ("cert", "tricert v1\nn 4 m 6\nS0 0\nP 1 0 1\n", "missing STEPS line"),
        ("cert", "tricert v1\nn 4 m 6\nS0 0\nSTEPS x\n", "bad STEPS line"),
        ("cert", "tricert v1\nn 4 m 6\nS0 0\nSTEPS 2\nP 1 0 1\n", "step count does not match STEPS line"),
        ("edge", "triedges v2\n", "missing 'triedges v1' header"),
        ("edge", "triedges v1\nG0\n", "bad G0 line"),
        ("edge", "triedges v1\nG0 0\nA 0 1 6\n", "missing OPS line"),
        ("edge", "triedges v1\nG0 0\nOPS 1 2\n", "bad OPS line"),
        ("edge", "triedges v1\nG0 0\nOPS 0\nA 0 1 6\n", "op count does not match OPS line"),
    ],
    ids=[f"{kind}-{fault}" for kind in ("cert", "edge") for fault in ("header", "count", "missing", "bad", "mismatch")],
)
def test_text_format_layout_errors(kind, text, message):
    # Both formats share one reader for header, counted section and tail.
    with pytest.raises(CertSyntaxError) as info:
        parse_certificate(k4(), text) if kind == "cert" else parse_edge_rep(text)
    assert str(info.value) == message


def test_certificate_against_wrong_graph():
    g = counterexample_graph()
    result = certify(g, prescribed_s0=range(6))
    g_s, _ = simplify(g)
    text = format_certificate(g_s, result.certificate)
    with pytest.raises(CertMismatchError):
        parse_certificate(k4(), text)


def test_witness_that_fails_its_check_raises(monkeypatch):
    # Every witness found on the growth host is checked against the
    # simplified input with verify_witness; one that does not hold there is
    # a bug, not a verdict.
    checked = []

    def rejecting(g, w):
        checked.append(w)
        return False

    monkeypatch.setattr(sequencer_mod, "verify_witness", rejecting)
    g = MultiGraph.from_edges(
        6,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)],
    )
    with pytest.raises(AssertionError):
        certify(g)
    assert checked == [Witness("separation_pair", (0, 1))]


def test_prescribed_start_survives_sparsification():
    # A dense graph whose sparsified form need not contain the prescribed
    # edges: they are forced back in and the certificate still covers the
    # whole simplified edge set.
    from helpers import complete

    g = complete(9)
    s0 = [g.edge_between(u, v) for u, v in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
    result = certify(g, prescribed_s0=s0)
    assert result.certified
    assert result.certificate.s0_edges == tuple(sorted(s0))
    assert verify_certificate(g, result.certificate).ok
    assert result.leftover_edges  # K9 has far more than 3n-3 edges


def test_prescribed_start_on_refutable_graph():
    # A valid K4-subdivision start inside a graph that is not 3-connected
    # and passes every gate: the growth loop itself must stop with a
    # checkable witness.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    g = MultiGraph.from_edges(6, edges)
    assert min_degree(g) >= 3
    result = certify(g, prescribed_s0=range(6))
    assert not result.certified
    assert result.witness == Witness("separation_pair", (0, 1))
    assert verify_witness(g, result.witness)


def test_empty_and_tiny_inputs():
    empty = MultiGraph()
    result = certify(empty)
    assert result.witness == Witness("too_few_nodes")
    one = MultiGraph.from_edges(1, [])
    assert certify(one).witness == Witness("too_few_nodes")
    assert not is_3_connected_brute(one)


def test_gen_dense_mix_saturates():
    # Heavy edge-addition weight on a small target cannot overshoot and
    # stops adding once the graph is complete.
    g = gen_3_connected(5, 99, (50, 1, 1))
    assert g.n_live_nodes == 5
    assert is_3_connected_brute(g)
    assert g.n_live_edges <= 10


@pytest.mark.parametrize("seed", range(20))
def test_dimacs_pipeline(seed):
    g = gen_3_connected(4 + seed, seed)
    lines = [f"p edge {g.n_live_nodes} {g.n_live_edges}"]
    for e in g.live_edges():
        u, v = g.ends(e)
        lines.append(f"e {u + 1} {v + 1}")
    g2 = parse_graph("\n".join(lines) + "\n", "dimacs")
    result = certify(g2)
    assert result.certified
    assert verify_certificate(g2, result.certificate).ok
