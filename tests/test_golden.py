"""Byte identity of every certificate representation on pinned inputs.

Identical input must give identical bytes, so a change to data structures
or search bookkeeping must not move any of these sha256 values.  A change
that alters the bytes on purpose updates them and says so.
"""

import hashlib

import pytest

import tricert.transforms
from tricert import (
    ExpandStep,
    certify,
    find_k4_subdivision,
    gen_3_connected,
    path_to_edge,
    replay_edge_rep,
    simplify,
    sparsify3,
    to_basic,
    to_contractions,
)
from tricert.certformat import (
    format_certificate,
    format_contractions,
    format_edge_rep,
    format_witness,
)
from tricert.cli import main

from helpers import (
    circular_ladder,
    dense_3_connected,
    glued_on_pair,
    hoist_single_edges,
    k3n,
    wheel,
)

GOLDEN = {
    "k3n60": {
        "cert": "d882ff7ac5d00cccfba6d519b8e1afcc02acae40ade2d63e01be8e9c3a5baad1",
        "basic": "d882ff7ac5d00cccfba6d519b8e1afcc02acae40ade2d63e01be8e9c3a5baad1",
        "edge_rep": "f7927bf9ee8cf4aaeb0554a512e8d587f5552bed76dd90b17fb20dc1b81f882c",
        "contractions": "c4b9061b503e0ed8866eed771fd872bec509c8cbed3cc8347cbfdb0a1bf124fc",
    },
    "w80": {
        "cert": "c2ac6b25bdac8869c4a58307d0be314564bce99deb8c4c0ee5fb9544a161edfb",
        "basic": "c2ac6b25bdac8869c4a58307d0be314564bce99deb8c4c0ee5fb9544a161edfb",
        "edge_rep": "2193f922b42fb8fceb725a777393216e489b67cf6d2bee8a971406ab647f9cab",
        "contractions": "79089ee269a976f18adde61866baefb8bb7d5dbe4076b00716f7aa1583365039",
    },
    "ladder40": {
        "cert": "7c7f569d68b9be0096b105003d9ce4827c3376bdaa7d81a97ed47c5e99ef5ea0",
        "basic": "7c7f569d68b9be0096b105003d9ce4827c3376bdaa7d81a97ed47c5e99ef5ea0",
        "edge_rep": "c6f42b5fc0dcb6176afe91d65227d810a85dc7ae87cfe326d98f61465f525cce",
        "contractions": "f6fe9f526925a79ad3d806cfbbb1129e0b196ef8874f2eeb7ec5ecdbeacf66ad",
    },
    "gen300": {
        "cert": "8379340aa36702b767a8ab845794cc32d66c8510fa565272a3aa0db9caf4f961",
        "basic": "8379340aa36702b767a8ab845794cc32d66c8510fa565272a3aa0db9caf4f961",
        "edge_rep": "81aa2f3c55d3fc054ee1a53b8e2602aed017d6f97fe88308231e0b28661a86fa",
        "contractions": "98c61d66c70a1e737f12fe8cdc5367b447ffc52641cba792bd865d79ee5e68ac",
    },
}
PLANTED_WITNESS = "9b167e5aa495af4018c94db9ff8e36f78a1d3a3d95b1c68bfc81ceb008adbccc"
# The inputs above are already basic.  This one is rewritten for real: seven
# parallel-making paths become expands and two parallel-making single
# edges are postponed.
REWRITE = {
    "cert": "ac5bde9116e71743fc6cc6910ac7d437ee657017441ec457d3e2dadb39ecd093",
    "basic": "e77f6cbaac60fd93451f489972600236bd545d40208aff3fcf5d0c1e9f020112",
}

# A prescribed start that the sparsifier cuts into: certify grows it over
# the sparsified graph with the dropped S0 edges put back.
PRESCRIBED = {
    "cert": "dc0382dec27ec0ee5b92a8fbf2977c57100ba464c2b46bc2dcd2e78ca1d41628",
    "basic": "d57bfb2357e5a3d28eab070086b001ad9aad4883f53a6c76a3c8fed21a2c1f3a",
}

INPUTS = {
    "k3n60": lambda: k3n(60),
    "w80": lambda: wheel(80),
    "ladder40": lambda: circular_ladder(40),
    "gen300": lambda: gen_3_connected(300, 4242),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_are_byte_identical(name):
    g = INPUTS[name]()
    result = certify(g)
    assert result.certified
    g_s, _ = simplify(g)
    cert = result.certificate
    er = path_to_edge(g_s, cert)
    outputs = {
        "cert": format_certificate(g_s, cert),
        "basic": format_certificate(g_s, to_basic(g_s, cert)),
        "edge_rep": format_edge_rep(er),
        "contractions": format_contractions(replay_edge_rep(er), to_contractions(er)),
    }
    assert {kind: _sha(text) for kind, text in outputs.items()} == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_outputs_are_byte_identical(name, tmp_path, capsys):
    g = INPUTS[name]()
    # Edges in id order, so the parsed graph keeps the library's id order.
    gp = tmp_path / "g.txt"
    gp.write_text("".join(f"{g.labels[u]} {g.labels[v]}\n" for u, v in map(g.ends, g.live_edges())))
    f = {k: tmp_path / k for k in ("cert", "certify_basic", "er", "back", "basic", "contractions")}
    runs = [
        (["certify", gp], "cert"),
        (["certify", gp, "--basic"], "certify_basic"),
        (["certify", gp, "--edge-rep"], "er"),
        (["transform", f["er"], "--to", "path"], "back"),
        (["transform", f["er"], "--to", "basic"], "basic"),
        (["transform", f["er"], "--to", "contractions"], "contractions"),
    ]
    for argv, out in runs:
        assert main([*map(str, argv), "-o", str(f[out])]) == 0
    assert f["back"].read_text() == f["cert"].read_text()
    assert f["certify_basic"].read_text() == f["basic"].read_text()
    sha = {kind: _sha(f[kind].read_text()) for kind in ("cert", "basic", "contractions")}
    assert sha == {kind: GOLDEN[name][kind] for kind in sha}


def test_planted_witness_is_byte_identical():
    g = glued_on_pair(gen_3_connected(60, 7), gen_3_connected(50, 8))
    result = certify(g)
    assert not result.certified
    assert _sha(format_witness(g, result.witness)) == PLANTED_WITNESS


def test_prescribed_start_is_byte_identical():
    g = dense_3_connected(40, 80, 2)
    g_s, _ = simplify(g)
    s0 = tuple(sorted(find_k4_subdivision(g_s).edge_ids()))
    _, forests = sparsify3(g_s)
    assert not forests.kept.issuperset(s0)
    result = certify(g, prescribed_s0=s0)
    assert result.certified and result.certificate.s0_edges == s0
    cert = result.certificate
    outputs = {
        "cert": format_certificate(g_s, cert),
        "basic": format_certificate(g_s, to_basic(g_s, cert)),
    }
    assert {kind: _sha(text) for kind, text in outputs.items()} == PRESCRIBED


def rewrite_input():
    g, _ = simplify(dense_3_connected(40, 80, 7))
    return g, hoist_single_edges(g, certify(g).certificate)


def _postponed_single_edges(cert, basic) -> int:
    """Single-edge steps that `basic` places after a step that followed
    them in `cert`: only a postponed single edge moves back."""
    index = {step: k for k, step in enumerate(cert.steps)}
    moved = 0
    latest = -1
    for step in basic.steps:
        k = index.get(step)
        if k is None:
            continue
        if len(step.nodes) == 2 and k < latest:
            moved += 1
        latest = max(latest, k)
    return moved


def test_basic_rewrite_is_byte_identical():
    g, cert = rewrite_input()
    basic = to_basic(g, cert)
    assert sum(isinstance(s, ExpandStep) for s in basic.steps) == 7
    assert _postponed_single_edges(cert, basic) == 2
    outputs = {"cert": format_certificate(g, cert), "basic": format_certificate(g, basic)}
    assert {kind: _sha(text) for kind, text in outputs.items()} == REWRITE


def test_basic_rewrite_builds_one_subdivision(monkeypatch):
    g, cert = rewrite_input()
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    build = tricert.transforms.build_subdivision
    monkeypatch.setattr(tricert.transforms, "build_subdivision", counting)
    to_basic(g, cert)
    assert len(calls) == 1
