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
    gen_3_connected,
    path_to_edge,
    replay_edge_rep,
    simplify,
    to_basic,
    to_contractions,
)
from tricert.certformat import (
    format_certificate,
    format_contractions,
    format_edge_rep,
    format_witness,
)

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
        "cert": "9134dd50618574249e4ada7cd3b6dcd8d096e8795a39b6e9ed0ef8fa0d234380",
        "basic": "9134dd50618574249e4ada7cd3b6dcd8d096e8795a39b6e9ed0ef8fa0d234380",
        "edge_rep": "e33938ea45fca2cfb868983effbe1f2427feb4d4907953648ff987fc9856cdbd",
        "contractions": "1dc481b55194e672ccca355d3df1a7d940bd1918aabc8e2f6f8209c72395dd50",
    },
    "w80": {
        "cert": "c2ac6b25bdac8869c4a58307d0be314564bce99deb8c4c0ee5fb9544a161edfb",
        "basic": "c2ac6b25bdac8869c4a58307d0be314564bce99deb8c4c0ee5fb9544a161edfb",
        "edge_rep": "2193f922b42fb8fceb725a777393216e489b67cf6d2bee8a971406ab647f9cab",
        "contractions": "79089ee269a976f18adde61866baefb8bb7d5dbe4076b00716f7aa1583365039",
    },
    "ladder40": {
        "cert": "af73d1677da45ecfbf058ce6970cb137069d72f6e972b955e3642d0ef767992b",
        "basic": "af73d1677da45ecfbf058ce6970cb137069d72f6e972b955e3642d0ef767992b",
        "edge_rep": "c3f593bff4b8c6d1297c70035b26f57a0a39ad15788907394e170aee6d9f2b5b",
        "contractions": "701cf2c5ae17fa322539712f557fe16c9c20d2dfc9e8708f13e3188bcdea9571",
    },
    "gen300": {
        "cert": "b3e5a5d953f011a3dd42701c3140418e4533604eebc78d07cfa81f9c6cc45a37",
        "basic": "b3e5a5d953f011a3dd42701c3140418e4533604eebc78d07cfa81f9c6cc45a37",
        "edge_rep": "7f1b6dd9cf3adef91ee0986497b8ff8ba31dc06d490639ca3200da102653720f",
        "contractions": "09389529b5f92279e1f188cb9aae3bdb96686af3793d699877b599ffb726f111",
    },
}
PLANTED_WITNESS = "9b167e5aa495af4018c94db9ff8e36f78a1d3a3d95b1c68bfc81ceb008adbccc"
# The inputs above are already basic.  This one is rewritten for real: six
# parallel-making paths become expands and five parallel-making single
# edges are postponed.
REWRITE = {
    "cert": "2efc780c9d60fc44adb916b065b6221e92e89363bd5d08589289d3d25cca03a0",
    "basic": "3de79cd242a83db2dc5bf8268aef9531e978f73675f54c03b3c76a3c61813e31",
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


def test_planted_witness_is_byte_identical():
    g = glued_on_pair(gen_3_connected(60, 7), gen_3_connected(50, 8))
    result = certify(g)
    assert not result.certified
    assert _sha(format_witness(g, result.witness)) == PLANTED_WITNESS


def rewrite_input():
    g, _ = simplify(dense_3_connected(40, 80, 2))
    return g, hoist_single_edges(g, certify(g).certificate)


def test_basic_rewrite_is_byte_identical():
    g, cert = rewrite_input()
    basic = to_basic(g, cert)
    assert sum(isinstance(s, ExpandStep) for s in basic.steps) == 6
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
