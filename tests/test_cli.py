import argparse
import ast
import hashlib
import io
import multiprocessing
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricert.cli
import tricert.graph
import tricert.sparsify
import tricert.subdivision
import tricert.transforms
import tricert.verifier
from tricert import (
    MultiGraph,
    ParseError,
    PathStep,
    certify,
    gen_3_connected,
    parse_graph,
    path_to_edge,
    serialize_graph,
    simplify,
    to_basic,
)
from tricert.certformat import format_certificate, format_edge_rep, parse_certificate
from tricert.cli import main
from tricert.subdivision import apply_step_inplace, build_subdivision

from helpers import counterexample_graph, cycle, dense_3_connected, k4, trailing_run


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text(serialize_graph(k4()))
    return str(p)


def test_check_k4(k4_file, capsys):
    code, out, _ = run_cli(["check", k4_file], capsys)
    assert code == 0
    assert out == "3-connected\n"


def test_check_witness(tmp_path, capsys):
    p = tmp_path / "c6.txt"
    p.write_text(serialize_graph(cycle(6)))
    code, out, _ = run_cli(["check", str(p)], capsys)
    assert code == 1
    assert out.startswith("WITNESS LOWDEGREE")


def test_certify_then_verify(tmp_path, capsys):
    g = gen_3_connected(9, 3)
    gp = tmp_path / "g.txt"
    gp.write_text(serialize_graph(g))
    cp = tmp_path / "cert.txt"
    code, _, _ = run_cli(["certify", str(gp), "-o", str(cp)], capsys)
    assert code == 0
    assert cp.read_text().startswith("tricert v1")
    code, out, _ = run_cli(["verify", str(gp), str(cp)], capsys)
    assert code == 0
    assert out == "accept\n"
    # Tamper: drop the final line.
    lines = cp.read_text().splitlines()
    broken = lines[:]
    broken[-1] = broken[-1] + " 0"
    cp.write_text("\n".join(broken) + "\n")
    code, out, _ = run_cli(["verify", str(gp), str(cp)], capsys)
    assert code in (1, 2)


@pytest.mark.parametrize("record", ["S0", "P", "X"])
def test_unknown_label_is_a_mismatch_in_every_record(tmp_path, capsys, record):
    # A well-formed line naming a node the graph lacks is a reject (exit 1),
    # whether it is an S0 row or a step line, never a syntax error.
    gp = tmp_path / "g.txt"
    gp.write_text(serialize_graph(gen_3_connected(8, 1)))
    cp = tmp_path / "cert.txt"
    assert run_cli(["certify", str(gp), "-o", str(cp)], capsys)[0] == 0
    lines = cp.read_text().splitlines()
    s0_row, p_row = 3, lines.index(next(ln for ln in lines if ln.startswith("P ")))
    if record == "S0":
        lines[s0_row] = lines[s0_row].split()[0] + " 99"
    elif record == "P":
        lines[p_row] = " ".join(lines[p_row].split()[:-1] + ["99"])
    else:
        lines[p_row] = "X 6 1 6 4 1 6 0 1 6 99"
    cp.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["verify", str(gp), str(cp)], capsys)
    assert (code, out, err) == (1, "reject: label 99 is not in the graph\n", "")


# One-edge step lines the parser's fast path turns down: each must fail as
# the general parse fails, with the same exception, message and exit code.
_HOSTILE_STEP_LINES = {
    "P 1 x 5": ("CertSyntaxError", "bad step line 'P 1 x 5'", 2, "", "error: bad step line 'P 1 x 5'\n"),
    "P 1 99 5": ("CertMismatchError", "label 99 is not in the graph", 1,
                 "reject: label 99 is not in the graph\n", ""),
    "P 1 5 5": (None, None, 1, "reject: bad_step at step 3\n", ""),
    "P 1 5": ("CertSyntaxError", "bad step length in 'P 1 5'", 2, "", "error: bad step length in 'P 1 5'\n"),
    "P 1 5 6 7": ("CertSyntaxError", "bad step length in 'P 1 5 6 7'", 2, "",
                  "error: bad step length in 'P 1 5 6 7'\n"),
    "P 2 5 6": ("CertSyntaxError", "bad step length in 'P 2 5 6'", 2, "", "error: bad step length in 'P 2 5 6'\n"),
}


@pytest.mark.parametrize("line", sorted(_HOSTILE_STEP_LINES))
def test_hostile_one_edge_step_lines(line, tmp_path, capsys):
    error, message, code, out, err = _HOSTILE_STEP_LINES[line]
    g = gen_3_connected(8, 1)
    g_s, _ = simplify(g)
    lines = format_certificate(g_s, certify(g).certificate).splitlines()
    assert lines[-1] == "P 1 1 4"
    text = "\n".join(lines[:-1] + [line]) + "\n"
    if error is None:
        assert parse_certificate(g_s, text).steps[-1] == PathStep((5, 5))
    else:
        with pytest.raises(ParseError if error == "CertSyntaxError" else ValueError) as info:
            parse_certificate(g_s, text)
        assert (type(info.value).__name__, str(info.value)) == (error, message)
    gp, cp = tmp_path / "g.txt", tmp_path / "cert.txt"
    gp.write_text(serialize_graph(g))
    cp.write_text(text)
    assert run_cli(["verify", str(gp), str(cp)], capsys) == (code, out, err)


@pytest.mark.parametrize("first", ["c", "c\tK4"])
def test_dimacs_is_told_by_its_first_token(tmp_path, capsys, first):
    # A bare comment line, or one whose first token ends at a tab, starts a
    # DIMACS file as surely as "c " does.
    gp = tmp_path / "k4.dimacs"
    rows = [f"e {u} {v}" for u in range(1, 5) for v in range(u + 1, 5)]
    gp.write_text("\n".join([first, "p edge 4 6", *rows]) + "\n")
    assert run_cli(["check", str(gp)], capsys) == (0, "3-connected\n", "")


def test_certify_refuted_exit(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n")
    code, out, _ = run_cli(["certify", str(p)], capsys)
    assert code == 1
    assert out.startswith("WITNESS ")


def test_check_separation_pair(tmp_path, capsys):
    # Two K4s glued along two nodes: every degree is 3 or more, so the
    # refutation really is a separation pair.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    from tricert import MultiGraph

    p = tmp_path / "glued.txt"
    p.write_text(serialize_graph(MultiGraph.from_edges(6, edges)))
    code, out, _ = run_cli(["check", str(p)], capsys)
    assert code == 1
    assert out == "WITNESS SEPPAIR 0 1\n"


def test_certify_basic_and_prescribed(tmp_path, capsys):
    g = counterexample_graph()
    gp = tmp_path / "apex.txt"
    gp.write_text(serialize_graph(g))
    s0 = tmp_path / "s0.txt"
    s0.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    code, out, _ = run_cli(["certify", str(gp), "--s0", str(s0)], capsys)
    assert code == 0
    assert "P 2 1 5 2" in out
    assert "P 1 5 3" in out
    code, out, _ = run_cli(["certify", str(gp), "--s0", str(s0), "--basic"], capsys)
    assert code == 0
    assert "X 5" in out


# Graphs with a doubled edge and a self-loop, each with the S0 to
# prescribe (None: let certify choose).  Both rewrites add expand steps.
_APEX_TEXT = "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n1 5\n2 5\n3 5\n"
_MULTIGRAPHS = {
    "apex": (_APEX_TEXT + "1 2\n3 3\n", "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"),
    "random": ("2 4\n" + serialize_graph(gen_3_connected(10, 32)) + "0 0\n", None),
}


@pytest.mark.parametrize("name", sorted(_MULTIGRAPHS))
def test_basic_rewrite_of_a_multigraph_matches_the_library(tmp_path, capsys, name):
    text, s0_text = _MULTIGRAPHS[name]
    gp = tmp_path / "g.txt"
    gp.write_text(text)
    g = parse_graph(text)
    s0_args, prescribed = [], None
    if s0_text is not None:
        (tmp_path / "s0.txt").write_text(s0_text)
        s0_args, prescribed = ["--s0", str(tmp_path / "s0.txt")], range(6)
    want = format_certificate(simplify(g)[0], to_basic(g, certify(g, prescribed).certificate))
    assert "\nX " in want
    code, out, _ = run_cli(["certify", str(gp), *s0_args, "--basic"], capsys)
    assert (code, out) == (0, want)
    cp = tmp_path / "cert.txt"
    assert run_cli(["certify", str(gp), *s0_args, "-o", str(cp)], capsys)[0] == 0
    code, out, _ = run_cli(["transform", str(cp), "--to", "basic", "--graph", str(gp)], capsys)
    assert (code, out) == (0, want)


def test_transform_to_basic_refuses_an_edge_rep_that_replays_to_a_multigraph(tmp_path, capsys):
    # G0 is K4 and the one op adds a second 0-1 edge or a loop at 0; the
    # replay itself refuses the loop.
    er = tmp_path / "er.txt"
    for op, message in (
        ("A 0 1 6", "the edge rep replays to a multigraph: edges 0 and 6 both join 0 1"),
        ("A 0 0 6", "op 0: edge 6 would be a self-loop"),
    ):
        er.write_text(f"triedges v1\nG0 6\n0 0 1\n1 0 2\n2 0 3\n3 1 2\n4 1 3\n5 2 3\nOPS 1\n{op}\n")
        code, out, err = run_cli(["transform", str(er), "--to", "basic"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


_K4_G0 = "triedges v1\nG0 6\n0 0 1\n1 0 2\n2 0 3\n3 1 2\n4 1 3\n5 2 3\n"
# Edge reps that would build a self-loop, each with its error.
_LOOPED_EDGE_REPS = {
    "A": (_K4_G0 + "OPS 1\nA 0 0 6\n", "op 0: edge 6 would be a self-loop"),
    "B": (_K4_G0 + "OPS 1\nB 0 4 6 1 4 7\n", "op 0: edge 7 would be a self-loop"),
    "D": (_K4_G0 + "OPS 1\nD 4 0 1 4 6 7 8\n", "op 0: edge 8 would be a self-loop"),
    "G0": (_K4_G0.replace("5 2 3", "5 2 2") + "OPS 0\n", "G0 edge 5 is a self-loop"),
}


@pytest.mark.parametrize("to", ["edge", "path", "basic", "nonbasic", "contractions"])
@pytest.mark.parametrize("name", sorted(_LOOPED_EDGE_REPS))
def test_transform_refuses_an_edge_rep_with_a_self_loop(tmp_path, capsys, name, to):
    # An op whose new edge would join a node to itself (an added edge, an
    # attachment to the new node, an expand anchored at its own center) or
    # a G0 row that is a loop: every target refuses it with nothing printed.
    text, message = _LOOPED_EDGE_REPS[name]
    er = tmp_path / "er.txt"
    er.write_text(text)
    code, out, err = run_cli(["transform", str(er), "--to", to], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_transform_to_contractions_needs_g0_to_be_k4(tmp_path, capsys):
    # G0 is the 4-cycle 0-1-2-3 with the chord 0-2: four nodes, but K4 - e.
    er = tmp_path / "er.txt"
    er.write_text("triedges v1\nG0 5\n0 0 1\n1 1 2\n2 2 3\n3 3 0\n4 0 2\nOPS 1\nB 4 4 6 2 1 7\n")
    code, out, err = run_cli(["transform", str(er), "--to", "contractions"], capsys)
    assert (code, out, err) == (2, "", "error: operation sequence must start at K4\n")


def test_verify_basic_mode_rejects(tmp_path, capsys):
    g = counterexample_graph()
    gp = tmp_path / "apex.txt"
    gp.write_text(serialize_graph(g))
    s0 = tmp_path / "s0.txt"
    s0.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    cp = tmp_path / "cert.txt"
    assert run_cli(["certify", str(gp), "--s0", str(s0), "-o", str(cp)], capsys)[0] == 0
    code, out, _ = run_cli(["verify", str(gp), str(cp), "--basic"], capsys)
    assert code == 1
    assert "nonbasic_step" in out


def test_transform_pipeline(tmp_path, capsys):
    g = gen_3_connected(8, 12)
    gp = tmp_path / "g.txt"
    gp.write_text(serialize_graph(g))
    cert = tmp_path / "cert.txt"
    assert run_cli(["certify", str(gp), "-o", str(cert)], capsys)[0] == 0
    edge = tmp_path / "er.txt"
    assert run_cli(["transform", str(cert), "--to", "edge", "--graph", str(gp), "-o", str(edge)], capsys)[0] == 0
    assert edge.read_text().startswith("triedges v1")
    back = tmp_path / "back.txt"
    assert run_cli(["transform", str(edge), "--to", "path", "-o", str(back)], capsys)[0] == 0
    assert back.read_text() == cert.read_text()
    contr = tmp_path / "c.txt"
    assert run_cli(["transform", str(edge), "--to", "contractions", "-o", str(contr)], capsys)[0] == 0
    body = contr.read_text().splitlines()
    assert len(body) == 8 - 4
    assert all(line.startswith("c ") for line in body)
    basic = tmp_path / "basic.txt"
    assert run_cli(["transform", str(cert), "--to", "basic", "--graph", str(gp), "-o", str(basic)], capsys)[0] == 0
    assert run_cli(["verify", str(gp), str(basic), "--basic"], capsys)[0] == 0


@pytest.mark.parametrize("to", ["edge", "path", "contractions", "basic"])
def test_edge_rep_transform_replays_once(to, tmp_path, capsys, monkeypatch):
    gp = tmp_path / "g.txt"
    gp.write_text(serialize_graph(gen_3_connected(40, 5)))
    er = tmp_path / "er.txt"
    assert run_cli(["certify", str(gp), "--edge-rep", "-o", str(er)], capsys)[0] == 0
    calls = []

    def counting(*args):
        calls.append(args)
        return replay(*args)

    replay = tricert.transforms._replay
    monkeypatch.setattr(tricert.transforms, "_replay", counting)
    assert run_cli(["transform", str(er), "--to", to], capsys)[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{g}", "{cert}"],
        ["verify", "{g}", "{basic}", "--basic"],
        ["transform", "{cert}", "--to", "edge", "--graph", "{g}"],
        ["transform", "{cert}", "--to", "path", "--graph", "{g}"],
        ["transform", "{cert}", "--to", "basic", "--graph", "{g}"],
        ["transform", "{basic}", "--to", "nonbasic", "--graph", "{g}"],
        ["transform", "{cert}", "--to", "contractions", "--graph", "{g}"],
        ["check", "{g}"],
        ["certify", "{g}"],
        ["certify", "{g}", "--basic"],
        ["certify", "{g}", "--edge-rep"],
        ["certify", "{g}", "--basic", "--edge-rep"],
        ["certify", "{g}", "--s0", "{s0}"],
        ["certify", "{sparse}"],
    ],
    ids=["verify", "verify-basic", "to-edge", "to-path", "to-basic", "to-nonbasic", "to-contractions", "check",
         "certify", "certify-basic", "certify-edge-rep", "certify-basic-edge-rep", "certify-s0", "certify-sparse"],
)
def test_one_simplify_per_command(argv, tmp_path, capsys, monkeypatch):
    # Each of these commands builds the graph file once, in the parse that
    # also returns its pair index, and hands both on: a parsed graph is
    # simple, so none calls `simplify`.  `--s0` reads a second file.
    # Certifying a graph with more than 3(n - 1) edges then runs the
    # sparsifier's forests once and filters its sparsified graph and that
    # graph's index out of them, so it kills no edge and builds no other
    # pair index.  A graph within that bound is certified as it is.  Either
    # way the gates walk the growth host once for connectivity; the reverse
    # pass behind `--edge-rep` walks its 4-node residue once more.
    # Only an edge rep of a basic certificate kills edges: its reverse pass
    # undoes the expand steps with `kill_edge`, as `verify --basic` does.
    # The sparsifier drops most of this graph's edges, and the K4 found on
    # the whole graph, the --s0 row's S0, uses dropped ones.
    g = dense_3_connected(40, 200, 5)
    g_s, _ = simplify(g)
    s0 = [g_s.ends(e) for e in tricert.find_k4_subdivision(g_s).edge_ids()]
    assert not set(s0) <= {g_s.ends(e) for e in tricert.sparsify3(g_s)[1].kept}
    sparse = gen_3_connected(40, 5)
    assert sparse.n_live_edges <= 3 * (sparse.n_live_nodes - 1) < g_s.n_live_edges
    gp = tmp_path / "g.txt"
    gp.write_text(serialize_graph(g))
    sp = tmp_path / "sparse.txt"
    sp.write_text(serialize_graph(sparse))
    s0p = tmp_path / "s0.txt"
    s0p.write_text("".join(f"{g.labels[u]} {g.labels[v]}\n" for u, v in s0))
    files = {"g": str(gp), "cert": str(tmp_path / "cert.txt"), "basic": str(tmp_path / "basic.txt"),
             "s0": str(s0p), "sparse": str(sp)}
    assert run_cli(["certify", files["g"], "-o", files["cert"]], capsys)[0] == 0
    assert run_cli(["certify", files["g"], "--basic", "-o", files["basic"]], capsys)[0] == 0
    calls = []
    walked = []

    def counting(name, real):
        def call(*args):
            calls.append(name)
            if name == "_disconnects":
                walked.append((args[0].n_live_nodes, args[0].n_live_edges))
            return real(*args)

        return call

    for name in ("_build", "simplify", "_pair_index", "_disconnects", "_forests", "_keep_only"):
        real = next(getattr(m, name) for m in (tricert.graph, tricert.sparsify) if hasattr(m, name))
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "tricert" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    monkeypatch.setattr(MultiGraph, "kill_edge", counting("kill_edge", MultiGraph.kill_edge))
    assert run_cli([arg.format(**files) for arg in argv], capsys)[0] == 0
    builds = ["_build"] * (2 if "--s0" in argv else 1)
    assert calls.count("simplify") == 0
    assert calls.count("_build") == len(builds)
    if argv[0] in ("check", "certify"):
        killed = "--basic" in argv and "--edge-rep" in argv
        rest = sorted(name for name in calls if name != "kill_edge" or not killed)
        walks = ["_disconnects"] * (2 if "--edge-rep" in argv else 1)
        if argv[1] == "{sparse}":
            assert rest == [*builds, *walks]
        else:
            assert rest == [*builds, *walks, "_forests", "_keep_only"]
            n = g_s.n_live_nodes
            assert walked[0][0] == n and walked[0][1] <= 3 * (n - 1) < g_s.n_live_edges
        assert [size[0] for size in walked[1:]] == [4] * (len(walks) - 1)


# sha256 of what `certify`, `certify --basic` (which `transform --to basic`
# prints too) and `transform --to edge` print for dense_3_connected(40, 200,
# 5), as the general per-step code printed them.
DENSE_PINS = {
    "cert": "27154564de3e9aec927aec2cb23c7725634d0acb855d24d81a27daf2c69f96bd",
    "basic": "132896b9d4fdbc430bd1552c82aa2835ec46f1273d5a0e12bff72aca43765243",
    "edge": "3d198e2cb19d33b19cbc9307e58ad46d15c7bea39a3a1dd9ec81c3926e639db4",
}


def _dense_files(tmp_path, capsys):
    """The pinned dense graph, its certificate and its basic certificate
    as files, and the simplified graph."""
    g = dense_3_connected(40, 200, 5)
    files = {name: tmp_path / f"{name}.txt" for name in ("g", "cert", "basic")}
    files["g"].write_text(serialize_graph(g))
    for name, extra in (("cert", []), ("basic", ["--basic"])):
        code, out, _ = run_cli(["certify", str(files["g"]), *extra], capsys)
        assert code == 0 and _sha(out) == DENSE_PINS[name]
        files[name].write_text(out)
    return {k: str(v) for k, v in files.items()}, simplify(g)[0]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, cert, pin",
    [
        (["verify", "{g}", "{cert}"], "cert", None),
        (["verify", "{g}", "{basic}", "--basic"], "basic", None),
        (["transform", "{cert}", "--to", "edge", "--graph", "{g}"], "cert", "edge"),
    ],
    ids=["verify", "verify-basic", "to-edge"],
)
def test_trailing_run_is_removed_outside_the_general_step(argv, cert, pin, tmp_path, capsys, monkeypatch):
    # The reverse pass removes the trailing run of one-edge steps from its
    # end, while both ends of a step keep degree >= 3, without calling
    # `_remove_path`; every other path step goes through it.
    files, g_s = _dense_files(tmp_path, capsys)
    steps = parse_certificate(g_s, Path(files[cert]).read_text()).steps
    t = trailing_run(steps)
    deg = {v: g_s.degree(v) for v in g_s.live_nodes()}
    rest = len(steps)
    for step in reversed(steps[t:]):
        u, v = step.nodes
        if min(deg[u], deg[v]) <= 3:
            break
        deg[u] -= 1
        deg[v] -= 1
        rest -= 1
    assert len(steps) - rest > 0.9 * (len(steps) - t) > 100
    removed = []
    real = tricert.verifier._remove_path

    def counting(w, step, edges, k, *rest_args):
        removed.append(k)
        return real(w, step, edges, k, *rest_args)

    monkeypatch.setattr(tricert.verifier, "_remove_path", counting)
    code, out, _ = run_cli([arg.format(**files) for arg in argv], capsys)
    assert code == 0
    assert (out == "accept\n") if pin is None else (_sha(out) == DENSE_PINS[pin])
    assert removed == [k for k in range(rest - 1, -1, -1) if isinstance(steps[k], PathStep)]


def test_to_basic_applies_no_trailing_step_once_every_node_is_real(tmp_path, capsys, monkeypatch):
    files, g_s = _dense_files(tmp_path, capsys)
    cert = parse_certificate(g_s, Path(files["cert"]).read_text())
    steps = cert.steps
    # The steps after the one that makes the last node real.  `to_basic`
    # merges some earlier steps into expands, but none of these.
    sub = build_subdivision(g_s, cert.s0_edges)
    live = g_s.live_nodes()
    r = 0
    while sub.real_nodes() != live:
        apply_step_inplace(sub, steps[r])
        r += 1
    assert r >= trailing_run(steps) and len(steps) - r > 100
    applied = []
    real = tricert.transforms.apply_path_inplace

    def counting(sub, step):
        applied.append(step)
        return real(sub, step)

    monkeypatch.setattr(tricert.transforms, "apply_path_inplace", counting)
    code, out, _ = run_cli(["transform", files["cert"], "--to", "basic", "--graph", files["g"]], capsys)
    assert code == 0 and _sha(out) == DENSE_PINS["basic"]
    assert applied and not set(applied) & set(steps[r:])


def test_transform_needs_graph(tmp_path, capsys):
    g = gen_3_connected(8, 12)
    gp = tmp_path / "g.txt"
    gp.write_text(serialize_graph(g))
    cert = tmp_path / "cert.txt"
    assert run_cli(["certify", str(gp), "-o", str(cert)], capsys)[0] == 0
    code, _, err = run_cli(["transform", str(cert), "--to", "edge"], capsys)
    assert code == 2
    assert "graph" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "3"],
        ["--n", "6", "--mix", "1:0:0"],
        ["--n", "6", "--mix", "a:b:c"],
        ["--n", "6", "--mix", "1:1"],
        ["--n", "7", "--mix", "0:0:1"],
        ["--n", "7", "--mix", "nan:1:1"],
        ["--n", "7", "--mix=-1:1:1"],
        ["--n", "7", "--mix", "inf:1:1"],
    ],
)
def test_gen_rejects_bad_arguments(argv, capsys):
    code, out, err = run_cli(["gen", "--seed", "1", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_gen_oracle_roundtrip(tmp_path, capsys):
    gp = tmp_path / "g.txt"
    code, _, _ = run_cli(["gen", "--n", "12", "--seed", "5", "-o", str(gp)], capsys)
    assert code == 0
    code, out, _ = run_cli(["oracle", str(gp)], capsys)
    assert code == 0
    assert out == "3-connected\n"
    code, out2, _ = run_cli(["gen", "--n", "12", "--seed", "5"], capsys)
    assert out2 == gp.read_text()


def test_dot_output(tmp_path, capsys):
    g = counterexample_graph()
    gp = tmp_path / "apex.txt"
    gp.write_text(serialize_graph(g))
    s0 = tmp_path / "s0.txt"
    s0.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    cert = tmp_path / "cert.txt"
    assert run_cli(["certify", str(gp), "--s0", str(s0), "-o", str(cert)], capsys)[0] == 0
    code, out, _ = run_cli(["dot", str(gp), str(cert), "--stage", "1"], capsys)
    assert code == 0
    assert out.startswith("graph stage1 {")
    assert '""' not in out
    assert "style=dashed" in out      # not yet attached edges
    assert "fillcolor=black" in out   # branch nodes highlighted
    code, full, _ = run_cli(["dot", str(gp), str(cert)], capsys)
    assert code == 0
    assert "style=dashed" not in full


def test_check_multiple_files_with_jobs(tmp_path, capsys):
    files = []
    for i, n in enumerate((8, 9)):
        p = tmp_path / f"g{i}.txt"
        p.write_text(serialize_graph(gen_3_connected(n, i + 1)))
        files.append(str(p))
    code, out, _ = run_cli(["check", *files, "--jobs", "2"], capsys)
    assert code == 0
    assert out.count("3-connected") == 2


@pytest.mark.parametrize("jobs, n_files, size", [(100_000, 2, 2), (2, 3, 2), (1, 3, None)])
def test_check_pool_is_no_larger_than_the_file_list(jobs, n_files, size, tmp_path, capsys, monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    p = tmp_path / "k4.txt"
    p.write_text(serialize_graph(k4()))
    code, out, _ = run_cli(["check", *[str(p)] * n_files, "--jobs", str(jobs)], capsys)
    assert code == 0
    assert out.count("3-connected") == n_files
    assert sizes == ([] if size is None else [size])


def test_the_shared_parser_carries_nothing_from_one_call_to_the_next(tmp_path, capsys):
    # `main` builds its parser on the first call and reuses it.  Every call
    # below runs on that shared parser right after another call, and must
    # give what the same call gives on a parser of its own.
    gp, hp, cp = tmp_path / "g.txt", tmp_path / "h.txt", tmp_path / "cert.txt"
    graph = gen_3_connected(9, 4)  # --basic changes its certificate
    gp.write_text(serialize_graph(graph))
    hp.write_text(serialize_graph(k4()))
    cp.write_text(format_certificate(graph, certify(graph).certificate))
    g, h, c = str(gp), str(hp), str(cp)
    calls = [
        ["certify", g, "--basic"], ["certify", g],
        ["certify", g, "--edge-rep"], ["certify", g],
        ["check", "--jobs", "2", g, h], ["check", g],
        ["verify", g], ["verify", g, c],
        ["-h"], ["-h"],
    ]
    shared = [run_cli(argv, capsys) for argv in calls]
    with mock.patch.object(tricert.cli, "build_parser", tricert.cli.build_parser.__wrapped__):
        fresh = [run_cli(argv, capsys) for argv in calls]
    assert shared == fresh
    assert tricert.cli.build_parser() is tricert.cli.build_parser()
    # The calls differ where a leaked option would show.
    assert shared[0][1] != shared[1][1] == shared[3][1]
    assert shared[2][1].startswith("triedges") and shared[3][1].startswith("tricert v1")
    assert shared[4][1] == f"{g}: 3-connected\n{h}: 3-connected\n" and shared[5][1] == "3-connected\n"
    code, out, err = shared[6]
    assert code == 2 and out == "" and err.startswith("usage: tricert verify") and "error:" in err
    assert shared[7] == (0, "accept\n", "")
    code, out, err = shared[8]
    assert code == 0 and out.startswith("usage: tricert") and err == "" and shared[9] == shared[8]
    # A later call builds no parser.
    with mock.patch.object(argparse.ArgumentParser, "__init__", side_effect=AssertionError("built a parser")):
        assert run_cli(["check", h], capsys) == (0, "3-connected\n", "")


def test_importing_the_cli_builds_no_parser():
    # Import time is part of every one-shot command's cost; the parser is
    # built on the first `main` call instead.
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import tricert.cli\n"
        "at_import = len(built)\n"
        "tricert.cli.build_parser()\n"
        "print(at_import, len(built) > 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True\n"


def test_cli_keeps_the_names_perfbench_wraps():
    # perfbench's traced runs replace these attributes of tricert.cli by
    # name; read its list without importing it.
    source = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    (names,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CLI_LIBRARY_CALLS" for t in node.targets)
    ]
    assert names
    for name in (*names, "certformat"):
        assert hasattr(tricert.cli, name), name


def test_library_keeps_what_perfbench_traces():
    # perfbench's traced pass (`layer_pass` and `_count_replay` in
    # perfbench/run.py) makes these library calls itself, with these
    # arguments; each must keep working for `run.py --trace 1`.
    from tricert.subdivision import apply_step_inplace, build_subdivision

    g = gen_3_connected(40, 1)
    g_s, _ = tricert.simplify(g)
    g_w, _ = tricert.sparsify3(g_s)
    found = tricert.find_k4_subdivision(g_w)
    assert not isinstance(found, tricert.Witness) and found.edge_ids()
    res = tricert.certify(g)
    cert = res.certificate
    assert res.leftover_edges == tuple(e for e in g_s.live_edges() if not g_w.edge_alive(e))
    sub = build_subdivision(g_s, cert.s0_edges)
    splits = 0
    for step in cert.steps:
        x, y = step.endpoints
        assert sub.parallel_count((min(x, y), max(x, y))) >= 0
        for v in (x, y):
            if not sub.real[v]:
                splits += 1
                assert len(sub.links[sub.node_link[v]].nodes) >= 3
        apply_step_inplace(sub, step)
    assert splits
    er = tricert.transforms.path_to_edge(g_s, cert)
    assert serialize_graph(tricert.transforms.replay_edge_rep(er)) == serialize_graph(g_s)


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tricert.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode in (0, 2)
    assert "tricert" in proc.stdout + proc.stderr


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pipe_composability(tmp_path, seed):
    # certify g | verify g -  accepts for every certified graph.
    gp = tmp_path / "g.txt"
    gp.write_text(serialize_graph(gen_3_connected(7 + seed, seed)))
    pipeline = (
        f"{sys.executable} -m tricert.cli certify {gp} | "
        f"{sys.executable} -m tricert.cli verify {gp} -"
    )
    proc = subprocess.run(["sh", "-c", pipeline], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "accept\n"


def test_certify_deterministic_bytes(tmp_path, capsys):
    gp = tmp_path / "g.txt"
    gp.write_text(serialize_graph(gen_3_connected(15, 77)))
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(["certify", str(gp), "--basic"], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_unknown_input_is_error(tmp_path, capsys):
    code, _, err = run_cli(["check", str(tmp_path / "missing.txt")], capsys)
    assert code == 2


K4_G0 = "triedges v1\nG0 6\n0 0 1\n1 0 2\n2 0 3\n3 1 2\n4 1 3\n5 2 3\n"


@pytest.mark.parametrize(
    "ops",
    ["OPS x\n", "OPS 1\nA 1\n", "OPS 1\nA 1 2 x\n", "OPS 1\nQ 1 2 3\n", "OPS 1\nA 1 2 -1\n", "OPS\n"],
)
def test_transform_malformed_edge_rep_is_syntax_error(tmp_path, capsys, ops):
    bad = tmp_path / "bad.txt"
    bad.write_text(K4_G0 + ops)
    code, _, err = run_cli(["transform", str(bad), "--to", "path"], capsys)
    assert code == 2
    assert "Traceback" not in err and err.startswith("error:")


K4_CERT = "tricert v1\nn 4 m 6\nS0 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\nSTEPS 0\n"
# Negative section counts and lines past the last declared step or op,
# each with the section the error names.
BAD_COUNTS = {
    "negative_g0": ("transform", "triedges v1\nG0 -3\nOPS 0\n", "G0"),
    "negative_ops": ("transform", K4_G0 + "OPS -1\n", "OPS"),
    "op_past_ops": ("transform", K4_G0 + "OPS 0\nA 0 1 6\n", "OPS"),
    "negative_s0": ("verify", "tricert v1\nn 4 m 6\nS0 -4\nSTEPS 0\n", "S0"),
    "negative_steps": ("verify", K4_CERT.replace("STEPS 0", "STEPS -1"), "STEPS"),
    "garbage_past_steps": ("verify", K4_CERT + "garbage here\n", "STEPS"),
}


@pytest.mark.parametrize("name", sorted(BAD_COUNTS))
def test_bad_section_count_is_syntax_error(tmp_path, capsys, k4_file, name):
    command, text, section = BAD_COUNTS[name]
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    if command == "transform":
        args = ["transform", str(bad), "--to", "path"]
    else:
        args = ["verify", k4_file, str(bad)]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "") and err.startswith("error:") and section in err


def test_transform_duplicate_g0_edge_id_is_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("triedges v1\nG0 2\n0 0 1\n0 1 2\nOPS 0\n")
    code, _, err = run_cli(["transform", str(bad), "--to", "path"], capsys)
    assert code == 2 and err.startswith("error:")


def test_transform_label_outside_graph_is_error(tmp_path, capsys):
    gp = tmp_path / "k4.txt"
    gp.write_text(serialize_graph(k4()))
    bad = tmp_path / "bad.txt"
    bad.write_text(K4_G0 + "OPS 1\nA 0 9 6\n")
    code, _, err = run_cli(["transform", str(bad), "--to", "path", "--graph", str(gp)], capsys)
    assert code == 2 and err.startswith("error:")


# K4 plus a node 4 joined to 0, 1 and 2, and certificates for it that
# parse but are invalid: an S0 triangle with no branch node, a first step
# that leaves node 4 hanging from node 0, and a step through node 0 twice.
K4_PLUS = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n0 4\n4 1\n4 2\n"
K4_S0 = "S0 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
INVALID_CERTS = {
    "triangle_s0": "tricert v1\nn 5 m 9\nS0 3\n0 1\n0 2\n1 2\nSTEPS 0\n",
    "dangling_step": "tricert v1\nn 5 m 9\n" + K4_S0 + "STEPS 3\nP 1 0 4\nP 1 4 1\nP 1 4 2\n",
    "repeated_node": "tricert v1\nn 5 m 9\n" + K4_S0 + "STEPS 1\nP 2 0 4 0\n",
}


@pytest.mark.parametrize("name", sorted(INVALID_CERTS))
@pytest.mark.parametrize("command", ["transform", "dot"])
def test_invalid_certificate_is_error(tmp_path, capsys, command, name):
    gp = tmp_path / "g.txt"
    gp.write_text(K4_PLUS)
    cp = tmp_path / "cert.txt"
    cp.write_text(INVALID_CERTS[name])
    if command == "transform":
        args = ["transform", str(cp), "--to", "basic", "--graph", str(gp)]
    else:
        args = ["dot", str(gp), str(cp)]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == "" and err.startswith("error:")


# Two K4s on node 0; joined by 1-4, 2-5 and 3-6 they make a 3-connected
# graph.  And K4 with its edge 1-2 subdivided by node 4.
TWO_K4S = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n0 4\n0 5\n0 6\n4 5\n4 6\n5 6\n"
K4_SUBDIVIDED = "0 1\n0 2\n0 3\n1 4\n4 2\n1 3\n2 3\n"


def test_certify_refuses_a_prescribed_s0_that_is_not_k4(tmp_path, capsys):
    gp = tmp_path / "h.txt"
    gp.write_text(TWO_K4S + "1 4\n2 5\n3 6\n")
    s0 = tmp_path / "s0.txt"
    s0.write_text(TWO_K4S)
    code, out, err = run_cli(["certify", str(gp), "--s0", str(s0)], capsys)
    assert (code, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize(
    "command, graph",
    [("transform", TWO_K4S), ("dot", TWO_K4S), ("transform", K4_SUBDIVIDED)],
    ids=["transform-two-k4s", "dot-two-k4s", "transform-degree-two"],
)
def test_an_s0_of_the_whole_graph_that_verify_rejects_is_an_error(tmp_path, capsys, command, graph):
    # S0 is every edge and there are no steps: two K4s do not smooth to
    # K4, and the subdivided K4 keeps a node of degree 2.
    gp = tmp_path / "g.txt"
    gp.write_text(graph)
    edges = graph.splitlines()
    n = 1 + max(int(x) for line in edges for x in line.split())
    cp = tmp_path / "cert.txt"
    cp.write_text(f"tricert v1\nn {n} m {len(edges)}\nS0 {len(edges)}\n{graph}STEPS 0\n")
    assert run_cli(["verify", str(gp), str(cp)], capsys)[0] == 1
    if command == "transform":
        args = ["transform", str(cp), "--to", "basic", "--graph", str(gp)]
    else:
        args = ["dot", str(gp), str(cp)]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "") and err.startswith("error:")


def test_transform_to_edge_rejects_triangle_s0(tmp_path, capsys):
    gp = tmp_path / "g.txt"
    gp.write_text(K4_PLUS)
    cp = tmp_path / "cert.txt"
    cp.write_text(INVALID_CERTS["triangle_s0"])
    code, out, err = run_cli(["transform", str(cp), "--to", "edge", "--graph", str(gp)], capsys)
    assert code == 2 and out == "" and err.startswith("error:")


# K4_PLUS with S0 running 0-4-1 in place of the edge 0-1, which the first
# step adds; the second step is 4-2.  Each broken twin misses one piece.
# Edge 1-4 has the higher id of the two edges that smoothing node 4
# merges, so without it the residue is still made of S0 edges.
LINK_S0 = ["0 2", "0 3", "0 4", "1 2", "1 3", "1 4", "2 3"]
LINK_STEPS = ["P 1 0 1", "P 1 4 2"]


def _link_cert(s0, steps):
    lines = ["tricert v1", "n 5 m 9", f"S0 {len(s0)}", *s0, f"STEPS {len(steps)}", *steps]
    return "\n".join(lines) + "\n"


BROKEN_CERTS = {
    "dropped_s0_edge": _link_cert([e for e in LINK_S0 if e != "1 4"], LINK_STEPS),
    "dropped_step": _link_cert(LINK_S0, LINK_STEPS[1:]),
}


@pytest.mark.parametrize("name", sorted(BROKEN_CERTS))
def test_transforms_reject_what_verify_rejects(tmp_path, capsys, name):
    gp = tmp_path / "g.txt"
    gp.write_text(K4_PLUS)
    cp = tmp_path / "cert.txt"
    cp.write_text(_link_cert(LINK_S0, LINK_STEPS))
    assert run_cli(["verify", str(gp), str(cp)], capsys)[0] == 0
    code, out, _ = run_cli(["transform", str(cp), "--to", "path", "--graph", str(gp)], capsys)
    assert code == 0 and out == cp.read_text()
    # The first step parallels the link 0-4-1, so only the rewrite is basic.
    assert run_cli(["verify", str(gp), str(cp), "--basic"], capsys)[0] == 1
    assert run_cli(["transform", str(cp), "--to", "nonbasic", "--graph", str(gp)], capsys)[0] == 2
    bp = tmp_path / "basic.txt"
    assert run_cli(["transform", str(cp), "--to", "basic", "--graph", str(gp), "-o", str(bp)], capsys)[0] == 0
    assert run_cli(["transform", str(bp), "--to", "nonbasic", "--graph", str(gp)], capsys)[0] == 0
    cp.write_text(BROKEN_CERTS[name])
    assert run_cli(["verify", str(gp), str(cp)], capsys)[0] == 1
    for to in ("edge", "path", "basic", "nonbasic", "contractions"):
        code, out, err = run_cli(["transform", str(cp), "--to", to, "--graph", str(gp)], capsys)
        assert code == 2 and out == "" and err.startswith("error:"), to


# One op on G0 = K4 that does not replay, and the replay's error.
BROKEN_EDGE_REPS = {
    "dead_split_edge": ("B 99 4 6 1 2 7", "op 0: edge 99 is not alive"),
    "reused_edge_id": ("A 0 1 3", "op 0: edge id 3 already in use"),
}


@pytest.mark.parametrize("name", sorted(BROKEN_EDGE_REPS))
def test_transforms_reject_an_edge_rep_that_does_not_replay(tmp_path, capsys, name):
    op, message = BROKEN_EDGE_REPS[name]
    er = tmp_path / "er.txt"
    er.write_text(f"triedges v1\nG0 6\n0 0 1\n1 0 2\n2 0 3\n3 1 2\n4 1 3\n5 2 3\nOPS 1\n{op}\n")
    for to in ("edge", "path", "basic", "nonbasic", "contractions"):
        code, out, err = run_cli(["transform", str(er), "--to", to], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), to


HOSTILE_GRAPHS = {"non_utf8": b"\xff 1 2\n", "huge_dimacs": b"p edge 3000000000 0\n"}


@pytest.mark.parametrize("name", sorted(HOSTILE_GRAPHS))
@pytest.mark.parametrize("command", ["check", "certify", "oracle", "verify", "dot"])
def test_hostile_graph_file_is_error(tmp_path, capsys, command, name):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(HOSTILE_GRAPHS[name])
    args = [command, str(bad)] + ([str(bad)] if command in ("verify", "dot") else [])
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("line", ["4 5", "1 1", "1 9"])
def test_prescribed_edge_not_in_graph_is_error(tmp_path, capsys, line):
    # Labels 4 and 5 are not adjacent, 1-1 is a self-loop, and 9 is no label.
    gp = tmp_path / "g.txt"
    gp.write_text(serialize_graph(counterexample_graph()))
    s0 = tmp_path / "s0.txt"
    s0.write_text(f"1 2\n{line}\n")
    code, out, err = run_cli(["certify", str(gp), "--s0", str(s0)], capsys)
    assert (code, out, err) == (2, "", f"prescribed edge {line} not in graph\n")


def test_non_utf8_certificate_s0_and_stdin_are_errors(tmp_path, capsys, k4_file):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"tricert v1\n\xff\n")
    for args in (
        ["verify", k4_file, str(bad)],
        ["certify", k4_file, "--s0", str(bad)],
        ["transform", str(bad), "--to", "edge", "--graph", k4_file],
        ["dot", k4_file, str(bad)],
    ):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, "") and err.startswith("error:"), args
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xfe\xff"))):
        code, out, err = run_cli(["verify", k4_file, "-"], capsys)
    assert (code, out) == (2, "") and err.startswith("error: stdin:")


def test_unreadable_file_is_error(capsys, monkeypatch, k4_file):
    # Root reads a file whatever its mode, so the refusal is simulated.
    def denied(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(Path, "read_bytes", denied)
    code, out, err = run_cli(["check", k4_file], capsys)
    assert (code, out) == (2, "") and "Permission denied" in err


def _fuzz_bases() -> list[bytes]:
    """An edge list, the same graph in DIMACS, its certificate, the
    certificate's edge rep and its S0 as an edge list."""
    g = gen_3_connected(8, 3)
    g_s, _ = simplify(g)
    rows = [g.ends(e) for e in g.live_edges()]
    dimacs = [f"p edge {g.n_live_nodes} {len(rows)}"]
    dimacs += [f"e {g.labels[u] + 1} {g.labels[v] + 1}" for u, v in rows]
    cert = certify(g).certificate
    s0 = [" ".join(str(g_s.labels[v]) for v in g_s.ends(e)) for e in cert.s0_edges]
    texts = [serialize_graph(g), "\n".join(dimacs) + "\n", format_certificate(g_s, cert)]
    texts += [format_edge_rep(path_to_edge(g_s, cert)), "\n".join(s0) + "\n"]
    return [t.encode() for t in texts]


FUZZ_BASES = _fuzz_bases()


def _mutated(base: bytes, edits) -> bytes:
    out = bytearray(base)
    for kind, pos, byte in edits:
        i = pos % (len(out) + 1)
        if kind == "insert":
            out.insert(i, byte)
        elif i < len(out):
            if kind == "replace":
                out[i] = byte
            else:
                del out[i]
    return bytes(out)


_EDITS = st.lists(
    st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.integers(0, 10**4), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)
HOSTILE_BYTES = st.one_of(st.binary(max_size=200), st.builds(_mutated, st.sampled_from(FUZZ_BASES), _EDITS))


@settings(max_examples=60, deadline=None)
@given(HOSTILE_BYTES)
def test_any_bytes_get_an_exit_code_and_no_traceback(data):
    """Random bytes, and edge lists, DIMACS files, certificates, edge reps
    and S0 files with a few bytes changed, inserted or deleted, as each
    file (or stdin) that a command reads: the answer is exit 0, 1 or 2
    with no traceback, and the graph parser raises only ParseError."""
    for fmt in ("edge-list", "dimacs"):
        try:
            parse_graph(data, fmt)
        except ParseError:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        x, g, c = (str(Path(tmp, name)) for name in ("x", "g", "c"))
        Path(x).write_bytes(data)
        Path(g).write_bytes(FUZZ_BASES[0])
        Path(c).write_bytes(FUZZ_BASES[2])
        runs = [["check", x], ["certify", x], ["oracle", x], ["verify", x, c], ["verify", g, x]]
        runs += [["verify", g, "-"], ["certify", g, "--s0", x], ["dot", g, x]]
        runs += [["transform", x, "--to", "edge", "--graph", g], ["transform", x, "--to", "path"]]
        runs += [["transform", x, "--to", to, "--graph", g] for to in ("basic", "nonbasic", "contractions")]
        for args in runs:
            out, err = io.StringIO(), io.StringIO()
            stdin = io.TextIOWrapper(io.BytesIO(data))
            with redirect_stdout(out), redirect_stderr(err), mock.patch.object(sys, "stdin", stdin):
                code = main(args)
            assert code in (0, 1, 2), args
            assert "Traceback" not in err.getvalue(), args
