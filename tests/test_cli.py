import subprocess
import sys

import pytest

import tricert.cli
import tricert.transforms
from tricert import serialize_graph, gen_3_connected
from tricert.cli import main

from helpers import counterexample_graph, cycle, k4


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


@pytest.mark.parametrize("to", ["path", "contractions", "basic"])
def test_edge_rep_transform_replays_once(to, tmp_path, capsys, monkeypatch):
    gp = tmp_path / "g.txt"
    gp.write_text(serialize_graph(gen_3_connected(40, 5)))
    er = tmp_path / "er.txt"
    assert run_cli(["certify", str(gp), "--edge-rep", "-o", str(er)], capsys)[0] == 0
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return replay(*args, **kwargs)

    replay = tricert.transforms.replay_edge_rep
    monkeypatch.setattr(tricert.transforms, "replay_edge_rep", counting)
    monkeypatch.setattr(tricert.cli, "replay_edge_rep", counting)
    assert run_cli(["transform", str(er), "--to", to], capsys)[0] == 0
    assert len(calls) == 1


def test_transform_needs_graph(tmp_path, capsys):
    g = gen_3_connected(8, 12)
    gp = tmp_path / "g.txt"
    gp.write_text(serialize_graph(g))
    cert = tmp_path / "cert.txt"
    assert run_cli(["certify", str(gp), "-o", str(cert)], capsys)[0] == 0
    code, _, err = run_cli(["transform", str(cert), "--to", "edge"], capsys)
    assert code == 2
    assert "graph" in err


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


def test_transform_to_edge_rejects_triangle_s0(tmp_path, capsys):
    gp = tmp_path / "g.txt"
    gp.write_text(K4_PLUS)
    cp = tmp_path / "cert.txt"
    cp.write_text(INVALID_CERTS["triangle_s0"])
    code, out, err = run_cli(["transform", str(cp), "--to", "edge", "--graph", str(gp)], capsys)
    assert code == 2 and out == "" and err.startswith("error:")
