"""Text formats for certificates, witnesses, edge operations, contractions.

All node references use the graph's original labels; edge ids are the
parse-order indices of the graph file, which are reproducible from the
same input bytes.  Certificate:

    tricert v1
    n <n> m <m>
    S0 <k>
    <u> <v>            (k lines, initial edges)
    STEPS <z>
    P <l> v0 ... vl    (path of l edges)
    X w <l1> w .. a1 <l2> w .. a2 <l3> w .. a3

Witnesses are single lines such as ``WITNESS SEPPAIR u v``.  Edge
operations use a ``triedges v1`` header, a ``G0`` section of ``eid u v``
rows and one op row each: ``A u v e+``, ``B e- x e+ w y e+`` and
``C e- x e+ w e- y e+ w e+`` (w names the far endpoint of the part that
receives the new index e+), ``D w a1 a2 a3 e+ e+ e+``.  Contractions are
``c u v`` lines.
"""

from __future__ import annotations

from .graph import MAX_ID, GraphUsageError, MultiGraph, ParseError
from .k4finder import Witness
from .sequencer import PathCertificate
from .subdivision import ExpandStep, PathStep
from .transforms import EdgeRep, OpA, OpB, OpC, OpD


class CertSyntaxError(ParseError):
    """Certificate file is not well-formed."""


class CertMismatchError(ValueError):
    """Certificate is well-formed but inconsistent with the graph."""


# ---------------------------------------------------------------------------
# certificates


def format_certificate(g: MultiGraph, cert) -> str:
    lab = g.labels
    out = ["tricert v1", f"n {g.n_live_nodes} m {g.n_live_edges}", f"S0 {len(cert.s0_edges)}"]
    rows = []
    for e in cert.s0_edges:
        u, v = g.ends(e)
        lu, lv = lab[u], lab[v]
        rows.append((min(lu, lv), max(lu, lv)))
    out.extend(f"{u} {v}" for u, v in sorted(rows))
    out.append(f"STEPS {len(cert.steps)}")
    for step in cert.steps:
        if isinstance(step, PathStep):
            nodes = step.nodes
            if len(nodes) == 2:
                a, b = nodes
                out.append(f"P 1 {lab[a]} {lab[b]}")
            else:
                out.append(f"P {len(nodes) - 1} " + " ".join(map(str, map(lab.__getitem__, nodes))))
        else:
            parts = [f"X {lab[step.center]}"]
            for arm in step.arms:
                parts.append(str(len(arm) - 1))
                parts.extend(map(str, map(lab.__getitem__, arm)))
            out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def _read_counted(text: str, header: str, head: str, tail: str, noun: str, read_rows, preamble=None):
    """Read the layout both text formats share: a `header` line, a line
    for `preamble` when one is given, a ``<head> k`` line, k rows, a
    ``<tail> z`` line and z lines.

    Lines are stripped and blank ones dropped.  The k rows go to
    `read_rows` before the tail line is read, so every fault is found in
    the order its line comes.  Returns what `read_rows` returned and the
    z last lines."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines or lines[0] != header:
        raise CertSyntaxError(f"missing {header!r} header")
    at = 1
    if preamble is not None:
        preamble(lines[1] if len(lines) > 1 else "")
        at = 2
    try:
        tag, k_str = lines[at].split()
        k = int(k_str)
        if tag != head or k < 0:
            raise ValueError
    except (ValueError, IndexError):
        raise CertSyntaxError(f"bad {head} line") from None
    rows = read_rows(lines[at + 1 : at + 1 + k])
    idx = at + 1 + k
    if idx >= len(lines) or lines[idx].split()[0] != tail:
        raise CertSyntaxError(f"missing {tail} line")
    try:
        _, z_str = lines[idx].split()
        z = int(z_str)
    except ValueError:
        raise CertSyntaxError(f"bad {tail} line") from None
    if len(lines) != idx + 1 + z:
        raise CertSyntaxError(f"{noun} count does not match {tail} line")
    return rows, lines[idx + 1 :]


def parse_certificate(g: MultiGraph, text: str):
    """Read a certificate against `g`, whose labels its lines name.

    Raises `CertSyntaxError` for text that is not a certificate and
    `CertMismatchError` for one that names what `g` does not have.  A
    ``P 1 u v`` line, one per leftover edge of a dense graph, is read by a
    fast path of one split and two label lookups; a line it cannot read
    goes the general way, so every error stays as that gives it."""
    ids = g.label_to_id()

    def node(tok: str) -> int:
        try:
            label = int(tok)
        except ValueError:
            raise CertSyntaxError(f"bad node label {tok!r}") from None
        if label not in ids:
            raise CertMismatchError(f"label {label} is not in the graph")
        return ids[label]

    def size(ln: str) -> None:
        try:
            n_tag, n_str, m_tag, m_str = ln.split()
            n_decl, m_decl = int(n_str), int(m_str)
            if (n_tag, m_tag) != ("n", "m"):
                raise ValueError
        except ValueError:
            raise CertSyntaxError("bad size line") from None
        if n_decl != g.n_live_nodes or m_decl != g.n_live_edges:
            raise CertMismatchError("size line does not match the graph")

    def s0_edges(rows: list[str]) -> list[int]:
        s0 = []
        for ln in rows:
            parts = ln.split()
            if len(parts) != 2:
                raise CertSyntaxError(f"bad S0 edge line {ln!r}")
            u, v = node(parts[0]), node(parts[1])
            e = g.edge_between(u, v)
            if e is None:
                raise CertMismatchError(f"S0 edge {ln!r} is not in the graph")
            s0.append(e)
        return s0

    s0, step_lines = _read_counted(text, "tricert v1", "S0", "STEPS", "step", s0_edges, size)
    steps = []
    for ln in step_lines:
        toks = ln.split()
        # The fast path for one-edge steps (docstring).
        if len(toks) == 4 and toks[0] == "P" and toks[1] == "1":
            try:
                steps.append(PathStep((ids[int(toks[2])], ids[int(toks[3])])))
                continue
            except (ValueError, KeyError):
                pass
        if toks[0] == "P":
            try:
                length = int(toks[1])
                seq = tuple(node(t) for t in toks[2:])
            except CertMismatchError:
                raise
            except (ValueError, IndexError):
                raise CertSyntaxError(f"bad step line {ln!r}") from None
            if len(seq) != length + 1 or length < 1:
                raise CertSyntaxError(f"bad step length in {ln!r}")
            steps.append(PathStep(seq))
        elif toks[0] == "X":
            try:
                center = node(toks[1])
                arms = []
                pos = 2
                for _ in range(3):
                    length = int(toks[pos])
                    arm = tuple(node(t) for t in toks[pos + 1 : pos + 2 + length])
                    pos += 1 + length + 1
                    arms.append(arm)
                if pos != len(toks):
                    raise ValueError
                arms.sort(key=lambda a: a[-1])
                step = ExpandStep(center, tuple(arms))
            except CertMismatchError:
                raise
            except (ValueError, IndexError):
                raise CertSyntaxError(f"bad expand line {ln!r}") from None
            steps.append(step)
        else:
            raise CertSyntaxError(f"unknown step record {toks[0]!r}")
    return PathCertificate(tuple(s0), tuple(steps))


# ---------------------------------------------------------------------------
# witnesses

_WITNESS_TAGS = {
    "cut_vertex": "CUTVERTEX",
    "separation_pair": "SEPPAIR",
    "low_degree": "LOWDEGREE",
    "disconnected": "DISCONNECTED",
    "too_few_nodes": "TOOSMALL",
}
_WITNESS_KINDS = {v: k for k, v in _WITNESS_TAGS.items()}


def format_witness(g: MultiGraph, w: Witness) -> str:
    names = " ".join(str(g.labels[v]) for v in w.nodes)
    tag = _WITNESS_TAGS[w.kind]
    return f"WITNESS {tag} {names}".strip() + "\n"


def parse_witness(g: MultiGraph, text: str) -> Witness:
    toks = text.split()
    if len(toks) < 2 or toks[0] != "WITNESS" or toks[1] not in _WITNESS_KINDS:
        raise CertSyntaxError("bad witness line")
    ids = g.label_to_id()
    try:
        nodes = tuple(ids[int(t)] for t in toks[2:])
    except (ValueError, KeyError):
        raise CertMismatchError("witness names an unknown node") from None
    return Witness(_WITNESS_KINDS[toks[1]], nodes)


# ---------------------------------------------------------------------------
# edge representations


def format_edge_rep(er: EdgeRep) -> str:
    g0 = er.g0
    lab = g0.labels
    live = g0.live_edges()
    out = ["triedges v1", f"G0 {len(live)}"]
    for e in live:
        u, v = g0.ends(e)
        out.append(f"{e} {lab[u]} {lab[v]}")
    out.append(f"OPS {len(er.ops)}")
    for op in er.ops:
        if isinstance(op, OpA):
            out.append(f"A {lab[op.u]} {lab[op.v]} {op.new_edge}")
        elif isinstance(op, OpB):
            out.append(
                f"B {op.split_edge} {lab[op.new_node]} {op.part_edge} {lab[op.part_far]} "
                f"{lab[op.other_end]} {op.new_edge}"
            )
        elif isinstance(op, OpC):
            out.append(
                f"C {op.split_edge1} {lab[op.new_node1]} {op.part_edge1} {lab[op.part_far1]} "
                f"{op.split_edge2} {lab[op.new_node2]} {op.part_edge2} {lab[op.part_far2]} "
                f"{op.new_edge}"
            )
        else:
            a = " ".join(str(lab[x]) for x in op.anchors)
            e = " ".join(str(x) for x in op.new_edges)
            out.append(f"D {lab[op.new_node]} {a} {e}")
    return "\n".join(out) + "\n"


# Per op record: positions of its node labels and of its edge ids among the
# fields after the tag, and how to build the op once labels map to ids.
_OP_RECORDS = {
    "A": ((0, 1), (2,), lambda v, ids: OpA(ids[v[0]], ids[v[1]], v[2])),
    "B": ((1, 3, 4), (0, 2, 5), lambda v, ids: OpB(v[0], ids[v[1]], v[2], ids[v[3]], ids[v[4]], v[5])),
    "C": (
        (1, 3, 5, 7),
        (0, 2, 4, 6, 8),
        lambda v, ids: OpC(v[0], ids[v[1]], v[2], ids[v[3]], v[4], ids[v[5]], v[6], ids[v[7]], v[8]),
    ),
    "D": (
        (0, 1, 2, 3),
        (4, 5, 6),
        lambda v, ids: OpD(ids[v[0]], (ids[v[1]], ids[v[2]], ids[v[3]]), (v[4], v[5], v[6])),
    ),
}


def parse_edge_rep(text: str, g: MultiGraph | None = None) -> EdgeRep:
    """Rebuild an edge representation.  With `g` given, node labels resolve
    against it; otherwise a fresh dense id space is created."""

    def g0_rows(lines: list[str]) -> list[tuple[int, int, int]]:
        rows = []
        for ln in lines:
            try:
                eid, u, v = map(int, ln.split())
            except ValueError:
                raise CertSyntaxError(f"bad G0 row {ln!r}") from None
            if not 0 <= eid <= MAX_ID:
                raise CertSyntaxError(f"edge id {eid} out of sane range")
            if u == v:
                raise CertSyntaxError(f"G0 edge {eid} is a self-loop")
            rows.append((eid, u, v))
        return rows

    rows, op_lines = _read_counted(text, "triedges v1", "G0", "OPS", "op", g0_rows)

    # Each op as (build, values); node fields still hold labels.
    raw_ops = []
    labels_seen: set[int] = set()
    for _, u, v in rows:
        labels_seen.update((u, v))
    for ln in op_lines:
        toks = ln.split()
        record = _OP_RECORDS.get(toks[0])
        if record is None:
            raise CertSyntaxError(f"unknown op record {toks[0]!r}")
        node_pos, edge_pos, build = record
        if len(toks) != 1 + len(node_pos) + len(edge_pos):
            raise CertSyntaxError(f"bad op line {ln!r}")
        try:
            vals = [int(t) for t in toks[1:]]
        except ValueError:
            raise CertSyntaxError(f"bad op line {ln!r}") from None
        for i in node_pos:
            labels_seen.add(vals[i])
        for i in edge_pos:
            if not 0 <= vals[i] <= MAX_ID:
                raise CertSyntaxError(f"edge id {vals[i]} out of sane range")
        raw_ops.append((build, vals))

    if g is not None:
        ids = g.label_to_id()
        missing = [x for x in labels_seen if x not in ids]
        if missing:
            raise CertMismatchError(f"label {missing[0]} is not in the graph")
        node_labels = g.labels
    else:
        node_labels = sorted(labels_seen)
        ids = {lab: i for i, lab in enumerate(node_labels)}

    # Only nodes on G0 rows start alive; the ops create the rest.
    g0 = MultiGraph()
    for lab in node_labels:
        g0.add_node(lab)
    g0_nodes = {ids[x] for _, u, v in rows for x in (u, v)}
    for v in range(len(node_labels)):
        if v not in g0_nodes:
            g0.kill_node(v)
    for eid, u, v in rows:
        try:
            g0.add_edge(ids[u], ids[v], eid=eid)
        except GraphUsageError:
            raise CertSyntaxError(f"G0 edge id {eid} listed twice") from None

    ops = [build(vals, ids) for build, vals in raw_ops]
    return EdgeRep(g0=g0, ops=ops)


# ---------------------------------------------------------------------------
# contractions


def format_contractions(g_final: MultiGraph, seq) -> str:
    lab = g_final.labels
    return "".join(f"c {lab[u]} {lab[v]}\n" for u, v in seq.pairs)
