"""Command-line interface.

Certificates and witnesses go to stdout (or -o); diagnostics go to stderr.
Exit codes: 0 success / accepted / 3-connected, 1 refuted / rejected,
2 usage, I/O or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import certformat
from .graph import (
    GraphUsageError,
    MultiGraph,
    ParseError,
    _pair_index,
    _parse,
    decode_text,
    parse_graph,
    serialize_graph,
    simplify,
)
from .oracle import gen_3_connected, is_3_connected_brute
from .sequencer import InputError, _certify
from .subdivision import (
    ExpandRejected,
    PathRejected,
    StructureError,
    apply_step_inplace,
    build_subdivision,
)
from .transforms import (
    TransformError,
    ReplayError,
    _edge_to_path_replayed,
    _invalid,
    _path_to_edge,
    _to_basic,
    from_basic,
    replay_edge_rep,
    to_contractions,
)
from .verifier import _reverse_pass
# Not called here, but perfbench's traced runs wrap them by name on this module.
from .sequencer import certify  # noqa: F401
from .transforms import edge_to_path, path_to_edge, to_basic  # noqa: F401
from .verifier import verify_certificate  # noqa: F401


def _load_graph(path: str) -> tuple[MultiGraph, dict[tuple[int, int], int]]:
    return _parse(decode_text(Path(path).read_bytes(), path))


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _read_in(path: str) -> str:
    if path == "-":
        return decode_text(sys.stdin.buffer.read(), "stdin")
    return decode_text(Path(path).read_bytes(), path)


def _cmd_check(args) -> int:
    worst = 0
    results = []
    if args.jobs > 1 and len(args.graphs) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(args.jobs, len(args.graphs))) as pool:
            results = pool.map(_check_one, args.graphs)
    else:
        results = [_check_one(p) for p in args.graphs]
    for path, code, message in results:
        prefix = f"{path}: " if len(args.graphs) > 1 else ""
        sys.stdout.write(prefix + message)
        worst = max(worst, code)
    return worst


def _check_one(path: str) -> tuple[str, int, str]:
    g, index = _load_graph(path)
    result = _certify(g, index)
    if result.certified:
        return path, 0, "3-connected\n"
    return path, 1, certformat.format_witness(g, result.witness)


def _cmd_certify(args) -> int:
    g_s, index = _load_graph(args.graph)
    prescribed = None
    if args.s0:
        s0_graph = parse_graph(_read_in(args.s0), "edge-list")
        ids = g_s.label_to_id()
        prescribed = []
        # Every line, the dead edge of a loop or repeated line included.
        for u, v in s0_graph._ends:
            lu, lv = s0_graph.labels[u], s0_graph.labels[v]
            iu, iv = ids.get(lu), ids.get(lv)
            eid = None if iu is None or iv is None else index.get((iu, iv) if iu < iv else (iv, iu))
            if eid is None:
                sys.stderr.write(f"prescribed edge {lu} {lv} not in graph\n")
                return 2
            prescribed.append(eid)
    result = _certify(g_s, index, prescribed)
    if not result.certified:
        _write_out(certformat.format_witness(g_s, result.witness), args.output)
        return 1
    cert = result.certificate
    if args.basic:
        cert = _to_basic(g_s, index, cert)
    if args.edge_rep:
        # Last: the reverse pass consumes g_s.
        er = _path_to_edge(g_s, index, cert)
        _write_out(certformat.format_edge_rep(er), args.output)
    else:
        _write_out(certformat.format_certificate(g_s, cert), args.output)
    return 0


def _cmd_verify(args) -> int:
    g_s, index = _load_graph(args.graph)
    text = _read_in(args.cert)
    try:
        cert = certformat.parse_certificate(g_s, text)
    except certformat.CertMismatchError as exc:
        sys.stdout.write(f"reject: {exc}\n")
        return 1
    result = _reverse_pass(g_s, index, cert, basic_mode=args.basic)
    if result.ok:
        sys.stdout.write("accept\n")
        return 0
    where = f" at step {result.step}" if result.step >= 0 else ""
    sys.stdout.write(f"reject: {result.reason}{where}\n")
    return 1


def _cmd_transform(args) -> int:
    text = _read_in(args.cert)
    is_edge = text.lstrip().startswith("triedges")
    g_s = index = None
    if args.graph:
        g_s, index = _load_graph(args.graph)

    def need_graph():
        if g_s is None:
            sys.stderr.write("this transform needs --graph\n")
            raise SystemExit(2)
        return g_s

    if is_edge:
        er = certformat.parse_edge_rep(text, g_s)
    else:
        cert = certformat.parse_certificate(need_graph(), text)

    to = args.to
    if not is_edge and to in ("path", "nonbasic"):
        # Neither target checks the certificate as it rewrites it, so the
        # reverse pass checks it once the output is formatted: the pass
        # consumes g_s.
        out = text if to == "path" else certformat.format_certificate(g_s, from_basic(cert))
        res = _reverse_pass(g_s, index, cert, basic_mode=to == "nonbasic")
        if not res:
            raise _invalid(res)
        _write_out(out, args.output)
        return 0
    if to == "edge":
        if is_edge:
            replay_edge_rep(er)  # echoed only if it replays
            _write_out(text, args.output)
            return 0
        er = _path_to_edge(g_s, index, cert)
        _write_out(certformat.format_edge_rep(er), args.output)
    elif to == "path":
        cert, g_z = _edge_to_path_replayed(er)
        _write_out(certformat.format_certificate(g_z, cert), args.output)
    elif to in ("basic", "nonbasic"):
        if is_edge:
            cert, ctx = _edge_to_path_replayed(er)
            if to == "basic":
                g_s, index = _simple_replay(ctx)
        else:
            ctx = g_s
        cert2 = _to_basic(g_s, index, cert) if to == "basic" else from_basic(cert)
        _write_out(certformat.format_certificate(ctx, cert2), args.output)
    else:  # contractions
        if not is_edge:
            er = _path_to_edge(g_s, index, cert)
        seq = to_contractions(er)
        # g0 holds every node id with its label, and a replay never relabels.
        _write_out(certformat.format_contractions(er.g0, seq), args.output)
    return 0


def _simple_replay(g: MultiGraph):
    """`simplify(g)` for an edge rep's replay `g`; `TransformError` naming
    the first doubled pair when `g` is not simple, since a basic sequence
    is defined for simple graphs only.  `simplify` drops an edge exactly
    when `g` doubles a pair, and only then does `_pair_index` read `g`
    again, to name the pair."""
    w, index = simplify(g)
    if w.n_live_edges != g.n_live_edges:
        try:
            _pair_index(g)
        except GraphUsageError as exc:
            raise TransformError(f"the edge rep replays to a multigraph: {exc}") from None
    return w, index


def _cmd_gen(args) -> int:
    try:
        mix = tuple(float(x) for x in args.mix.split(":"))
        if len(mix) != 3:
            raise ValueError("--mix wants a:b:c")
        g = gen_3_connected(args.n, args.seed, mix)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _write_out(serialize_graph(g), args.output)
    return 0


def _cmd_oracle(args) -> int:
    g, _ = _load_graph(args.graph)
    verdict = is_3_connected_brute(g)
    sys.stdout.write("3-connected\n" if verdict else "not-3-connected\n")
    return 0 if verdict else 1


def _cmd_dot(args) -> int:
    g_s, index = _load_graph(args.graph)
    cert = certformat.parse_certificate(g_s, _read_in(args.cert))
    stage = len(cert.steps) if args.stage is None else args.stage
    if stage < 0 or stage > len(cert.steps):
        sys.stderr.write(f"stage must be in 0..{len(cert.steps)}\n")
        return 2
    try:
        sub = build_subdivision(g_s, cert.s0_edges, index)
        for step in cert.steps[:stage]:
            apply_step_inplace(sub, step)
    except (StructureError, PathRejected, ExpandRejected, GraphUsageError) as exc:
        sys.stderr.write(f"error: certificate is invalid: {exc}\n")
        return 2
    lab = g_s.labels
    lines = [f"graph stage{stage} {{", "  node [shape=circle];"]
    for v in sorted(g_s.live_nodes()):
        attrs = ' [style=filled, fillcolor=black, fontcolor=white]' if sub.real[v] else ""
        lines.append(f'  "{lab[v]}"{attrs};')
    for e in sorted(g_s.live_edges()):
        u, v = g_s.ends(e)
        lu, lv = sorted((lab[u], lab[v]))
        dashed = "" if sub.in_edges[e] else " [style=dashed]"
        lines.append(f'  "{lu}" -- "{lv}"{dashed};')
    lines.append("}")
    _write_out("\n".join(lines) + "\n", args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `tricert` argument parser, built on the first call and shared by
    every later call in the process.  Sharing is safe: `parse_args` makes
    a fresh namespace each time and no option has a mutable default.  A
    caller must not edit the parser; ``build_parser.__wrapped__()`` builds
    a private one."""
    ap = argparse.ArgumentParser(prog="tricert", description="Certifying 3-connectivity toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test 3-connectedness; witness on stdout when refuted")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("certify", help="emit a construction-sequence certificate")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--basic", action="store_true")
    p.add_argument("--edge-rep", action="store_true")
    p.add_argument("--s0", default=None, help="edge-list file with a prescribed starting subdivision")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("cert")
    p.add_argument("--basic", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="convert certificate representations")
    p.add_argument("cert")
    p.add_argument("--to", required=True, choices=["basic", "nonbasic", "edge", "path", "contractions"])
    p.add_argument("--graph", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("gen", help="generate a random 3-connected graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mix", default="1:1:1")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="brute-force 3-connectedness verdict")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("dot", help="emit a DOT drawing of a certificate stage")
    p.add_argument("graph")
    p.add_argument("cert")
    p.add_argument("--stage", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_dot)
    return ap


def main(argv=None) -> int:
    """Run one command and return its exit code.  The argument parser is
    built once per process, on the first call (see `build_parser`), so
    importing this module builds none and later calls reuse it."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (InputError, TransformError, ReplayError, certformat.CertMismatchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    raise SystemExit(main())
