"""Command-line interface.

Certificates and witnesses go to stdout (or -o); diagnostics go to stderr.
Exit codes: 0 success / accepted / 3-connected, 1 refuted / rejected,
2 usage, I/O or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import certformat
from .graph import GraphUsageError, MultiGraph, ParseError, parse_graph, serialize_graph, simplify
from .oracle import gen_3_connected, is_3_connected_brute
from .sequencer import InputError, certify
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
    from_basic,
    path_to_edge,
    to_basic,
    to_contractions,
)
# Not called here, but perfbench's traced runs wrap them by name on this module.
from .transforms import edge_to_path, replay_edge_rep  # noqa: F401
from .verifier import verify_certificate


def _load_graph(path: str) -> MultiGraph:
    text = Path(path).read_text()
    fmt = "edge-list"
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("p ") or stripped.startswith("c "):
            fmt = "dimacs"
        break
    return parse_graph(text, fmt)


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _read_in(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _cmd_check(args) -> int:
    worst = 0
    results = []
    if args.jobs > 1 and len(args.graphs) > 1:
        import multiprocessing

        with multiprocessing.Pool(args.jobs) as pool:
            results = pool.map(_check_one, args.graphs)
    else:
        results = [_check_one(p) for p in args.graphs]
    for path, code, message in results:
        prefix = f"{path}: " if len(args.graphs) > 1 else ""
        sys.stdout.write(prefix + message)
        worst = max(worst, code)
    return worst


def _check_one(path: str) -> tuple[str, int, str]:
    g = _load_graph(path)
    result = certify(g)
    if result.certified:
        return path, 0, "3-connected\n"
    g_s, _ = simplify(g)
    return path, 1, certformat.format_witness(g_s, result.witness)


def _cmd_certify(args) -> int:
    g = _load_graph(args.graph)
    g_s, _ = simplify(g)
    prescribed = None
    if args.s0:
        s0_graph = parse_graph(_read_in(args.s0), "edge-list")
        ids = g_s.label_to_id()
        prescribed = []
        for e in s0_graph.live_edges():
            u, v = s0_graph.ends(e)
            lu, lv = s0_graph.labels[u], s0_graph.labels[v]
            if lu not in ids or lv not in ids:
                sys.stderr.write(f"prescribed edge {lu} {lv} not in graph\n")
                return 2
            eid = g_s.edge_between(ids[lu], ids[lv])
            if eid is None:
                sys.stderr.write(f"prescribed edge {lu} {lv} not in graph\n")
                return 2
            prescribed.append(eid)
    result = certify(
        g, prescribed_s0=prescribed, want_basic=args.basic, use_sparsify=not args.no_sparsify
    )
    if not result.certified:
        _write_out(certformat.format_witness(g_s, result.witness), args.output)
        return 1
    cert = result.certificate
    if args.edge_rep:
        er = path_to_edge(g_s, cert)
        _write_out(certformat.format_edge_rep(er), args.output)
    else:
        _write_out(certformat.format_certificate(g_s, cert), args.output)
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    g_s, _ = simplify(g)
    text = _read_in(args.cert)
    try:
        cert = certformat.parse_certificate(g_s, text)
    except certformat.CertMismatchError as exc:
        sys.stdout.write(f"reject: {exc}\n")
        return 1
    result = verify_certificate(g, cert, basic_mode=args.basic)
    if result.ok:
        sys.stdout.write("accept\n")
        return 0
    where = f" at step {result.step}" if result.step >= 0 else ""
    sys.stdout.write(f"reject: {result.reason}{where}\n")
    return 1


def _cmd_transform(args) -> int:
    text = _read_in(args.cert)
    is_edge = text.lstrip().startswith("triedges")
    g_s = None
    if args.graph:
        g_s, _ = simplify(_load_graph(args.graph))

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
    if to == "edge":
        if is_edge:
            _write_out(text, args.output)
            return 0
        er = path_to_edge(need_graph(), cert)
        _write_out(certformat.format_edge_rep(er), args.output)
    elif to == "path":
        if not is_edge:
            _write_out(text, args.output)
            return 0
        cert, g_z = _edge_to_path_replayed(er)
        _write_out(certformat.format_certificate(g_z, cert), args.output)
    elif to in ("basic", "nonbasic"):
        if is_edge:
            cert, ctx = _edge_to_path_replayed(er)
        else:
            ctx = need_graph()
        cert2 = to_basic(ctx, cert) if to == "basic" else from_basic(cert)
        _write_out(certformat.format_certificate(ctx, cert2), args.output)
    else:  # contractions
        if not is_edge:
            er = path_to_edge(need_graph(), cert)
        seq = to_contractions(er)
        # g0 holds every node id with its label, and a replay never relabels.
        _write_out(certformat.format_contractions(er.g0, seq), args.output)
    return 0


def _cmd_gen(args) -> int:
    mix = tuple(float(x) for x in args.mix.split(":"))
    if len(mix) != 3:
        sys.stderr.write("--mix wants a:b:c\n")
        return 2
    g = gen_3_connected(args.n, args.seed, mix)
    _write_out(serialize_graph(g), args.output)
    return 0


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    verdict = is_3_connected_brute(g)
    sys.stdout.write("3-connected\n" if verdict else "not-3-connected\n")
    return 0 if verdict else 1


def _cmd_dot(args) -> int:
    g = _load_graph(args.graph)
    g_s, _ = simplify(g)
    cert = certformat.parse_certificate(g_s, _read_in(args.cert))
    stage = len(cert.steps) if args.stage is None else args.stage
    if stage < 0 or stage > len(cert.steps):
        sys.stderr.write(f"stage must be in 0..{len(cert.steps)}\n")
        return 2
    try:
        sub = build_subdivision(g_s, cert.s0_edges)
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--no-sparsify", action="store_true")
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
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError, IsADirectoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (InputError, TransformError, ReplayError, certformat.CertMismatchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    raise SystemExit(main())
