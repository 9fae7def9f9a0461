#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for tricert.

Run every workload, each in a fresh interpreter, check every output and
print every metric by name with its unit:

    python3 perfbench/run.py

One workload, one seed, a fixed measuring time, with or without the
traced run:

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 30 --trace 0

The program is driven through ``tricert.cli.main`` in this process, on
edge-list files the benchmark writes from its own seeded generators.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record (input and
output digests, every sample, and with ``--trace 1`` every span) goes to
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Spec, rng_factory  # noqa: E402

# End-to-end time metrics, one per user-visible operation.
COMMANDS = ("certify", "verify", "to_edge", "to_path", "to_basic", "verify_basic", "contractions")
E2E_TIMES = tuple(f"{c}_s" for c in COMMANDS) + ("witness_s",)
E2E_UNITS = {"setup_s": "s", **{k: "s" for k in E2E_TIMES}, "cert_bytes": "bytes", "peak_rss_mb": "MB"}

# Per-layer time metrics and the span whose durations each one sums.
LAYER_SPANS = {
    "graph.parse_s": "graph.parse",
    "graph.simplify_s": "graph.simplify",
    "sparsify.sparsify3_s": "sparsify.sparsify3",
    "k4finder.find_s": "k4finder.find",
    "sequencer.certify_s": "sequencer.certify",
    "subdivision.replay_s": "subdivision.replay",
    "verifier.verify_s": "verifier.verify",
    "verifier.verify_basic_s": "verifier.verify_basic",
    "verifier.witness_s": "verifier.witness",
    "transforms.path_to_edge_s": "transforms.path_to_edge",
    "transforms.edge_to_path_s": "transforms.edge_to_path",
    "transforms.replay_s": "transforms.replay",
    "transforms.to_basic_s": "transforms.to_basic",
    "transforms.to_contractions_s": "transforms.to_contractions",
    "certformat.format_s": "certformat.format",
    "certformat.parse_s": "certformat.parse",
    "certformat.edge_rep_parse_s": "certformat.edge_rep_parse",
}
LAYER_UNITS = {
    **{k: "s" for k in LAYER_SPANS},
    "graph.max_degree": "count",
    "sparsify.kept_frac": "ratio",
    "sequencer.growth_s": "s",
    "sequencer.steps": "count",
    "sequencer.leftover_steps": "count",
    "sequencer.edges_per_step": "edges/step",
    "sequencer.doubling": "ratio",
    "subdivision.links_split": "count",
    "subdivision.mean_split_len": "nodes",
    "verifier.doubling": "ratio",
    "transforms.nonbasic_steps": "count",
    "transforms.basic_expands": "count",
    "cli.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Spans inside `sequencer.certify` replayed one by one; what they leave of
# the certify time is the growth loop (plus the cheap degree and
# connectivity gates and the appending of leftover edges).
CERTIFY_PHASES = ("sparsify.sparsify3", "k4finder.find", "subdivision.build", "verifier.witness")
SETUP_REPEATS = 5
# Times `import tricert.cli` in a fresh interpreter; argv[1] is src/.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import tricert.cli; print(time.perf_counter() - t)"
)
# Shared hosts change speed by up to 2x from one second or minute to the
# next, so every reported command time is normalised: measured seconds x
# NOMINAL_REF_S / (time of `reference_work` just before the input's
# commands).  NOMINAL_REF_S is about what `reference_work` takes on a
# 2-vCPU VM with Python 3.11 (8-14 ms there), so the figures stay close to
# seconds.  Raw seconds are kept in the results file.
NOMINAL_REF_S = 0.01


@dataclass(frozen=True)
class Input:
    spec: Spec
    path: Path
    n: int
    m: int
    sha256: str

    @property
    def name(self) -> str:
        return self.spec.name


class Checks:
    """Counts every output check; a failure is recorded, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def crashed(self, what: str) -> None:
        self.expect(False, f"{what}\n{traceback.format_exc()}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_program():
    """Import tricert from this checkout's sources, never from elsewhere."""
    if not (SRC / "tricert" / "__init__.py").is_file():
        raise SystemExit(f"error: tricert sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import tricert
    import tricert.cli

    if Path(tricert.__file__).resolve().parent != SRC / "tricert":
        raise SystemExit(f"error: imported tricert from {tricert.__file__}, not {SRC}")
    return tricert


def make_inputs(workload: str, seed: int, where: Path, scale: float = 1.0, specs=None) -> list[Input]:
    where.mkdir(parents=True, exist_ok=True)
    out = []
    for spec in specs or WORKLOADS[workload]:
        rng_for = rng_factory(seed, workload, spec.name)
        n, edges = spec.make(rng_for, scale)
        path = where / f"{spec.name}.txt"
        data = gen.write_edge_list(path, n, edges, rng_for("labels"))
        out.append(Input(spec, path, n, len(edges), sha256(data)))
    return out


REF_NODES = 10_000


def reference_graph() -> tuple[list[int], list[int]]:
    """A fixed random graph of REF_NODES nodes and 3 * REF_NODES edges in
    compressed form (offsets, targets): a few MB of memory spread like a
    graph program's, but only two lists for the garbage collector."""
    rng = random.Random(1)
    adj: list[list[int]] = [[] for _ in range(REF_NODES)]
    for _ in range(3 * REF_NODES):
        u, v = rng.randrange(REF_NODES), rng.randrange(REF_NODES)
        adj[u].append(v)
        adj[v].append(u)
    offsets, targets = [0], []
    for nbrs in adj:
        targets += nbrs
        offsets.append(len(targets))
    return offsets, targets


def reference_work(graph: tuple[list[int], list[int]]) -> int:
    """Fixed pure-Python work unrelated to tricert (a depth-first walk of
    `reference_graph`), timed alongside the measurements to gauge the
    host's current speed.  It reads memory scattered over a few MB as
    tricert does, so it slows down when other tenants crowd the caches."""
    offsets, targets = graph
    seen = [False] * REF_NODES
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for j in range(offsets[u], offsets[u + 1]):
            y = targets[j]
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return sum(seen)


def time_reference(graph) -> float:
    t0 = perf_counter()
    reference_work(graph)
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# the user pipeline, through the command line


def normalised(times: dict, key: str) -> float:
    """An input's time `key` of one pass, in seconds at the nominal speed."""
    return times[key] * NOMINAL_REF_S / times["ref_s"]


# Library functions `tricert.cli` calls by name; with a tracer, each call a
# command makes goes into a "lib-call" span, so that the command span's
# self time is the command line's own cost (arguments, files, output).
CLI_LIBRARY_CALLS = ("parse_graph", "simplify", "certify", "verify_certificate", "path_to_edge",
                     "edge_to_path", "replay_edge_rep", "to_basic", "to_contractions")


class _TracedCertformat:
    """Stands in for `tricert.certformat` inside `tricert.cli`, tracing its
    parse_* and format_* calls."""

    def __init__(self, module, tracer: Tracer) -> None:
        self._module, self._tracer = module, tracer

    def __getattr__(self, name: str):
        attr = getattr(self._module, name)
        if name.startswith(("parse_", "format_")):
            return functools.partial(self._tracer.call, "lib-call", attr)
        return attr


@contextlib.contextmanager
def traced_library_calls(cli, tracer: Tracer):
    saved = {name: getattr(cli, name) for name in (*CLI_LIBRARY_CALLS, "certformat")}
    for name in CLI_LIBRARY_CALLS:
        setattr(cli, name, functools.partial(tracer.call, "lib-call", saved[name]))
    cli.certformat = _TracedCertformat(saved["certformat"], tracer)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def cli_pass(tc, ref, inputs: list[Input], out_dir: Path, checks: Checks, tracer: Tracer | None = None):
    """One pass of every command over every input.

    Returns the raw seconds per end-to-end metric and of `reference_work`
    on `ref` (timed before each input's commands) per input, the total
    certificate bytes and the sha256 of every output file per input.
    """
    times = {inp.name: dict.fromkeys(E2E_TIMES, 0.0) for inp in inputs}
    digests: dict[str, dict[str, str]] = {}
    cert_bytes = 0
    for inp in inputs:
        name, g = inp.name, str(inp.path)
        f = {k: str(out_dir / f"{name}.{k}") for k in ("cert", "er", "back", "basic", "contr")}
        for path in f.values():  # never read an earlier pass's output
            Path(path).unlink(missing_ok=True)
        dig = digests[name] = {}
        times[name]["ref_s"] = time_reference(ref)

        def command(cmd: str, argv: list[str], want: int) -> str | None:
            """Run one CLI command; its stdout if it exited `want`, else None."""
            gc.collect()  # start each command with an empty collector, as a fresh process would
            t0 = perf_counter()
            if tracer:
                tracer.begin("cli." + cmd, name)
            try:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    if tracer:
                        with traced_library_calls(tc.cli, tracer):
                            code = tc.cli.main(argv)
                    else:
                        code = tc.cli.main(argv)
            except Exception:
                checks.crashed(f"{name}: tricert {cmd} raised")
                return None
            finally:
                if tracer:
                    tracer.end()
                times[name][f"{cmd}_s"] += perf_counter() - t0
            if checks.expect(code == want, f"{name}: tricert {cmd} exited {code}, expected {want}"):
                return stdout.getvalue()
            return None

        want = 0 if inp.spec.connected else 1
        if command("certify", ["certify", g, "-o", f["cert"]], want) is None:
            continue
        cert = Path(f["cert"]).read_bytes()
        if not inp.spec.connected:
            dig["witness"] = sha256(cert)
            gc.collect()
            t0 = perf_counter()
            if tracer:
                tracer.begin("user.witness", name)
            try:
                graph = tc.parse_graph(inp.path.read_text())
                ok = tc.verify_witness(graph, tc.certformat.parse_witness(graph, cert.decode()))
                checks.expect(ok, f"{name}: verify_witness rejected {cert!r}")
            except Exception:
                checks.crashed(f"{name}: witness check raised")
            finally:
                if tracer:
                    tracer.end()
                times[name]["witness_s"] += perf_counter() - t0
            continue
        dig["cert"] = sha256(cert)
        cert_bytes += len(cert)
        out = command("verify", ["verify", g, f["cert"]], 0)
        if out is not None:
            checks.expect(out == "accept\n", f"{name}: verify printed {out!r}")
        if command("to_edge", ["transform", f["cert"], "--to", "edge", "--graph", g, "-o", f["er"]], 0) is not None:
            dig["edge_rep"] = sha256(Path(f["er"]).read_bytes())
            if command("to_path", ["transform", f["er"], "--to", "path", "-o", f["back"]], 0) is not None:
                back = Path(f["back"]).read_bytes()
                checks.expect(back == cert, f"{name}: path -> edge -> path changed the certificate")
            if command("contractions", ["transform", f["er"], "--to", "contractions", "-o", f["contr"]], 0) is not None:
                contr = Path(f["contr"]).read_bytes()
                dig["contractions"] = sha256(contr)
                count = contr.count(b"\n")
                checks.expect(count == inp.n - 4, f"{name}: {count} contractions for n={inp.n}")
        if command("to_basic", ["transform", f["cert"], "--to", "basic", "--graph", g, "-o", f["basic"]], 0) is not None:
            dig["basic"] = sha256(Path(f["basic"]).read_bytes())
            out = command("verify_basic", ["verify", g, f["basic"], "--basic"], 0)
            if out is not None:
                checks.expect(out == "accept\n", f"{name}: verify --basic printed {out!r}")
    return times, cert_bytes, digests


def check_same(checks: Checks, ref: dict, got: dict, what: str) -> None:
    """Outputs of two runs over the same inputs must be byte-identical."""
    for name, kinds in ref.items():
        for kind, digest in kinds.items():
            other = got.get(name, {}).get(kind)
            checks.expect(other == digest, f"{name}: {kind} of {what} differs from the first pass")


# ---------------------------------------------------------------------------
# the same work, one public layer call at a time


COUNTS = ("steps", "leftover", "step_edges", "kept", "edges", "max_degree", "splits", "split_len", "nonbasic", "expands")


def layer_pass(tc, inp: Input, tracer: Tracer, checks: Checks, ref: dict, c: dict) -> None:
    """Replay each command's library calls on `inp` in spans, adding to the counters `c`.

    The replay mirrors what ``tricert.cli`` does per command, and like a
    command it keeps only the text it writes, so its outputs must hash to
    the command line's outputs in `ref`.
    """
    from tricert import certformat as cf
    from tricert import transforms as tf
    from tricert.subdivision import apply_step_inplace, build_subdivision

    T = tracer

    def load(text: str):
        graph = T.call("graph.parse", tc.parse_graph, text)
        return graph, T.call("graph.simplify", tc.simplify, graph)[0]

    def certify_and_phases(inp: Input, text: str) -> str:
        """`tricert certify`, then the phases inside it one by one."""
        gc.collect()  # as before each command
        with T.span("lib.certify"):
            graph, g_s = load(text)
            res = T.call("sequencer.certify", tc.certify, graph)
            if res.certified:
                out = T.call("certformat.format", cf.format_certificate, g_s, res.certificate)
            else:
                out = T.call("certformat.format_witness", cf.format_witness, g_s, res.witness)
        g_w, _ = T.call("sparsify.sparsify3", tc.sparsify3, g_s)
        found = T.call("k4finder.find", tc.find_k4_subdivision, g_w)
        c["kept"] += g_w.n_live_edges
        c["edges"] += g_s.n_live_edges
        c["max_degree"] = max(c["max_degree"], max(g_s.degree(v) for v in g_s.live_nodes()))
        if not res.certified:
            if not isinstance(found, tc.Witness):
                T.call("subdivision.build", build_subdivision, g_s, sorted(found.edge_ids()))
            ok = T.call("verifier.witness", tc.verify_witness, graph, res.witness)
            checks.expect(ok, f"{inp.name}: traced verify_witness rejected")
            return out
        cert = res.certificate
        with T.span("subdivision.replay"):
            sub = T.call("subdivision.build", build_subdivision, g_s, cert.s0_edges)
            for step in cert.steps:
                apply_step_inplace(sub, step)
        del sub
        _count_replay(build_subdivision(g_s, cert.s0_edges), cert, c)
        c["steps"] += len(cert.steps)
        c["leftover"] += len(res.leftover_edges)
        c["step_edges"] += g_s.n_live_edges - len(cert.s0_edges)
        return out

    def verify(text: str, cert_text: str, basic: bool) -> bool:
        gc.collect()  # as before each command
        with T.span("lib.verify_basic" if basic else "lib.verify"):
            graph, g_s = load(text)
            parsed = T.call("certformat.parse", cf.parse_certificate, g_s, cert_text)
            name = "verifier.verify_basic" if basic else "verifier.verify"
            return T.call(name, tc.verify_certificate, graph, parsed, basic).ok

    def to_edge(text: str, cert_text: str) -> str:
        gc.collect()  # as before each command
        with T.span("lib.to_edge"):
            _, g_s = load(text)
            parsed = T.call("certformat.parse", cf.parse_certificate, g_s, cert_text)
            er = T.call("transforms.path_to_edge", tf.path_to_edge, g_s, parsed)
            return T.call("certformat.format_edge_rep", cf.format_edge_rep, er)

    def to_path(er_text: str) -> str:
        gc.collect()  # as before each command
        with T.span("lib.to_path"):
            er = T.call("certformat.edge_rep_parse", cf.parse_edge_rep, er_text)
            back = T.call("transforms.edge_to_path", tf.edge_to_path, er)
            g_z = T.call("transforms.replay", tf.replay_edge_rep, er)
            return T.call("certformat.format", cf.format_certificate, g_z, back)

    def contractions(er_text: str) -> str:
        gc.collect()  # as before each command
        with T.span("lib.contractions"):
            er = T.call("certformat.edge_rep_parse", cf.parse_edge_rep, er_text)
            seq = T.call("transforms.to_contractions", tf.to_contractions, er)
            g_z = T.call("transforms.replay", tf.replay_edge_rep, er)
            return T.call("certformat.format_contractions", cf.format_contractions, g_z, seq)

    def to_basic(text: str, cert_text: str) -> str:
        gc.collect()  # as before each command
        with T.span("lib.to_basic"):
            _, g_s = load(text)
            parsed = T.call("certformat.parse", cf.parse_certificate, g_s, cert_text)
            basic = T.call("transforms.to_basic", tf.to_basic, g_s, parsed)
            out = T.call("certformat.format", cf.format_certificate, g_s, basic)
        c["expands"] += sum(isinstance(s, tc.ExpandStep) for s in basic.steps)
        return out

    name = inp.name
    text = inp.path.read_text()
    digests = ref.get(name, {})

    def same(kind: str, out: str) -> None:
        ok = sha256(out.encode()) == digests.get(kind)
        checks.expect(ok, f"{name}: traced {kind} differs from the command line's")

    try:
        with T.span("layers", name):
            cert_text = certify_and_phases(inp, text)
            if not inp.spec.connected:
                same("witness", cert_text)
                return
            same("cert", cert_text)
            checks.expect(verify(text, cert_text, False), f"{name}: traced verify rejected")
            er_text = to_edge(text, cert_text)
            same("edge_rep", er_text)
            checks.expect(to_path(er_text) == cert_text, f"{name}: traced path -> edge -> path changed the certificate")
            same("contractions", contractions(er_text))
            basic_text = to_basic(text, cert_text)
            same("basic", basic_text)
            checks.expect(verify(text, basic_text, True), f"{name}: traced verify --basic rejected")
    except Exception:
        checks.crashed(f"{name}: traced layer replay raised")


def _count_replay(sub, cert, c: dict) -> None:
    """Forward replay counting link splits and parallel-making steps."""
    from tricert.subdivision import apply_step_inplace

    for step in cert.steps:
        x, y = step.endpoints
        if sub.parallel_count((min(x, y), max(x, y))) >= 1:
            c["nonbasic"] += 1
        for v in (x, y):
            if not sub.real[v]:
                c["splits"] += 1
                c["split_len"] += len(sub.links[sub.node_link[v]].nodes)
        apply_step_inplace(sub, step)


def doubling_pass(tc, pairs: list[tuple[Input, Input]], tracer: Tracer, checks: Checks) -> dict:
    """Certify and verify one input per family at n/2 and n.

    Returns, per family, t(n) / t(n/2) for certify and for the check of
    its result (the certificate, or the witness of a planted input).
    """
    out = {}
    for half, full in pairs:
        t = {}
        for label, inp in (("half", half), ("full", full)):
            key = f"{inp.spec.family}@{label}"
            try:
                graph = tc.parse_graph(inp.path.read_text())
                with tracer.span("doubling.certify", key) as span_c:
                    res = tc.certify(graph)
                with tracer.span("doubling.verify", key) as span_v:
                    if res.certified:
                        ok = tc.verify_certificate(graph, res.certificate).ok
                    else:
                        ok = tc.verify_witness(graph, res.witness)
                checks.expect(ok, f"{key}: doubling check rejected")
            except Exception:
                checks.crashed(f"{key}: doubling run raised")
                break
            t[("certify", label)] = span_c[2] - span_c[1]
            t[("verify", label)] = span_v[2] - span_v[1]
        else:
            out[full.spec.family] = {
                "sequencer": t[("certify", "full")] / t[("certify", "half")],
                "verifier": t[("verify", "full")] / t[("verify", "half")],
                "n": [half.n, full.n],
            }
    return out


def layer_times(tracer: Tracer, first: int, times: dict) -> dict[str, dict[str, float]]:
    """Per input, the time metrics of one traced pass (spans[first:]),
    normalised by the input's reference time in `times`; "cli" is the
    summed command spans and "cli_self" their self time, outside the
    library calls."""
    totals = tracer.totals(first)
    out = {}
    for i, t in times.items():
        # (parent name, name) -> normalised seconds, for this input's spans
        tot = {(p, n): v * NOMINAL_REF_S / t["ref_s"] for (j, p, n), v in totals.items() if j == i}
        by_name: dict[str, float] = {}
        for (_, name), secs in tot.items():
            by_name[name] = by_name.get(name, 0.0) + secs
        m = {k: by_name.get(span, 0.0) for k, span in LAYER_SPANS.items()}
        m["sequencer.growth_s"] = (
            tot.get(("lib.certify", "sequencer.certify"), 0.0)
            - tot.get(("lib.certify", "graph.simplify"), 0.0)
            - sum(v for (_, name), v in tot.items() if name in CERTIFY_PHASES)
        )
        m["cli"] = sum(v for k, v in by_name.items() if k.startswith("cli."))
        m["cli_self"] = m["cli"] - sum(v for (parent, _), v in tot.items() if parent.startswith("cli."))
        out[i] = m
    return out


def layer_metrics(passes: list[dict], counts: dict, cli_untraced_s: float) -> dict:
    """Per-layer metrics of the traced passes: each time is, summed over
    the inputs, its median over the passes, as in the untraced run."""
    keys = next(iter(passes[0].values()))
    total = {k: sum(statistics.median(p[i][k] for p in passes) for i in passes[0]) for k in keys}
    m = {k: total[k] for k in (*LAYER_SPANS, "sequencer.growth_s")}
    m["cli.overhead_s"] = total["cli_self"]
    m["trace.overhead_ratio"] = total["cli"] / cli_untraced_s
    m["graph.max_degree"] = counts["max_degree"]
    m["sparsify.kept_frac"] = counts["kept"] / max(counts["edges"], 1)
    m["sequencer.steps"] = counts["steps"]
    m["sequencer.leftover_steps"] = counts["leftover"]
    m["sequencer.edges_per_step"] = counts["step_edges"] / max(counts["steps"], 1)
    m["subdivision.links_split"] = counts["splits"]
    m["subdivision.mean_split_len"] = counts["split_len"] / max(counts["splits"], 1)
    m["transforms.nonbasic_steps"] = counts["nonbasic"]
    m["transforms.basic_expands"] = counts["expands"]
    return m


# ---------------------------------------------------------------------------
# runs


def import_time() -> float:
    """Seconds `import tricert.cli` takes in a fresh interpreter.  The caller
    has imported tricert once already, so the bytecode cache is warm and
    the time includes no compiling of the sources."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def run_workload(args) -> int:
    tc = load_program()

    work = Path(tempfile.mkdtemp(prefix="tmp-", dir=HERE))
    try:
        imports, setups = [], []
        for k in range(SETUP_REPEATS):
            imports.append(import_time())
            t0 = perf_counter()
            inputs = make_inputs(args.workload, args.seed, work / f"in{k}")
            setups.append(perf_counter() - t0)
        # In seconds: the reference walk, timed minutes later, tracks the
        # host's speed during set-up too loosely to normalise it.
        setup_s = statistics.median(imports) + statistics.median(setups)
        ref = reference_graph()
        out_dir = work / "out"
        out_dir.mkdir()
        checks = Checks()
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "setup_samples": setups,
            "import_samples": imports,
            "inputs": {
                i.name: {"sha256": i.sha256, "n": i.n, "m": i.m, "family": i.spec.family, "connected": i.spec.connected}
                for i in inputs
            },
        }
        if args.trace:
            metrics = traced_run(tc, ref, args, inputs, work, out_dir, checks, record)
        else:
            metrics = untraced_run(tc, ref, args, inputs, out_dir, checks, record)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record.update(result, failures=checks.failures)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for k, unit in units.items():
        print(f"{args.workload:8} {k:30} {metrics[k]:14.6f} {unit}")
    print(f"{args.workload:8} {'fail_frac':30} {result['failed'] / max(result['attempted'], 1):14.6f} ratio"
          f"  ({result['failed']} of {result['attempted']} checks failed)")
    print(f"{args.workload:8} results in {path.relative_to(HERE.parent)}")
    print(json.dumps(result))
    return 0


def untraced_run(tc, ref, args, inputs, out_dir, checks, record) -> dict:
    """Passes until --seconds would be exceeded (at least two).

    Each end-to-end time is the sum over inputs of the command's median
    normalised time over the passes: each time is divided by the reference
    walk timed just before the input's commands, so a spell in which other
    tenants slow the host slows both.
    """
    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        times, cert_bytes, digests = cli_pass(tc, ref, inputs, out_dir, checks)
        took = perf_counter() - t0
        if passes:
            check_same(checks, record["outputs"], digests, "a later pass")
        else:
            record["outputs"] = digests
        passes.append(times)
        if len(passes) >= 2 and perf_counter() - start + took > args.seconds:
            break
    metrics = {k: sum(statistics.median(normalised(p[i.name], k) for p in passes) for i in inputs) for k in E2E_TIMES}
    record["passes"] = passes
    return {**metrics, "cert_bytes": cert_bytes}


def traced_run(tc, ref, args, inputs, work, out_dir, checks, record) -> dict:
    start = perf_counter()
    # Two untraced passes: the untraced time that trace.overhead_ratio
    # compares against.
    untraced = [cli_pass(tc, ref, inputs, out_dir, checks) for _ in range(2)]
    outputs = untraced[0][2]
    check_same(checks, outputs, untraced[1][2], "a later pass")
    record["outputs"] = outputs
    cli_untraced_s = sum(
        statistics.median(sum(normalised(p[i.name], f"{c}_s") for c in COMMANDS) for p, _, _ in untraced)
        for i in inputs
    )

    # One input per family, at half size and full size.
    by_family: dict[str, Input] = {}
    for inp in inputs:
        by_family.setdefault(inp.spec.family, inp)
    firsts = list(by_family.values())
    halves = make_inputs(args.workload, args.seed, work / "half", 0.5, [i.spec for i in firsts])
    pairs = list(zip(halves, firsts))

    tracer = Tracer()
    passes, doublings = [], []
    while True:
        gc.collect()
        t0 = perf_counter()
        first = len(tracer.spans)
        counts = dict.fromkeys(COUNTS, 0)
        times = {}
        with tracer.span("pass"):
            # Each input's commands and then their library replay, back to
            # back, so that both run at about the same machine speed.
            for inp in inputs:
                t, _, digests = cli_pass(tc, ref, [inp], out_dir, checks, tracer)
                times.update(t)
                check_same(checks, {inp.name: outputs[inp.name]}, digests, "the traced pass")
                layer_pass(tc, inp, tracer, checks, outputs, counts)
        passes.append(layer_times(tracer, first, times))
        with tracer.span("doubling"):
            doublings.append(doubling_pass(tc, pairs, tracer, checks))
        took = perf_counter() - t0
        if perf_counter() - start + took > args.seconds:
            break

    metrics = layer_metrics(passes, counts, cli_untraced_s)
    families = set.intersection(*(set(d) for d in doublings))  # a family that crashed is a failure
    doubling = {
        fam: {layer: statistics.median(d[fam][layer] for d in doublings) for layer in ("sequencer", "verifier")}
        | {"n": doublings[0][fam]["n"]}
        for fam in sorted(families, key=[i.spec.family for i in firsts].index)
    }
    for layer in ("sequencer", "verifier"):
        metrics[f"{layer}.doubling"] = max((d[layer] for d in doubling.values()), default=0.0)
        for fam, d in doubling.items():
            print(f"{args.workload:8} {layer}.doubling[{fam}] n={d['n'][0]}->{d['n'][1]} {d[layer]:.3f}")
    self_by_name: dict[str, float] = {}
    for rec in tracer.records():
        self_by_name[rec["name"]] = self_by_name.get(rec["name"], 0.0) + rec["self"]
    record.update(passes=passes, doubling=doubling, self_times=self_by_name, spans=tracer.records())
    return metrics


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {w} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time per workload; the bounds in BENCHMARK.json hold for its run_seconds")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
