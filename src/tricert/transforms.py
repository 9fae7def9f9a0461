"""Conversions between certificate representations.

* path -> edge: remove steps in reverse order, recording one indexed
  operation per step; when an endpoint is smoothed, the merged edge keeps
  the lower of the two indices, which makes the output unique.
* edge -> path: replay the operations, tracking for every added edge the
  set of edges its later subdivisions split it into; gluing those chains
  back together recovers each step as a node sequence.
* non-basic <-> basic-with-expand: one forward pass holds parallel-making
  steps until the step that first attaches to their interior, gluing the
  two into an expand when possible and splitting into two paths otherwise.
* edge ops -> contraction sequence down from the graph to K4.

Each subdivision record names the far endpoint of the part that receives
the new index.  That one node pins down which side of the split edge keeps
the old index, and with it a replay rebuilds not just an isomorphic graph
but the exact input labeling; without it the side is genuinely ambiguous
and round trips would not be unique.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import GraphUsageError, MultiGraph, simplify, smooth_inplace
from .subdivision import (
    ExpandRejected,
    ExpandStep,
    PathRejected,
    PathStep,
    Step,
    StructureError,
    Subdivision,
    apply_expand_inplace,
    apply_path_inplace,
    build_subdivision,
)


class TransformError(ValueError):
    """Input does not satisfy a transform's contract."""


class ReplayError(ValueError):
    """Edge-operation sequence cannot be replayed."""


@dataclass(frozen=True)
class OpA:
    """Add edge (u, v) with a fresh index."""

    u: int
    v: int
    new_edge: int


@dataclass(frozen=True)
class OpB:
    """Subdivide `split_edge` at `new_node` (the part toward `part_far`
    takes index `part_edge`), then add edge (new_node, other_end)."""

    split_edge: int
    new_node: int
    part_edge: int
    part_far: int
    other_end: int
    new_edge: int


@dataclass(frozen=True)
class OpC:
    """Subdivide two distinct non-parallel edges and join the new nodes."""

    split_edge1: int
    new_node1: int
    part_edge1: int
    part_far1: int
    split_edge2: int
    new_node2: int
    part_edge2: int
    part_far2: int
    new_edge: int


@dataclass(frozen=True)
class OpD:
    """Join a new node to three distinct existing nodes."""

    new_node: int
    anchors: tuple[int, int, int]
    new_edges: tuple[int, int, int]


EdgeOp = OpA | OpB | OpC | OpD


@dataclass
class EdgeRep:
    """Starting graph plus indexed operations replaying to the exact input."""

    g0: MultiGraph
    ops: list[EdgeOp]


@dataclass(frozen=True)
class ContractionSequence:
    """Ordered contractions (current node labels) ending at K4."""

    pairs: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# replay


def _split(g: MultiGraph, e: int, x: int, f: int, far: int, k: int) -> tuple[int, int]:
    """Subdivide edge e at new node x; the part toward `far` takes id f.
    Returns e's former endpoint pair (kept side first)."""
    if not g.edge_alive(e):
        raise ReplayError(f"op {k}: edge {e} is not alive")
    if g.edge_alive(f):
        raise ReplayError(f"op {k}: part id {f} already in use")
    p, q = g.ends(e)
    if p == q:
        raise ReplayError(f"op {k}: cannot subdivide a self-loop")
    if far == q:
        pass
    elif far == p:
        p, q = q, p
    else:
        raise ReplayError(f"op {k}: {far} is not an endpoint of edge {e}")
    try:
        g.ensure_node(x)
    except GraphUsageError:
        raise ReplayError(f"op {k}: node id {x} already in use") from None
    g.kill_edge(e)
    g.add_edge(x, p, eid=e)
    g.add_edge(x, q, eid=f)
    return p, q


def _add(g: MultiGraph, u: int, v: int, eid: int, k: int) -> None:
    if g.edge_alive(eid):
        raise ReplayError(f"op {k}: edge id {eid} already in use")
    if not (g.node_alive(u) and g.node_alive(v)):
        raise ReplayError(f"op {k}: dead endpoint for edge {eid}")
    g.add_edge(u, v, eid=eid)


def replay_edge_rep(er: EdgeRep, on_split=None, on_add=None) -> MultiGraph:
    """Apply the operations to a copy of g0 and return the result.

    The optional hooks observe structure while replaying: ``on_split(k, e,
    f, pre_ends)`` after each subdivision and ``on_add(k, eid)`` after each
    edge addition (expand arms fire one per arm).
    """
    g = er.g0.copy()
    for k, op in enumerate(er.ops):
        if isinstance(op, OpA):
            _add(g, op.u, op.v, op.new_edge, k)
            if on_add:
                on_add(k, op.new_edge)
        elif isinstance(op, OpB):
            pre = _split(g, op.split_edge, op.new_node, op.part_edge, op.part_far, k)
            if on_split:
                on_split(k, op.split_edge, op.part_edge, pre)
            if op.other_end in (pre[0], pre[1]):
                raise ReplayError(f"op {k}: attachment endpoint lies on the split edge")
            _add(g, op.new_node, op.other_end, op.new_edge, k)
            if on_add:
                on_add(k, op.new_edge)
        elif isinstance(op, OpC):
            if op.split_edge1 == op.split_edge2:
                raise ReplayError(f"op {k}: the two split edges must differ")
            if not (g.edge_alive(op.split_edge1) and g.edge_alive(op.split_edge2)):
                raise ReplayError(f"op {k}: split edge is not alive")
            if set(g.ends(op.split_edge1)) == set(g.ends(op.split_edge2)):
                raise ReplayError(f"op {k}: the two split edges are parallel")
            pre1 = _split(g, op.split_edge1, op.new_node1, op.part_edge1, op.part_far1, k)
            if on_split:
                on_split(k, op.split_edge1, op.part_edge1, pre1)
            pre2 = _split(g, op.split_edge2, op.new_node2, op.part_edge2, op.part_far2, k)
            if on_split:
                on_split(k, op.split_edge2, op.part_edge2, pre2)
            _add(g, op.new_node1, op.new_node2, op.new_edge, k)
            if on_add:
                on_add(k, op.new_edge)
        elif isinstance(op, OpD):
            if len(set(op.anchors)) != 3 or len(set(op.new_edges)) != 3:
                raise ReplayError(f"op {k}: expand needs three distinct anchors and edges")
            try:
                g.ensure_node(op.new_node)
            except GraphUsageError:
                raise ReplayError(f"op {k}: node id {op.new_node} already in use") from None
            for anchor, eid in zip(op.anchors, op.new_edges):
                _add(g, op.new_node, anchor, eid, k)
                if on_add:
                    on_add(k, eid)
        else:
            raise ReplayError(f"op {k}: unknown operation {op!r}")
    return g


# ---------------------------------------------------------------------------
# path -> edge


def path_to_edge(g: MultiGraph, cert) -> EdgeRep:
    """Reverse-remove the steps of a verified certificate, emitting indexed
    operations.  The result is the unique one under the lowest-index rule.

    Raises `TransformError` unless the removals leave a K4 whose six edges
    are all S0 edges, so a certificate that does not grow a K4-subdivision
    into the whole graph gives no edge rep.
    """
    w, _ = simplify(g)

    def edge(u: int, v: int) -> int:
        e = w.edge_between(u, v) if w.node_alive(u) and w.node_alive(v) else None
        if e is None:
            raise TransformError("step is not a path in the graph")
        return e

    step_edges = []
    for step in cert.steps:
        seqs = [step.nodes] if isinstance(step, PathStep) else list(step.arms)
        step_edges.append([[edge(u, v) for u, v in zip(seq, seq[1:])] for seq in seqs])

    ops_rev: list[EdgeOp] = []
    for k in range(len(cert.steps) - 1, -1, -1):
        step = cert.steps[k]
        if isinstance(step, ExpandStep):
            ops_rev.append(_remove_expand_step(w, step, step_edges[k]))
        else:
            ops_rev.append(_remove_path_step(w, step, step_edges[k][0]))
    left = w.live_edges()
    pairs = {(min(u, v), max(u, v)) for u, v in map(w.ends, left) if u != v}
    if w.n_live_nodes != 4 or len(left) != 6 or len(pairs) != 6:
        raise TransformError("steps do not reduce the graph to K4; certificate invalid")
    if not set(left) <= set(cert.s0_edges):
        raise TransformError("an edge left after the steps is not in S0; certificate invalid")
    return EdgeRep(g0=w, ops=ops_rev[::-1])


def _live_of(w: MultiGraph, edges: list[int]) -> int:
    live = [e for e in edges if w.edge_alive(e)]
    if len(live) != 1:
        raise TransformError("step not reduced to a single edge; certificate invalid")
    return live[0]


def _remove_path_step(w: MultiGraph, step: PathStep, edges: list[int]) -> EdgeOp:
    e = _live_of(w, edges)
    a, b = step.nodes[0], step.nodes[-1]
    if set(w.ends(e)) != {a, b}:
        raise TransformError("step endpoints do not match its remaining edge")
    u_store, v_store = w.ends(e)
    w.kill_edge(e)
    merges = {}
    for v in (a, b):
        if w.degree(v) == 2:
            nbrs = w.neighbors(v)
            if len(nbrs) != 2 or v in nbrs:
                raise TransformError("endpoint cannot be smoothed; certificate invalid")
            e1, e2 = sorted(w.incident(v))
            merges[v] = (e1, e2, w.other_end(e2, v))
            smooth_inplace(w, v, reuse_edge_id=e1)
    if not merges:
        return OpA(u_store, v_store, e)
    if len(merges) == 1:
        (x, (kept, part, far)) = next(iter(merges.items()))
        other = b if x == a else a
        return OpB(kept, x, part, far, other, e)
    ka, pa, fa = merges[a]
    kb, pb, fb = merges[b]
    return OpC(ka, a, pa, fa, kb, b, pb, fb, e)


def _remove_expand_step(w: MultiGraph, step: ExpandStep, arm_edges) -> EdgeOp:
    c = step.center
    if not w.node_alive(c) or w.degree(c) != 3:
        raise TransformError("expand center does not have degree 3")
    new_edges = []
    for arm, edges in zip(step.arms, arm_edges):
        e = _live_of(w, edges)
        if set(w.ends(e)) != {c, arm[-1]}:
            raise TransformError("expand arm does not match its remaining edge")
        new_edges.append(e)
        w.kill_edge(e)
    w.kill_node(c)
    return OpD(c, step.anchors, tuple(new_edges))


# ---------------------------------------------------------------------------
# edge -> path


def edge_to_path(er: EdgeRep):
    """Replay the operations while tracing subdivisions, then glue each
    added edge's chain back into the step it encodes."""
    return _edge_to_path_replayed(er)[0]


def _edge_to_path_replayed(er: EdgeRep):
    """`edge_to_path`'s certificate together with the replayed graph its
    node ids refer to, from one replay."""
    from .sequencer import PathCertificate

    chains: dict[object, list[int]] = {}
    origin: dict[int, object] = {}
    arm_counter = [0]

    g0 = er.g0
    for e in g0.live_edges():
        key = ("s0", e)
        origin[e] = key
        chains[key] = [e]

    def on_split(k, e, f, pre):
        key = origin[e]
        origin[f] = key
        chains[key].append(f)

    def on_add(k, eid):
        op = er.ops[k]
        if isinstance(op, OpD):
            key = ("arm", k, arm_counter[0] % 3)
            arm_counter[0] += 1
        else:
            key = ("step", k)
        origin[eid] = key
        chains[key] = [eid]

    g = replay_edge_rep(er, on_split=on_split, on_add=on_add)

    steps: list[Step] = []
    for k, op in enumerate(er.ops):
        if isinstance(op, OpA):
            seq = _chain_nodes(g, chains[("step", k)])
            if seq[0] > seq[-1]:
                seq.reverse()
            steps.append(PathStep(tuple(seq)))
        elif isinstance(op, OpB):
            seq = _chain_nodes(g, chains[("step", k)])
            if seq[0] != op.new_node:
                seq.reverse()
            if seq[0] != op.new_node:
                raise TransformError("added edge chain does not reach its new node")
            steps.append(PathStep(tuple(seq)))
        elif isinstance(op, OpC):
            seq = _chain_nodes(g, chains[("step", k)])
            if seq[0] != op.new_node1:
                seq.reverse()
            if seq[0] != op.new_node1:
                raise TransformError("added edge chain does not reach its new node")
            steps.append(PathStep(tuple(seq)))
        else:
            arms = []
            for idx in range(3):
                seq = _chain_nodes(g, chains[("arm", k, idx)])
                if seq[0] != op.new_node:
                    seq.reverse()
                arms.append(tuple(seq))
            arms.sort(key=lambda arm: arm[-1])
            steps.append(ExpandStep(op.new_node, tuple(arms)))

    s0_edges = []
    for e in g0.live_edges():
        s0_edges.extend(chains[("s0", e)])
    cert = PathCertificate(s0_edges=tuple(sorted(s0_edges)), steps=tuple(steps), basic=False)
    return cert, g


def _chain_nodes(g: MultiGraph, eids: list[int]) -> list[int]:
    """Order a chain's edges into a node path using final endpoints."""
    inc: dict[int, list[int]] = {}
    for e in eids:
        u, v = g.ends(e)
        inc.setdefault(u, []).append(e)
        inc.setdefault(v, []).append(e)
    ends = [v for v, es in inc.items() if len(es) == 1]
    if len(eids) == 1:
        u, v = g.ends(eids[0])
        return [u, v]
    if len(ends) != 2:
        raise TransformError("subdivision chain is not a path")
    cur = min(ends)
    seq = [cur]
    used: set[int] = set()
    while len(used) < len(eids):
        nxt = None
        for e in inc[cur]:
            if e not in used:
                nxt = e
                break
        if nxt is None:
            raise TransformError("subdivision chain is not a path")
        used.add(nxt)
        cur = g.other_end(nxt, cur)
        seq.append(cur)
    return seq


# ---------------------------------------------------------------------------
# basic <-> non-basic


def to_basic(g: MultiGraph, cert):
    """Rewrite a verified path-only certificate so no step ever creates two
    links with the same endpoints, introducing expand steps where needed.

    One forward pass over one subdivision.  A parallel-making single edge
    goes back to the end of the queue (its endpoints stay branch nodes, and
    the graph is simple, so it stops being parallel once the other link's
    interior has become branch nodes).  A longer one P is held out until
    the first step F attaching to its interior node w, and the two are
    replaced in place: by an expand centered at w if F's other endpoint is
    a branch node, else by two paths both ending at interior nodes.
    """
    from .sequencer import PathCertificate

    w, rep = simplify(g)
    if rep.removed_self_loops or rep.merged_parallel_classes:
        raise TransformError("basic sequences are defined for simple graphs")
    if any(isinstance(s, ExpandStep) for s in cert.steps):
        raise TransformError("input certificate must not contain expand steps")
    pending: deque[Step] = deque(cert.steps)
    held: dict[int, PathStep] = {}  # interior node of a held path -> the path
    out: list[Step] = []
    requeued = 0  # single edges sent back since a step was last applied
    try:
        sub = build_subdivision(w, cert.s0_edges)
        while pending:
            step = pending.popleft()
            if isinstance(step, PathStep):
                x, y = step.endpoints
                p = held.get(x) or held.get(y)
                if p is not None:
                    for v in p.inner:
                        del held[v]
                    pending.extendleft(reversed(_merge_steps(sub, p, step)))
                    continue
                if sub.parallel_count((x, y) if x <= y else (y, x)):
                    if len(step.nodes) > 2:
                        held.update(dict.fromkeys(step.inner, step))
                        continue
                    pending.append(step)
                    requeued += 1
                    if requeued >= len(pending):
                        raise TransformError("parallel-making single edges left at the end")
                    continue
                apply_path_inplace(sub, step)
            else:
                apply_expand_inplace(sub, step)
            out.append(step)
            requeued = 0
    except (StructureError, PathRejected, ExpandRejected, GraphUsageError) as exc:
        raise TransformError(f"certificate is invalid: {exc}") from None
    if held:
        raise TransformError("no later step attaches to a parallel-making path")
    return PathCertificate(tuple(cert.s0_edges), tuple(out), basic=True)


def _merge_steps(sub: Subdivision, p: PathStep, f: PathStep) -> list[Step]:
    w_end = f.nodes[0] if f.nodes[0] in p.inner else f.nodes[-1]
    if w_end not in p.inner:
        raise TransformError("attaching step does not end inside the moved path")
    v_end = f.nodes[-1] if w_end == f.nodes[0] else f.nodes[0]
    wi = p.nodes.index(w_end)
    half_front = p.nodes[: wi + 1][::-1]  # w .. first endpoint
    half_back = p.nodes[wi:]              # w .. last endpoint
    f_from_w = tuple(f.nodes[::-1] if w_end == f.nodes[-1] else f.nodes)

    if sub.real[v_end]:
        if v_end in p.endpoints:
            raise TransformError("attaching step ends on the moved path")
        arms = sorted(
            [tuple(half_front), tuple(half_back), tuple(f_from_w)],
            key=lambda arm: arm[-1],
        )
        return [ExpandStep(w_end, tuple(arms))]

    lid = sub.node_link[v_end]
    if lid is None:
        raise TransformError("attaching step endpoint left the subdivision")
    link_ends = set(sub.links[lid].endpoints)
    a_half, b_half = half_front, half_back
    if a_half[-1] in link_ends:
        a_half, b_half = b_half, a_half
    first = tuple(f_from_w[::-1]) + tuple(a_half[1:])  # v .. w .. a
    second = tuple(b_half)                             # w .. b
    return [PathStep(first), PathStep(second)]


def from_basic(cert):
    """Split each expand back into two paths (anchor-sorted arms: the two
    smallest anchors make the through-path, the third arm stays)."""
    from .sequencer import PathCertificate

    steps: list[Step] = []
    for step in cert.steps:
        if isinstance(step, PathStep):
            steps.append(step)
            continue
        a1, a2, a3 = step.arms
        through = tuple(a1[::-1]) + tuple(a2[1:])
        steps.append(PathStep(through))
        steps.append(PathStep(tuple(a3)))
    return PathCertificate(cert.s0_edges, tuple(steps), basic=False)


# ---------------------------------------------------------------------------
# contractions


def to_contractions(er: EdgeRep) -> ContractionSequence:
    """Transform the operation sequence into contractions ending at K4.

    Each subdivision contributes the contraction of one of its two parts:
    the part away from the shared endpoint when the two edges of a joint
    subdivision share one, otherwise the part whose far endpoint has the
    larger id.  Expands are first lowered to an edge addition plus a
    subdivision.  Records carry current labels under min-id merging.
    """
    if er.g0.n_live_nodes != 4:
        raise TransformError("operation sequence must start at K4")
    captured: dict[tuple[int, int], tuple[int, int]] = {}

    def on_split(k, e, f, pre):
        captured[(k, e)] = pre

    g = replay_edge_rep(er, on_split=on_split)

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while x in parent:  # path halving: x skips to its grandparent
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx == ry:
            raise TransformError("degenerate contraction; sequence invalid")
        if rx < ry:
            parent[ry] = rx
        else:
            parent[rx] = ry

    pairs: list[tuple[int, int]] = []

    def contract(x: int, far: int) -> None:
        pairs.append((find(x), find(far)))
        union(x, far)

    for k in range(len(er.ops) - 1, -1, -1):
        op = er.ops[k]
        if isinstance(op, OpA):
            continue
        if isinstance(op, OpB):
            p, q = captured[(k, op.split_edge)]
            contract(op.new_node, max(p, q))
        elif isinstance(op, OpC):
            p1, q1 = captured[(k, op.split_edge1)]
            p2, q2 = captured[(k, op.split_edge2)]
            shared = {p1, q1} & {p2, q2}
            if shared:
                (s,) = shared
                contract(op.new_node1, q1 if p1 == s else p1)
                contract(op.new_node2, q2 if p2 == s else p2)
            else:
                contract(op.new_node1, max(p1, q1))
                contract(op.new_node2, max(p2, q2))
        else:
            # Lowered form: add (a1, a2) as the first arm edge, then
            # subdivide it at the center and attach to the third anchor.
            a1, a2, _a3 = op.anchors
            contract(op.new_node, max(a1, a2))

    if len(pairs) != g.n_live_nodes - 4:
        raise TransformError("contraction count does not match node count")
    return ContractionSequence(tuple(pairs))
