"""Conversions between certificate representations.

* path -> edge: the verifier's reverse pass removes the steps and
  records what each removal kills and smooths, and each record becomes one
  indexed operation; when an endpoint is smoothed, the merged edge keeps
  the lower of the two indices, which makes the output unique.  A
  certificate the verifier rejects gets no edge rep.
* edge -> path: the replay records every split it makes, and each split
  node keeps its two chain edges in a slot, as a link's interior node
  does in a subdivision; walking an op's new edge out through the slots
  recovers its step as a node sequence.
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

from .graph import GraphUsageError, MultiGraph, simplify
from .sequencer import PathCertificate
from .subdivision import (
    ExpandRejected,
    ExpandStep,
    PathRejected,
    PathStep,
    Step,
    StructureError,
    Subdivision,
    _chain,
    apply_expand_inplace,
    apply_path_inplace,
    build_subdivision,
)
from .verifier import _reverse_pass


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


def _split(g: MultiGraph, e: int, x: int, f: int, far: int, k: int) -> tuple[int, int, int, int, int]:
    """Subdivide edge e at new node x; the part toward `far` takes id f.
    Returns the split's record ``(e, x, f, p, far)``, where `p` is the end
    that e keeps."""
    if not g.edge_alive(e):
        raise ReplayError(f"op {k}: edge {e} is not alive")
    if g.edge_alive(f):
        raise ReplayError(f"op {k}: part id {f} already in use")
    p, q = g.ends(e)
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
    return e, x, f, p, q


def _add(g: MultiGraph, u: int, v: int, eid: int, k: int) -> None:
    if g.edge_alive(eid):
        raise ReplayError(f"op {k}: edge id {eid} already in use")
    if not (g.node_alive(u) and g.node_alive(v)):
        raise ReplayError(f"op {k}: dead endpoint for edge {eid}")
    if u == v:
        raise ReplayError(f"op {k}: edge {eid} would be a self-loop")
    g.add_edge(u, v, eid=eid)


def replay_edge_rep(er: EdgeRep) -> MultiGraph:
    """Apply the operations to a copy of g0 and return the result."""
    return _replay(er)[0]


def _replay(er: EdgeRep) -> tuple[MultiGraph, list[tuple[int, int, int, int, int]]]:
    """`replay_edge_rep`, and the record `_split` returns for each edge an
    op subdivides, in op order (an `OpC` adds its first split, then its
    second).  These records are the one account of which edges the ops
    split: `edge_to_path` and `to_contractions` both read them."""
    g = er.g0.copy()
    splits: list[tuple[int, int, int, int, int]] = []
    for k, op in enumerate(er.ops):
        if isinstance(op, OpA):
            _add(g, op.u, op.v, op.new_edge, k)
        elif isinstance(op, OpB):
            rec = _split(g, op.split_edge, op.new_node, op.part_edge, op.part_far, k)
            splits.append(rec)
            if op.other_end in rec[3:]:
                raise ReplayError(f"op {k}: attachment endpoint lies on the split edge")
            _add(g, op.new_node, op.other_end, op.new_edge, k)
        elif isinstance(op, OpC):
            if op.split_edge1 == op.split_edge2:
                raise ReplayError(f"op {k}: the two split edges must differ")
            if not (g.edge_alive(op.split_edge1) and g.edge_alive(op.split_edge2)):
                raise ReplayError(f"op {k}: split edge is not alive")
            if set(g.ends(op.split_edge1)) == set(g.ends(op.split_edge2)):
                raise ReplayError(f"op {k}: the two split edges are parallel")
            splits.append(_split(g, op.split_edge1, op.new_node1, op.part_edge1, op.part_far1, k))
            splits.append(_split(g, op.split_edge2, op.new_node2, op.part_edge2, op.part_far2, k))
            _add(g, op.new_node1, op.new_node2, op.new_edge, k)
        elif isinstance(op, OpD):
            if len(set(op.anchors)) != 3 or len(set(op.new_edges)) != 3:
                raise ReplayError(f"op {k}: expand needs three distinct anchors and edges")
            try:
                g.ensure_node(op.new_node)
            except GraphUsageError:
                raise ReplayError(f"op {k}: node id {op.new_node} already in use") from None
            for anchor, eid in zip(op.anchors, op.new_edges):
                _add(g, op.new_node, anchor, eid, k)
        else:
            raise ReplayError(f"op {k}: unknown operation {op!r}")
    return g, splits


def _invalid(res) -> TransformError:
    """The error for a certificate the verifier rejected with `res`."""
    where = f" at step {res.step}" if res.step >= 0 else ""
    return TransformError(f"certificate is invalid: {res.reason}{where}")


# ---------------------------------------------------------------------------
# path -> edge


def path_to_edge(g: MultiGraph, cert) -> EdgeRep:
    """Remove the steps in reverse order, emitting one indexed operation per
    step.  The result is the unique one under the lowest-index rule.

    The removals are the verifier's own pass, which records what each one
    kills and smooths, so this raises `TransformError` exactly when
    `verify_certificate(g, cert)` rejects.  On accept the pass has left
    the simplified graph as the K4 residue, which becomes `g0`.
    """
    w, index = simplify(g)
    return _path_to_edge(w, index, cert)


def _path_to_edge(w: MultiGraph, index: dict[tuple[int, int], int], cert) -> EdgeRep:
    """`path_to_edge` on a simple graph and its pair index, as the
    parsers and `simplify` return them.  `w` becomes the result's `g0`."""
    removals: list = []
    res = _reverse_pass(w, index, cert, removals=removals)
    if not res:
        raise _invalid(res)
    ops: list[EdgeOp] = []
    for step, rec in zip(reversed(cert.steps), removals):
        if isinstance(step, ExpandStep):
            ops.append(OpD(step.center, step.anchors, rec))
            continue
        e, (u, v), merges = rec
        if not merges:
            ops.append(OpA(u, v, e))
        elif len(merges) == 1:
            ((x, kept, part, far),) = merges
            a, b = step.endpoints
            ops.append(OpB(kept, x, part, far, b if x == a else a, e))
        else:
            (a, ka, pa, fa), (b, kb, pb, fb) = merges
            ops.append(OpC(ka, a, pa, fa, kb, b, pb, fb, e))
    return EdgeRep(g0=w, ops=ops[::-1])


# ---------------------------------------------------------------------------
# edge -> path


def edge_to_path(er: EdgeRep):
    """Replay the operations, then walk each added edge's chain of
    subdivided parts back into the step it encodes."""
    return _edge_to_path_replayed(er)[0]


def _edge_to_path_replayed(er: EdgeRep):
    """`edge_to_path`'s certificate together with the replayed graph its
    node ids refer to, from one replay.

    Each split node gets a slot holding its two chain edges.  A later
    split toward a node whose slot holds the split edge hands that node
    the new part, so the slot swaps the old id for the new one.
    `_chain` then walks each chain through the slots up to its ends,
    whose slots are None or hold another chain's edges.  A replayed chain
    is a path between the ends its edge had when it was added."""
    g, splits = _replay(er)
    ends = g._ends
    slots: list[tuple[int, int] | None] = [None] * len(g._node_alive)
    s0_edges = set(er.g0.live_edges())
    for e, x, f, _, far in splits:
        s = slots[far]
        if s is not None and e in s:
            slots[far] = (f, s[1]) if s[0] == e else (s[0], f)
        slots[x] = (e, f)
        if e in s0_edges:
            s0_edges.add(f)

    def chain(e: int, start: int) -> tuple[int, ...]:
        """The nodes of the chain through edge e, from its end `start`."""
        seq = _chain(ends, slots, e)[0]
        return tuple(seq if seq[0] == start else seq[::-1])

    steps: list[Step] = []
    for op in er.ops:
        if isinstance(op, OpD):
            arms = sorted((chain(e, op.new_node) for e in op.new_edges), key=lambda arm: arm[-1])
            steps.append(ExpandStep(op.new_node, tuple(arms)))
        elif isinstance(op, OpA):
            steps.append(PathStep(chain(op.new_edge, min(op.u, op.v))))
        else:
            start = op.new_node if isinstance(op, OpB) else op.new_node1
            steps.append(PathStep(chain(op.new_edge, start)))
    cert = PathCertificate(s0_edges=tuple(sorted(s0_edges)), steps=tuple(steps))
    return cert, g


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

    The certificate is read on the simplified graph, as `certify` and
    `verify_certificate` read it.  Raises `TransformError` exactly when
    `verify_certificate` rejects: S0 must be a subdivision of K4, every
    step must apply, the steps must cover every edge once, which the
    forward pass alone does not check, and no node may keep degree 2.
    """
    w, index = simplify(g)
    return _to_basic(w, index, cert)


def _to_basic(w: MultiGraph, index: dict[tuple[int, int], int], cert):
    """`to_basic` on a simple graph and its pair index, as the parsers and
    `simplify` return them; `w` is only read.

    Once every node is real and nothing is held, every link is one edge.
    If only one-edge steps are left then (on a dense graph, the leftover
    edges `certify` appends), each needs only its edge to exist and lie
    outside S, and `_append_single_edges` checks them in one flat pass,
    with the result and the errors, in their order, of the general loop.
    """
    if any(isinstance(s, ExpandStep) for s in cert.steps):
        raise TransformError("input certificate must not contain expand steps")
    pending: deque[Step] = deque(cert.steps)
    held: dict[int, PathStep] = {}  # interior node of a held path -> the path
    out: list[Step] = []
    requeued = 0  # single edges sent back since a step was last applied
    tail_checked = False
    try:
        sub = build_subdivision(w, cert.s0_edges, index)
        n_live = w.n_live_nodes
        while pending:
            # Asked once, when every node first is real with nothing held:
            # a longer step left then can only end in an error, so the
            # general loop may as well keep the rest.
            if not tail_checked and not held and not sub.inner_count and sub.n_nodes == n_live:
                tail_checked = True
                if all(isinstance(s, PathStep) and len(s.nodes) == 2 for s in pending):
                    _append_single_edges(sub, pending, out)
                    break
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
    # S holds distinct edges (build_subdivision refuses a repeated S0 id and
    # each step adds edges outside S) and every step was applied, so S has
    # this many edges, and they are all of them exactly when it is m.
    if len(cert.s0_edges) + sum(len(s.nodes) - 1 for s in cert.steps) != w.n_live_edges:
        raise TransformError("certificate is invalid: S0 and the steps do not partition the edges")
    # S is now the whole graph; the growth loop's stopping rule says every
    # live node is a branch node of S, so no node has degree below 3.
    if sub.inner_count or sub.n_nodes != n_live:
        raise TransformError("certificate is invalid: a node has degree below 3")
    return PathCertificate(tuple(cert.s0_edges), tuple(out))


def _append_single_edges(sub: Subdivision, pending, out: list[Step]) -> None:
    """`_to_basic`'s loop on one-edge steps once every live node of the
    host is a real node of `sub` and nothing is held.

    Every link is then one edge, so a step is parallel-making exactly when
    its edge is already in S, and it stays so: the general loop sends it
    to the back until nothing else is left, and only then gives up, after
    any error of a later step.  Any other step either adds its edge to S,
    which is all that applying it would do, or is no valid attachment, and
    `apply_path_inplace` raises what it raises in the general loop.  Only
    `sub.in_edges` is kept up to date."""
    lookup, in_edges = sub.index.get, sub.in_edges
    left = False
    for step in pending:
        x, y = step.nodes
        e = lookup((x, y) if x <= y else (y, x))
        if e is None:
            # No host edge joins x and y: this raises the general loop's error.
            apply_path_inplace(sub, step)
            raise AssertionError(f"{step} was applied without a host edge")
        if in_edges[e]:
            left = True
            continue
        in_edges[e] = True
        out.append(step)
    if left:
        raise TransformError("parallel-making single edges left at the end")


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
    link_ends = set(sub.links[lid].pair)
    a_half, b_half = half_front, half_back
    if a_half[-1] in link_ends:
        a_half, b_half = b_half, a_half
    first = tuple(f_from_w[::-1]) + tuple(a_half[1:])  # v .. w .. a
    second = tuple(b_half)                             # w .. b
    return [PathStep(first), PathStep(second)]


def from_basic(cert):
    """Split each expand back into two paths (anchor-sorted arms: the two
    smallest anchors make the through-path, the third arm stays)."""
    steps: list[Step] = []
    for step in cert.steps:
        if isinstance(step, PathStep):
            steps.append(step)
            continue
        a1, a2, a3 = step.arms
        through = tuple(a1[::-1]) + tuple(a2[1:])
        steps.append(PathStep(through))
        steps.append(PathStep(tuple(a3)))
    return PathCertificate(cert.s0_edges, tuple(steps))


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
    g0 = er.g0
    # Without self-loops, four nodes and six edges on six pairs are K4.
    pairs = {frozenset(g0.ends(e)) for e in g0.live_edges()}
    if g0.n_live_nodes != 4 or g0.n_live_edges != 6 or len(pairs) != 6:
        raise TransformError("operation sequence must start at K4")
    g, splits = _replay(er)

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

    for op in reversed(er.ops):
        if isinstance(op, OpA):
            continue
        if isinstance(op, OpB):
            _, _, _, p, q = splits.pop()
            contract(op.new_node, max(p, q))
        elif isinstance(op, OpC):
            _, _, _, p2, q2 = splits.pop()
            _, _, _, p1, q1 = splits.pop()
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
