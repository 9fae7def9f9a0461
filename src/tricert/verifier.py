"""Independent certificate and witness checker.

Certificates are checked by *removing* their steps in reverse order from
the graph: delete the step's one remaining live edge, validate the local
degree conditions that make the step a legal attachment, then smooth the
endpoints (the merged edge keeps the lower index so earlier steps still
find their edges).  What remains at the end must be a K4-subdivision.
The checker shares no search logic with the certificate producer and
treats its input as hostile; every failure is a reject value, not an
exception.

Cost.  Each consecutive node pair of a step is looked up once, scanning
only the incidence of its endpoint of lower degree, so resolving the step
edges costs the sum over the certificate's pairs of the smaller endpoint
degree: linear in the certificate when one end of every pair has bounded
degree (wheels, K_{3,n}), and O(a * m) for a graph of arboricity a in
general.  A reverse step then costs O(1) besides its path length: whether
the endpoints are adjacent is only asked when one of them is left with
degree 2, where the lookup scans two edges.

Basic mode is decided in the same pass.  Before step k is removed the
working graph is S_k with its degree-2 nodes smoothed away, so its edges
are the links of S_k.  A path step made two links parallel exactly when
both of its ends keep degree >= 3 once its edge is gone and another edge
still joins them.  A counter of live edges per node pair, kept only in
basic mode, answers that in O(1) even when both ends are hubs; expand
steps never make parallel links.

`transforms.path_to_edge` runs this same pass and records what each
removal kills and smooths, so a certificate converts to edge form exactly
when it verifies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import MultiGraph, connected_components, simplify, smooth_inplace
from .k4finder import Witness
from .subdivision import ExpandStep, PathStep


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = ""
    step: int = -1

    def __bool__(self) -> bool:
        return self.ok


ACCEPT = VerifyResult(True)


def _reject(reason: str, step: int = -1) -> VerifyResult:
    return VerifyResult(False, reason, step)


def verify_certificate(g_raw: MultiGraph, cert, basic_mode: bool = False) -> VerifyResult:
    """Check a construction-sequence certificate against a graph.

    Accepts exactly when the certificate proves the (simplified) graph
    3-connected; in basic mode additionally rejects any step that creates
    two links with the same endpoints at any intermediate stage.
    """
    w, _ = simplify(g_raw)
    return _reverse_pass(w, cert, basic_mode)


def _reverse_pass(
    w: MultiGraph, cert, basic_mode: bool = False, removals: list | None = None
) -> VerifyResult:
    """`verify_certificate` on a simplified graph, which the pass edits: on
    accept, `w` is left as the K4 residue.

    With `removals` a list, each removed step appends one record, last step
    first.  A path step records ``(e, ends, merges)``: its remaining edge,
    the ends stored for it before the kill, and one ``(node, e1, e2, far)``
    per smoothed endpoint in (first, last) order, where ``e1 < e2`` are the
    node's two edges, ``e1`` keeps the merged edge and ``far`` is the far
    end of ``e2``.  An expand step records its three arm edges in arm order.
    """
    if w.n_live_nodes < 4:
        return _reject("too_few_nodes")
    if w.min_degree() < 3:
        return _reject("min_degree")

    s0 = list(dict.fromkeys(cert.s0_edges))
    if len(s0) != len(cert.s0_edges):
        return _reject("s0_duplicate")
    used = [False] * len(w._edge_alive)
    for e in s0:
        if not w.edge_alive(e):
            return _reject("bad_s0_edge")
        used[e] = True

    step_edges: list[list[list[int]]] = []
    for k, step in enumerate(cert.steps):
        seqs = _step_sequences(step)
        if seqs is None:
            return _reject("bad_step", k)
        groups: list[list[int]] = []
        for seq in seqs:
            edges = []
            for u, v in zip(seq, seq[1:]):
                if not w.node_alive(u) or not w.node_alive(v):
                    return _reject("bad_path", k)
                e = w.edge_between(u, v)
                if e is None or used[e]:
                    return _reject("bad_path" if e is None else "overlap", k)
                used[e] = True
                edges.append(e)
            groups.append(edges)
        step_edges.append(groups)
    if used.count(True) != w.n_live_edges:
        return _reject("not_partition")

    pairs = Counter(_pair(*w.ends(e)) for e in w.live_edges()) if basic_mode else None
    for k in range(len(cert.steps) - 1, -1, -1):
        step = cert.steps[k]
        if isinstance(step, PathStep):
            res = _remove_path(w, step, step_edges[k][0], k, pairs, removals)
        else:
            res = _remove_expand(w, step, step_edges[k], k, removals)
        if res is not None:
            return res

    res = _check_residue(w, set(s0))
    return ACCEPT if res is None else res


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _step_sequences(step) -> list[tuple[int, ...]] | None:
    """Node sequences of a step, or None if malformed."""
    if isinstance(step, PathStep):
        seq = step.nodes
        if len(seq) < 2 or len(set(seq)) != len(seq):
            return None
        return [seq]
    if isinstance(step, ExpandStep):
        seen = {step.center}
        for arm in step.arms:
            if len(arm) < 2 or arm[0] != step.center or len(set(arm)) != len(arm):
                return None
            for v in arm[1:]:
                if v in seen:
                    return None
                seen.add(v)
        if len({arm[-1] for arm in step.arms}) != 3:
            return None
        return list(step.arms)
    return None


def _remove_path(
    wk: MultiGraph, step: PathStep, edges: list[int], k: int,
    pairs: Counter | None, removals: list | None,
) -> VerifyResult | None:
    """Remove a path step.  In basic mode `pairs` counts the live edges
    joining each pair of live nodes; a pair with a dead end is never asked
    again, so neither the smoothed node's edges nor an expand's arms are
    subtracted."""
    live = [e for e in edges if wk.edge_alive(e)]
    if len(live) != 1:
        return _reject("step_not_reduced", k)
    e = live[0]
    a, b = step.nodes[0], step.nodes[-1]
    ends = wk.ends(e)
    if set(ends) != {a, b}:
        return _reject("step_endpoints", k)
    wk.kill_edge(e)
    da, db = wk.degree(a), wk.degree(b)
    if da < 2 or db < 2:
        return _reject("dangling_endpoint", k)
    # The neighbors of each end left with degree 2, which is smoothed below.
    # Past cond2 the ends are not adjacent, so smoothing one leaves the
    # other's neighbors as they were.
    na = wk.neighbors(a) if da == 2 else None
    nb = wk.neighbors(b) if db == 2 else None
    if (na is not None and b in na) or (nb is not None and a in nb):
        return _reject("cond2", k)
    if na is not None and na == nb:
        return _reject("cond3", k)
    if pairs is not None:
        # An a-b edge left at an end of degree 2 was rejected as cond2, so
        # one left here joins two branch nodes: the step made it parallel.
        pair = _pair(a, b)
        pairs[pair] -= 1
        if pairs[pair]:
            return _reject("nonbasic_step", k)
    merges = [] if removals is not None else None
    for v, nbrs in ((a, na), (b, nb)):
        if nbrs is not None:
            if len(nbrs) != 2 or v in nbrs:
                return _reject("smooth_failed", k)
            e1, e2 = sorted(wk.incident(v))
            if merges is not None:
                merges.append((v, e1, e2, wk.other_end(e2, v)))
            smooth_inplace(wk, v, reuse_edge_id=e1)
            if pairs is not None:
                pairs[_pair(*nbrs)] += 1
    if removals is not None:
        removals.append((e, ends, merges))
    return None


def _remove_expand(
    wk: MultiGraph, step: ExpandStep, arm_edges, k: int, removals: list | None
) -> VerifyResult | None:
    c = step.center
    if not wk.node_alive(c) or wk.degree(c) != 3:
        return _reject("expand_center", k)
    killed = []
    for arm, edges in zip(step.arms, arm_edges):
        live = [e for e in edges if wk.edge_alive(e)]
        if len(live) != 1:
            return _reject("step_not_reduced", k)
        e = live[0]
        if set(wk.ends(e)) != {c, arm[-1]}:
            return _reject("step_endpoints", k)
        wk.kill_edge(e)
        killed.append(e)
    wk.kill_node(c)
    for anchor in step.anchors:
        if not wk.node_alive(anchor) or wk.degree(anchor) < 3:
            return _reject("expand_anchor", k)
    if removals is not None:
        removals.append(tuple(killed))
    return None


def _check_residue(wk: MultiGraph, s0: set[int]) -> VerifyResult | None:
    """The residue must be a K4-subdivision made of the initial edges:
    connected, four nodes of degree 3 and the rest of degree 2, and with
    the degree-2 nodes smoothed away, six edges on six distinct pairs.
    Smooths `wk` in place, but never after a full reverse pass: every node
    starts with degree >= 3, and each endpoint a removal leaves with degree
    2 is smoothed at once, so a residue that passes is K4 itself."""
    if any(e not in s0 for e in wk.live_edges()):
        return _reject("residue_extra_edges")
    deg2 = []
    n_deg3 = 0
    for v in wk.live_nodes():
        d = wk.degree(v)
        if d == 3:
            n_deg3 += 1
        elif d == 2:
            deg2.append(v)
        else:
            return _reject("residue_degrees")
    if n_deg3 != 4:
        return _reject("residue_degrees")
    if len(connected_components(wk)) != 1:
        return _reject("residue_disconnected")
    for v in deg2:
        nbrs = wk.neighbors(v)
        if len(nbrs) != 2 or v in nbrs:  # a link that closes into a loop
            return _reject("residue_not_k4")
        smooth_inplace(wk, v)
    if len({_pair(*wk.ends(e)) for e in wk.live_edges()}) != 6:
        return _reject("residue_not_k4")
    return None


def verify_witness(g_raw: MultiGraph, witness: Witness) -> bool:
    """Check refutation evidence against the original input.

    Deletion checks run on the simplified graph; parallel edges and
    self-loops cannot change any of the verdicts.
    """
    w, _ = simplify(g_raw)
    return _check_witness(w, witness)


def _check_witness(w: MultiGraph, witness: Witness) -> bool:
    """`verify_witness` on a graph that is already simplified."""
    kind = witness.kind
    if kind == "too_few_nodes":
        return w.n_live_nodes < 4
    if kind == "low_degree":
        (v,) = witness.nodes
        return w.node_alive(v) and w.degree(v) <= 2
    if kind == "disconnected":
        return len(connected_components(w)) > 1
    if kind == "cut_vertex":
        (v,) = witness.nodes
        if not w.node_alive(v):
            return False
        return _disconnects(w, (v,))
    if kind == "separation_pair":
        u, v = witness.nodes
        if u == v or not (w.node_alive(u) and w.node_alive(v)):
            return False
        return w.n_live_nodes > 3 and _disconnects(w, (u, v))
    return False


def _disconnects(w: MultiGraph, removed: tuple[int, ...]) -> bool:
    banned = set(removed)
    nodes = [v for v in w.live_nodes() if v not in banned]
    if len(nodes) < 2:
        return False
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        x = stack.pop()
        for y in w._inc[x].values():
            if y not in banned and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) != len(nodes)
