"""Independent certificate and witness checker.

Certificates are checked by *removing* their steps in reverse order from
the graph: delete the step's one remaining live edge, validate the local
degree conditions that make the step a legal attachment, then smooth the
endpoints (the merged edge keeps the lower index so earlier steps still
find their edges).  What remains at the end must be a K4-subdivision.
The checker shares no search logic with the certificate producer and
treats its input as hostile; every failure is a reject value, not an
exception.  What it does share is one plain pass over the graph, the
connectivity walk `graph._disconnects`, which answers the producer's
connectivity gate as well as the residue and witness checks here.

Cost.  The parsers and `simplify` hand over the pair index, a dict from
each node pair to the one edge joining it, so each consecutive node pair
of a step is one dict lookup, and a reverse step costs O(1) besides its
path length: an endpoint left with degree 2 is read from its two
incidence entries.  The whole check is O(n + m) on every graph, hubs and
dense graphs included.
A path removal edits the graph's incidences, ends, liveness flags and
live counts in place, through none of `MultiGraph`'s checked methods.
Its own checks keep what those would check: the step's one live edge is
stored with the step's ends; an end it smooths has two edges to two
distinct far ends, neither of them the step's other end; and the graph
stays simple.
The edits leave each incidence in the order the frozen reference pass,
`tests/helpers.py::reference_reverse_pass`, leaves it through `kill_edge`
and its checked smoothing helper, so the residue is the same `MultiGraph`.
The CLI hands the parsed graph and its index to `_reverse_pass`.

The trailing run of one-edge path steps, the leftover edges `certify`
appends once the sparsified graph is grown (most steps of a dense graph's
certificate), skips that general removal where it can.  Its forward
lookups run in one flat loop after the other steps'.  The reverse pass
then removes it from its end, one edge per step, while both ends of the
step have degree > 3 before the removal, and hands the rest of the run to
the general removal at the first step where one end does not.  Inside
that stretch no check of the general removal can fire: each run edge was
looked up live and unused, no node has been smoothed, so the edge is
live and still joins the step's ends; both ends keep degree >= 3, so
none dangles or is smoothed (no `dangling_endpoint`, `cond2`, `cond3`
or `smooth_failed`); and the graph is still the simple input minus
edges, so the step's edge was its pair's only one (no `nonbasic_step`).
Degrees only fall, so the first end of degree <= 3 ends the stretch.
Basic mode's pair counter and the removal records are kept as the
general removal keeps them.

Basic mode is decided in the same pass.  Before step k is removed the
working graph is S_k with its degree-2 nodes smoothed away, so its edges
are the links of S_k.  A path step made two links parallel exactly when
both of its ends keep degree >= 3 once its edge is gone and another edge
still joins them.  A counter of live edges per node pair, kept only in
basic mode and started from the pair index's keys, answers that in O(1)
even when both ends are hubs; expand steps never make parallel links.

`transforms.path_to_edge` runs this same pass and records what each
removal kills and smooths, so a certificate converts to edge form exactly
when it verifies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import MultiGraph, _disconnects, simplify
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
    w, index = simplify(g_raw)
    return _reverse_pass(w, index, cert, basic_mode)


def _reverse_pass(
    w: MultiGraph, index: dict[tuple[int, int], int], cert,
    basic_mode: bool = False, removals: list | None = None,
) -> VerifyResult:
    """`verify_certificate` on a simple graph and its pair index, as the
    parsers and `simplify` return them.  The pass consumes `w`: on accept,
    it is left as the K4 residue.  `index` is only read.

    With `removals` a list, each removed step appends one record, last step
    first.  A path step records ``(e, ends, merges)``: its remaining edge,
    the ends stored for it before the kill, and one ``(node, e1, e2, far)``
    per smoothed endpoint in (first, last) order, where ``e1 < e2`` are the
    node's two edges, ``e1`` keeps the merged edge and ``far`` is the far
    end of ``e2``.  An expand step records its three arm edges in arm order.

    The trailing run of one-edge path steps is looked up in its own loop
    after the other steps, and removed from its end without `_remove_path`
    while both ends of a step have degree > 3; the rest of it goes through
    `_remove_path` (module docstring, "Cost.").  Reasons, step indices,
    records and the graph left behind are those of the general removal.
    """
    if w.n_live_nodes < 4:
        return _reject("too_few_nodes")
    if min((len(inc) for inc, a in zip(w._inc, w._node_alive) if a), default=0) < 3:
        return _reject("min_degree")

    s0 = list(dict.fromkeys(cert.s0_edges))
    if len(s0) != len(cert.s0_edges):
        return _reject("s0_duplicate")
    used = [False] * len(w._edge_alive)
    for e in s0:
        if not w.edge_alive(e):
            return _reject("bad_s0_edge")
        used[e] = True

    # Every key of `index` is a pair of live nodes, so a dead, negative or
    # out-of-range id misses it like a pair with no edge.
    lookup = index.get
    steps = cert.steps
    t = _trailing_run(steps)
    step_edges: list[list[list[int]]] = []
    for k in range(t):
        step = steps[k]
        if isinstance(step, PathStep):
            seqs = (step.nodes,) if 1 < len(step.nodes) == len(set(step.nodes)) else None
        else:
            seqs = _expand_arms(step)
        if seqs is None:
            return _reject("bad_step", k)
        groups: list[list[int]] = []
        for seq in seqs:
            edges = []
            for u, v in zip(seq, seq[1:]):
                e = lookup((u, v) if u < v else (v, u))
                if e is None or used[e]:
                    return _reject("bad_path" if e is None else "overlap", k)
                used[e] = True
                edges.append(e)
            groups.append(edges)
        step_edges.append(groups)
    # The trailing run: the one edge of each step, in step order.
    run_edges: list[int] = []
    for k in range(t, len(steps)):
        u, v = steps[k].nodes
        if u == v:
            return _reject("bad_step", k)
        e = lookup((u, v) if u < v else (v, u))
        if e is None or used[e]:
            return _reject("bad_path" if e is None else "overlap", k)
        used[e] = True
        run_edges.append(e)
    if used.count(True) != w.n_live_edges:
        return _reject("not_partition")

    # The graph is simple, so each pair of the index starts with one edge.
    pairs = Counter(index.keys()) if basic_mode else None
    # The run from its end, while both ends of a step keep degree >= 3
    # once its edge is gone (module docstring, "Cost.").
    alive, ends, inc = w._edge_alive, w._ends, w._inc
    rest = len(steps)  # steps[:rest] are left for the general removal
    for e in reversed(run_edges):
        pq = ends[e]
        p, q = pq
        ip, iq = inc[p], inc[q]
        if len(ip) <= 3 or len(iq) <= 3:
            break
        alive[e] = False
        del ip[e], iq[e]
        rest -= 1
        if pairs is not None:
            pairs[(p, q) if p < q else (q, p)] -= 1
        if removals is not None:
            removals.append((e, pq, []))
    w._n_edges -= len(steps) - rest

    for k in range(rest - 1, -1, -1):
        step = steps[k]
        if k >= t:
            res = _remove_path(w, step, [run_edges[k - t]], k, pairs, removals)
        elif isinstance(step, PathStep):
            res = _remove_path(w, step, step_edges[k][0], k, pairs, removals)
        else:
            res = _remove_expand(w, step, step_edges[k], k, removals)
        if res is not None:
            return res

    res = _check_residue(w, set(s0))
    return ACCEPT if res is None else res


def _trailing_run(steps) -> int:
    """Where the maximal trailing run of one-edge path steps starts."""
    t = len(steps)
    while t and isinstance(steps[t - 1], PathStep) and len(steps[t - 1].nodes) == 2:
        t -= 1
    return t


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _expand_arms(step) -> list[tuple[int, ...]] | None:
    """The arms of an expand step, or None if `step` is no well-formed
    expand step."""
    if not isinstance(step, ExpandStep):
        return None
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


def _remove_path(
    wk: MultiGraph, step: PathStep, edges: list[int], k: int,
    pairs: Counter | None, removals: list | None,
) -> VerifyResult | None:
    """Remove a path step.  In basic mode `pairs` counts the live edges
    joining each pair of live nodes; a pair with a dead end is never asked
    again, so neither the smoothed node's edges nor an expand's arms are
    subtracted.

    The edits go straight to `wk`'s fields; the checks before them are
    what the reference pass's checked edits check (module docstring,
    "Cost.").  A smoothing whose two edges share their far end would make
    a self-loop, and `smooth_failed` rejects it first."""
    alive = wk._edge_alive
    live = [e for e in edges if alive[e]]
    if len(live) != 1:
        return _reject("step_not_reduced", k)
    e = live[0]
    nodes = step.nodes
    a, b = nodes[0], nodes[-1]
    ends = wk._ends[e]
    if ends != (a, b) and ends != (b, a):
        return _reject("step_endpoints", k)
    inc = wk._inc
    ia, ib = inc[a], inc[b]
    alive[e] = False
    del ia[e], ib[e]
    wk._n_edges -= 1
    if len(ia) < 2 or len(ib) < 2:
        return _reject("dangling_endpoint", k)
    # Each end left with degree 2 is smoothed below: its two edges as
    # (lower id, far end, higher id, far end).  Past cond2 the ends are not
    # adjacent, so smoothing one leaves the other's incidence as it was.
    ma = _two_edges(ia) if len(ia) == 2 else None
    mb = _two_edges(ib) if len(ib) == 2 else None
    if (ma is not None and b in (ma[1], ma[3])) or (mb is not None and a in (mb[1], mb[3])):
        return _reject("cond2", k)
    if ma is not None and mb is not None and (
        (ma[1] == mb[1] and ma[3] == mb[3]) or (ma[1] == mb[3] and ma[3] == mb[1])
    ):
        return _reject("cond3", k)
    if pairs is not None:
        # An a-b edge left at an end of degree 2 was rejected as cond2, so
        # one left here joins two branch nodes: the step made it parallel.
        pair = _pair(a, b)
        pairs[pair] -= 1
        if pairs[pair]:
            return _reject("nonbasic_step", k)
    if (ma is not None and ma[1] == ma[3]) or (mb is not None and mb[1] == mb[3]):
        return _reject("smooth_failed", k)
    merges = [] if removals is not None else None
    for v, m in ((a, ma), (b, mb)):
        if m is not None:
            # Smooth v into e1: e1 moves to the end of p's incidence, e2
            # leaves q's and e1 is appended there, and the dead e2 keeps
            # its last ends.
            e1, p, e2, q = m
            if merges is not None:
                merges.append((v, e1, e2, q))
            ip, iq = inc[p], inc[q]
            del ip[e1], iq[e2]
            ip[e1] = q
            iq[e1] = p
            inc[v].clear()
            wk._ends[e1] = (p, q)
            alive[e2] = False
            wk._node_alive[v] = False
            wk._n_nodes -= 1
            wk._n_edges -= 1
            if pairs is not None:
                pairs[_pair(p, q)] += 1
    if removals is not None:
        removals.append((e, ends, merges))
    return None


def _two_edges(inc: dict[int, int]) -> tuple[int, int, int, int]:
    """The two entries of a degree-2 incidence, lower edge id first."""
    (e1, p), (e2, q) = inc.items()
    return (e1, p, e2, q) if e1 < e2 else (e2, q, e1, p)


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
    """The residue must be K4 made of the initial edges: connected, four
    nodes of degree 3 and six edges on six distinct pairs.  A subdivided
    K4 cannot remain after a full reverse pass: every node starts with
    degree >= 3, and each endpoint a removal leaves with degree 2 is
    smoothed at once, so a node of any other degree rejects."""
    if any(e not in s0 for e in wk.live_edges()):
        return _reject("residue_extra_edges")
    if wk.n_live_nodes != 4 or any(wk.degree(v) != 3 for v in wk.live_nodes()):
        return _reject("residue_degrees")
    if _disconnects(wk):
        return _reject("residue_disconnected")
    if len({_pair(*wk.ends(e)) for e in wk.live_edges()}) != 6:
        return _reject("residue_not_k4")
    return None


def verify_witness(g: MultiGraph, witness: Witness) -> bool:
    """Check refutation evidence against the graph as given, which is only
    read.  Parallel edges change no verdict: a degree counts distinct
    neighbours.  A witness with the wrong number of nodes for its kind is
    false."""
    kind, nodes = witness.kind, witness.nodes
    if kind == "too_few_nodes":
        return not nodes and g.n_live_nodes < 4
    if kind == "disconnected":
        return not nodes and _disconnects(g)
    if kind == "low_degree":
        return len(nodes) == 1 and g.node_alive(nodes[0]) and len(g.neighbors(nodes[0])) <= 2
    if kind == "cut_vertex":
        return len(nodes) == 1 and g.node_alive(nodes[0]) and _disconnects(g, nodes)
    if kind == "separation_pair":
        if len(nodes) != 2:
            return False
        u, v = nodes
        if u == v or not (g.node_alive(u) and g.node_alive(v)):
            return False
        return g.n_live_nodes > 3 and _disconnects(g, nodes)
    return False
