import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricert import (
    GraphUsageError,
    MultiGraph,
    ParseError,
    parse_graph,
    serialize_graph,
    simplify,
    sparsify3,
)

import tricert.graph
from tricert.graph import _disconnects, _parse

from helpers import K4_EDGES, components_without, k4, multigraph, smooth_inplace


def _state(g: MultiGraph):
    return (g._ends[:], g._edge_alive[:], [list(inc.items()) for inc in g._inc], g.n_live_edges)


def test_parse_triangle():
    g = parse_graph("1 2\n2 3\n3 1")
    assert g.n_live_nodes == 3
    assert g.n_live_edges == 3


def test_parse_dimacs_k4():
    text = "c complete graph\np edge 4 6\n" + "".join(
        f"e {u} {v}\n" for u, v in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )
    g = parse_graph(text, "dimacs")
    assert g.n_live_nodes == 4
    assert g.n_live_edges == 6
    assert all(g.degree(v) == 3 for v in g.live_nodes())


def test_parse_keeps_duplicates():
    # A repeated line keeps its edge id and ends, but its edge is dead.
    g = parse_graph("1 2\n1 2")
    assert g.n_live_nodes == 2
    assert g.n_live_edges == 1
    assert (g.ends(1), g.edge_alive(1), g.degree(0)) == ((0, 1), False, 1)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("1 2\n1 two\n")
    with pytest.raises(ParseError):
        parse_graph("p edge 2 1\ne 1 5\n", "dimacs")


def test_parse_rejects_undecodable_bytes_and_huge_dimacs_sizes():
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_graph(b"\xff 1 2")
    assert parse_graph(b"1 2\r\n2 3\r\n").n_live_edges == 2
    # Rejected before the node list would be allocated.
    with pytest.raises(ParseError, match="limit"):
        parse_graph("p edge 3000000000 0\n", "dimacs")


def test_parse_comments_and_blanks():
    g = parse_graph("# header\n\n1 2  # trailing\n2 3\n")
    assert g.n_live_edges == 2


def _format_by_first_data_line(text: str) -> str:
    """The reference: the format check the command line ran over its own
    split of the text before the parse made it."""
    fmt = "edge-list"
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.split()[0] in ("p", "c"):
            fmt = "dimacs"
        break
    return fmt


# Every line break `str.splitlines` knows.  `_LINES` and the alphabet add
# "\x1f" and "\xa0", which `strip` and `split` take as whitespace but which
# end no line.
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_LINES = ["", " ", "\t", "\xa0", "\x1f", "#", "# p", " #c", "p", "c", " c ", "c\tK4", "c\xa0x",
          "p edge 4 6", "cp", "pc", "#\x85p", "e 1 2", "0 1", "1 2 # c", "x"]


@st.composite
def format_texts(draw):
    if draw(st.booleans()):
        return draw(st.text(alphabet="".join(_BREAKS) + " \t\x1f\xa0#pce01", max_size=24))
    lines = draw(st.lists(st.sampled_from(_LINES), max_size=6))
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + br for line, br in zip(lines, breaks))[: draw(st.integers(0, 60))]


@settings(max_examples=300)
@given(format_texts())
def test_parse_tells_the_format_from_its_own_split(text):
    # With no format given, `_parse` picks the parser the reference picks
    # and hands it the lines of the one split it makes.
    with mock.patch.object(tricert.graph, "_parse_edge_list", lambda lines: ("edge-list", lines)), \
            mock.patch.object(tricert.graph, "_parse_dimacs", lambda lines: ("dimacs", lines)):
        assert _parse(text) == (_format_by_first_data_line(text), text.splitlines())


def test_serialize_sorted_with_labels():
    g = parse_graph("7 3\n3 5\n5 7\n")
    assert serialize_graph(g) == "3 5\n3 7\n5 7\n"


def test_simplify_k4_noop():
    g2, index = simplify(k4())
    assert g2.live_edges() == list(range(6))
    assert index == {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}


def test_simplify_merges_parallel():
    g = multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
    g2, index = simplify(g)
    # The lowest id of the doubled pair stays; the other is dead.
    assert g2.live_edges() == [0, 1, 2]
    assert not g2.edge_alive(3)
    assert index == {(0, 1): 0, (1, 2): 1, (0, 2): 2}
    # g itself keeps its parallel edge.
    assert (g.edge_alive(3), g.n_live_edges, g.degree(0)) == (True, 4, 3)


def test_simplify_drops_self_loop():
    # A loop pair keeps its id and ends but is dead before simplify runs.
    g = MultiGraph.from_edges(1, [(0, 0)])
    assert (g.n_live_edges, g.ends(0), g.degree(0), g._inc[0]) == (0, (0, 0), 0, {})
    assert not g.edge_alive(0)
    g2, index = simplify(g)
    assert g2.n_live_edges == 0
    assert g2.n_live_nodes == 1
    assert not g2.edge_alive(0)
    assert g2.degree(0) == 0
    assert index == {}


def test_add_edge_refuses_a_loop_changing_nothing():
    g = k4()
    before = _state(g)
    for eid in (None, 3, 10):
        with pytest.raises(GraphUsageError, match="self-loop"):
            g.add_edge(2, 2, eid=eid)
        assert _state(g) == before


@st.composite
def looped_texts(draw):
    """An edge-list or DIMACS text with at least one loop line and at least
    one line that repeats an earlier pair, in either order, and the pair of
    0-based node numbers that each of its lines names."""
    n = draw(st.integers(min_value=2, max_value=8))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=16))
    u, v = draw(st.tuples(node, node).filter(lambda p: p[0] != p[1]))
    at = draw(st.integers(0, len(pairs)))
    pairs[at:at] = [(u, v), *draw(st.lists(st.just((u, v)) | st.just((v, u)), min_size=1, max_size=3))]
    for v in draw(st.lists(node, min_size=1, max_size=4)):
        pairs.insert(draw(st.integers(0, len(pairs))), (v, v))
    if draw(st.booleans()):
        return "dimacs", f"p edge {n} {len(pairs)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs), pairs
    return "edge-list", "".join(f"{3 * u + 2} {3 * v + 2}\n" for u, v in pairs), pairs


@settings(max_examples=100)
@given(looped_texts())
def test_loop_lines_are_dead_from_the_parse(case):
    fmt, text, pairs = case
    g, index = _parse(text, fmt)
    ids = g.label_to_id()
    label = (lambda x: x + 1) if fmt == "dimacs" else (lambda x: 3 * x + 2)
    ends = [(ids[label(u)], ids[label(v)]) for u, v in pairs]
    # Every line keeps its id and ends.  A loop line's edge, and the edge
    # of a line whose pair an earlier line joins, is dead and no incidence
    # holds it: the lowest id of each pair no loop line names stays live.
    lowest: dict[tuple[int, int], int] = {}
    for e, (u, v) in enumerate(ends):
        if u != v:
            lowest.setdefault((min(u, v), max(u, v)), e)
    assert [g.ends(e) for e in range(len(pairs))] == ends
    assert g.live_edges() == sorted(lowest.values())
    assert sorted(e for inc in g._inc for e in inc) == sorted(2 * g.live_edges())
    assert g.n_live_edges == len(g.live_edges())
    for v in g.live_nodes():
        assert g.degree(v) == len(g._inc[v])
    # The parse returns the pair index, and simplify finds nothing to merge.
    assert index == lowest
    g_s, index_s = simplify(g)
    assert index_s == lowest
    assert g_s.live_edges() == g.live_edges()


@settings(max_examples=100)
@given(looped_texts())
def test_parse_matches_a_line_by_line_build(case):
    # The reference: add_node per label in sorted order, add_edge per line
    # with the line's id, loop lines skipped, then simplify.  The parsed
    # graph must match it field by field.
    fmt, text, pairs = case
    g, index = _parse(text, fmt)
    if fmt == "dimacs":
        labels = range(1, int(text.split()[2]) + 1)  # "p edge n m"
    else:
        labels = sorted({3 * x + 2 for p in pairs for x in p})
    ref = MultiGraph()
    for lab in labels:
        ref.add_node(lab)
    ids = ref.label_to_id()
    label = (lambda x: x + 1) if fmt == "dimacs" else (lambda x: 3 * x + 2)
    for e, (u, v) in enumerate(pairs):
        if u != v:
            ref.add_edge(ids[label(u)], ids[label(v)], eid=e)
    ref, ref_index = simplify(ref)
    m = len(pairs)
    assert g.labels == ref.labels
    assert g._node_alive == ref._node_alive
    assert (g.n_live_nodes, g.n_live_edges) == (ref.n_live_nodes, ref.n_live_edges)
    assert [g._ends[e] for e in range(m) if pairs[e][0] != pairs[e][1]] == [e for e in ref._ends if e is not None]
    assert g._edge_alive == ref._edge_alive + [False] * (m - len(ref._edge_alive))
    assert [list(inc.items()) for inc in g._inc] == [list(inc.items()) for inc in ref._inc]
    assert index == ref_index


def test_smooth_path():
    g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    e = smooth_inplace(g, 1)
    assert g.n_live_nodes == 2
    assert g.edge_between(0, 2) == e


def _refuses_to_smooth(g, v):
    before = [(e, g.ends(e)) for e in g.live_edges()], g.live_nodes()
    with pytest.raises(GraphUsageError):
        smooth_inplace(g, v)
    return before == ([(e, g.ends(e)) for e in g.live_edges()], g.live_nodes())


def test_smooth_refuses_degree3():
    assert _refuses_to_smooth(k4(), 0)
    # A loop pair is dead, so it adds nothing to a degree: node 0 has
    # degree 1 and is refused.
    g = MultiGraph.from_edges(2, [(0, 0), (0, 1)])
    assert g.degree(0) == 1
    assert _refuses_to_smooth(g, 0)


def test_smooth_refuses_parallel_pair():
    assert _refuses_to_smooth(multigraph(2, [(0, 1), (0, 1)]), 0)


def test_smooth_dead_node_raises():
    g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    smooth_inplace(g, 1)
    with pytest.raises(GraphUsageError):
        smooth_inplace(g, 1)


def test_components():
    assert not _disconnects(k4())
    assert not _disconnects(k4(), (0, 1))
    two = MultiGraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert _disconnects(two)
    assert not _disconnects(two, (3, 4, 5))
    assert not _disconnects(MultiGraph())
    path = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    assert _disconnects(path, (1,))
    path.kill_edge(1)
    path.kill_node(2)
    assert not _disconnects(path)


@st.composite
def multigraphs(draw):
    """A graph on at most 8 nodes whose repeated pairs are live parallel
    edges, as only `add_edge` builds them."""
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0, max_value=16))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    ]
    return multigraph(n, [(u, v) for u, v in edges if u != v])


@settings(max_examples=60)
@given(multigraphs())
def test_disconnects_matches_reference_components(g):
    # Parallel edges and isolated nodes included, for every set of at most
    # two removed nodes.
    for removed in (c for size in range(3) for c in combinations(g.live_nodes(), size)):
        assert _disconnects(g, removed) == (len(components_without(g, removed)) > 1), removed


@settings(max_examples=60)
@given(multigraphs())
def test_parse_serialize_roundtrip(g):
    # A parallel edge is a repeated line, which the parse leaves dead.
    text = serialize_graph(g)
    if not text:
        return
    g2 = parse_graph(text)
    assert serialize_graph(g2) == serialize_graph(simplify(g)[0])


@settings(max_examples=60)
@given(multigraphs())
def test_simplify_idempotent(g):
    # The index maps each pair joined by an edge of g to its lowest id, and
    # exactly those ids stay live; a second pass changes nothing.
    lowest = {}
    for e in g.live_edges():
        u, v = g.ends(e)
        lowest.setdefault((min(u, v), max(u, v)), e)
    g1, index1 = simplify(g)
    assert index1 == lowest
    assert g1.live_edges() == sorted(lowest.values())
    g2, index2 = simplify(g1)
    assert index2 == index1
    assert g2.live_edges() == g1.live_edges()


@settings(max_examples=60)
@given(multigraphs())
def test_smooth_counts(g):
    for v in g.live_nodes():
        if g.degree(v) == 2 and len(g.neighbors(v)) == 2 and v not in g.neighbors(v):
            nodes, edges = g.n_live_nodes, g.n_live_edges
            smooth_inplace(g, v)
            assert g.n_live_nodes == nodes - 1
            assert g.n_live_edges == edges - 1
            return


def _check_counts(g: MultiGraph) -> None:
    """Counters, degrees and lookups against a recount from the edge list."""
    live = g.live_edges()
    assert g.n_live_nodes == len(g.live_nodes())
    assert g.n_live_edges == len(live)
    for v in g.live_nodes():
        ends_at_v = sum((a == v) + (b == v) for a, b in map(g.ends, live))
        assert g.degree(v) == ends_at_v == len(g.incident(v))
        assert sorted(g.incident(v)) == sorted(
            e for e in live for end in g.ends(e) if end == v
        )
        assert g.neighbors(v) == {g.other_end(e, v) for e in g.incident(v)}
    nodes = g.live_nodes()
    for u in nodes:
        for v in nodes:
            from_u = [e for e in g.incident(u) if g.other_end(e, u) == v]
            from_v = [e for e in g.incident(v) if g.other_end(e, v) == u]
            want = min(from_u + from_v, default=None)
            assert g.edge_between(u, v) == want


@pytest.mark.parametrize("seed", range(25))
def test_random_edits_keep_counts_and_lookups(seed):
    """Random add/kill/ensure_node/smooth sequences, parallel edges
    included, never let the live counters, degrees or edge_between drift
    from a recount, in the graph or its copies.  The loop pairs and the
    repeated pair start dead, and `add_edge` refuses a loop without
    changing anything."""
    rng = random.Random(seed)
    g = MultiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1), (2, 3), (4, 4), (4, 4)])
    assert [e for e in (4, 5, 6, 7) if g.edge_alive(e)] == []
    # Start with a parallel edge: revive the repeated pair's slot.
    g.add_edge(2, 3, eid=5)
    _check_counts(g)
    for _ in range(120):
        nodes = g.live_nodes()
        edges = g.live_edges()
        op = rng.randrange(6)
        if op == 0 or not edges:
            if nodes:
                u, v = rng.choice(nodes), rng.choice(nodes)
                dead = [e for e in range(len(g._ends)) if not g.edge_alive(e)]
                eid = rng.choice(dead) if dead and rng.random() < 0.3 else None
                if u == v:
                    before = _state(g)
                    with pytest.raises(GraphUsageError, match="self-loop"):
                        g.add_edge(u, v, eid=eid)
                    assert _state(g) == before
                else:
                    g.add_edge(u, v, eid=eid)
        elif op == 1:
            g.kill_edge(rng.choice(edges))
        elif op == 2:
            g.add_node(rng.randrange(100))
        elif op == 3:
            free = [v for v in range(len(g._node_alive) + 3) if not g.node_alive(v)]
            g.ensure_node(rng.choice(free), label=rng.choice([None, 7]))
        elif op == 4:
            lonely = [v for v in nodes if g.degree(v) == 0]
            if lonely:
                g.kill_node(rng.choice(lonely))
        else:
            cands = [
                v for v in nodes
                if g.degree(v) == 2 and len(g.neighbors(v)) == 2 and v not in g.neighbors(v)
            ]
            if cands:
                smooth_inplace(g, rng.choice(cands))
        _check_counts(g)
        if rng.random() < 0.1:
            g = g.copy()
            _check_counts(g)


def _in_id_order(g) -> bool:
    return all(list(inc) == sorted(inc) for inc in g._inc)


@pytest.mark.parametrize("seed", range(10))
def test_incidences_iterate_in_increasing_id(seed):
    """Every graph the certifier searches lists each node's edges in
    increasing id: as built, parsed, simplified, sparsified, copied and
    after any sequence of edge deletions."""
    rng = random.Random(seed)
    n = rng.randrange(5, 30)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)]
    g = MultiGraph.from_edges(n, pairs)
    assert _in_id_order(g)
    edge_list = "".join(f"{u + 10} {v * 3}\n" for u, v in pairs)
    assert _in_id_order(parse_graph(edge_list))
    dimacs = f"p edge {n} {len(pairs)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs)
    assert _in_id_order(parse_graph(dimacs, "dimacs"))
    g_s, _ = simplify(g)
    assert _in_id_order(g_s)
    assert _in_id_order(sparsify3(g_s)[0])
    live = g.live_edges()
    rng.shuffle(live)
    for e in live[: len(live) // 2]:
        g.kill_edge(e)
        assert _in_id_order(g)
    assert _in_id_order(g.copy())


def test_simplify_restores_incidence_order():
    """`add_edge` with a caller-supplied id can put an edge after larger
    ids; `simplify` gives the same graph with every incidence sorted."""
    g = multigraph(4, [*K4_EDGES, (0, 1)])
    g.kill_edge(0)
    g.kill_edge(3)
    g.add_edge(1, 2, eid=0)
    g.add_edge(0, 1, eid=3)
    assert not _in_id_order(g)
    g_s, index = simplify(g)
    assert _in_id_order(g_s)
    # Edge 6 doubles 3 (both join 0 and 1).
    assert not g_s.edge_alive(6)
    assert index == {(1, 2): 0, (0, 2): 1, (0, 3): 2, (0, 1): 3, (1, 3): 4, (2, 3): 5}
    assert {e: g_s.ends(e) for e in g_s.live_edges()} == {
        0: (1, 2), 1: (0, 2), 2: (0, 3), 3: (0, 1), 4: (1, 3), 5: (2, 3)
    }
