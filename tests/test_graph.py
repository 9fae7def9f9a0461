import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricert import (
    ContractError,
    GraphUsageError,
    MultiGraph,
    ParseError,
    connected_components,
    contract_edge,
    parse_graph,
    serialize_graph,
    simplify,
    sparsify3,
)
from tricert.graph import contract_edge_inplace, smooth_inplace

from helpers import k4, cycle


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
    g = parse_graph("1 2\n1 2")
    assert g.n_live_nodes == 2
    assert g.n_live_edges == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("1 2\n1 two\n")
    with pytest.raises(ParseError):
        parse_graph("p edge 2 1\ne 1 5\n", "dimacs")


def test_parse_comments_and_blanks():
    g = parse_graph("# header\n\n1 2  # trailing\n2 3\n")
    assert g.n_live_edges == 2


def test_serialize_sorted_with_labels():
    g = parse_graph("7 3\n3 5\n5 7\n")
    assert serialize_graph(g) == "3 5\n3 7\n5 7\n"


def test_simplify_k4_noop():
    g2, report = simplify(k4())
    assert g2.n_live_edges == 6
    assert report.removed_self_loops == 0
    assert report.merged_parallel_classes == ()


def test_simplify_merges_parallel():
    g = parse_graph("1 2\n2 3\n3 1\n1 2")
    g2, report = simplify(g)
    assert g2.n_live_edges == 3
    assert len(report.merged_parallel_classes) == 1
    kept, dups = report.merged_parallel_classes[0]
    assert kept == 0 and dups == (3,)


def test_simplify_drops_self_loop():
    g = MultiGraph.from_edges(1, [(0, 0)])
    g2, report = simplify(g)
    assert g2.n_live_edges == 0
    assert g2.n_live_nodes == 1
    assert report.removed_self_loops == 1


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
    # A self-loop counts twice: two incident edges, degree 3.
    assert _refuses_to_smooth(MultiGraph.from_edges(2, [(0, 0), (0, 1)]), 0)


def test_smooth_refuses_parallel_pair():
    assert _refuses_to_smooth(MultiGraph.from_edges(2, [(0, 1), (0, 1)]), 0)


def test_smooth_dead_node_raises():
    g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    smooth_inplace(g, 1)
    with pytest.raises(GraphUsageError):
        smooth_inplace(g, 1)


def test_contract_k4_gives_triangle():
    g2 = contract_edge(k4(), 0)
    assert g2.n_live_nodes == 3
    assert g2.n_live_edges == 3


def test_contract_c4_gives_c3():
    g2 = contract_edge(cycle(4), 0)
    assert g2.n_live_nodes == 3
    assert g2.n_live_edges == 3


def test_contract_apex_back_to_k4():
    # K4 plus node 4 adjacent to 0, 1, 2; contracting (4, 0) merges the
    # doubled connections back into single edges.
    g = MultiGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0), (4, 1), (4, 2)])
    g2 = contract_edge(g, 6)
    assert g2.n_live_nodes == 4
    assert g2.n_live_edges == 6
    for u in g2.live_nodes():
        assert g2.degree(u) == 3


def test_contract_self_loop_rejected():
    g = MultiGraph.from_edges(2, [(0, 0), (0, 1)])
    with pytest.raises(ContractError):
        contract_edge(g, 0)


def test_components():
    assert connected_components(k4()) == [{0, 1, 2, 3}]
    two = MultiGraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert connected_components(two) == [{0, 1, 2}, {3, 4, 5}]
    assert connected_components(MultiGraph()) == []


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0, max_value=16))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    ]
    return MultiGraph.from_edges(n, edges)


@settings(max_examples=60)
@given(multigraphs())
def test_parse_serialize_roundtrip(g):
    text = serialize_graph(g)
    if not text:
        return
    g2 = parse_graph(text)
    assert serialize_graph(g2) == text


@settings(max_examples=60)
@given(multigraphs())
def test_simplify_idempotent(g):
    g1, _ = simplify(g)
    g2, rep = simplify(g1)
    assert rep == type(rep)()
    assert sorted(g1.live_edges()) == sorted(g2.live_edges())


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


@settings(max_examples=60)
@given(multigraphs())
def test_contract_counts_and_simplicity(g):
    g, _ = simplify(g)
    for e in g.live_edges():
        g2 = contract_edge(g, e)
        assert g2.n_live_nodes == g.n_live_nodes - 1
        seen = set()
        for e2 in g2.live_edges():
            u, v = g2.ends(e2)
            assert u != v
            assert (min(u, v), max(u, v)) not in seen
            seen.add((min(u, v), max(u, v)))
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
    """Random add/kill/ensure_node/smooth/contract sequences, self-loops and
    parallel edges included, never let the live counters, degrees or
    edge_between drift from a recount, in the graph or its copies."""
    rng = random.Random(seed)
    g = MultiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1), (2, 3), (4, 4), (4, 4)])
    _check_counts(g)
    for _ in range(120):
        nodes = g.live_nodes()
        edges = g.live_edges()
        op = rng.randrange(7)
        if op == 0 or not edges:
            if nodes:
                u, v = rng.choice(nodes), rng.choice(nodes)
                dead = [e for e in range(len(g._ends)) if not g.edge_alive(e)]
                eid = rng.choice(dead) if dead and rng.random() < 0.3 else None
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
        elif op == 5:
            cands = [
                v for v in nodes
                if g.degree(v) == 2 and len(g.neighbors(v)) == 2 and v not in g.neighbors(v)
            ]
            if cands:
                smooth_inplace(g, rng.choice(cands))
        else:
            proper = [e for e in edges if g.ends(e)[0] != g.ends(e)[1]]
            if proper:
                contract_edge_inplace(g, rng.choice(proper))
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
    g = MultiGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)])
    g.kill_edge(0)
    g.kill_edge(3)
    g.add_edge(1, 2, eid=0)
    g.add_edge(0, 1, eid=3)
    g.add_edge(0, 0)
    assert not _in_id_order(g)
    g_s, report = simplify(g)
    assert _in_id_order(g_s)
    assert report.removed_self_loops == 1
    assert report.merged_parallel_classes == ((3, (6,)),)
    assert {e: g_s.ends(e) for e in g_s.live_edges()} == {
        0: (1, 2), 1: (0, 2), 2: (0, 3), 3: (0, 1), 4: (1, 3), 5: (2, 3)
    }
