import random
from itertools import combinations

import pytest

from tricert import (
    MultiGraph,
    Witness,
    find_k4_subdivision,
    is_3_connected_brute,
    sequencer,
    simplify,
    sparsify3,
)
from tricert.sparsify import _forests, _keep_only
from tricert.graph import _pair_index

from helpers import complete, components_without, from_mask, gnp, k4, multigraph, reference_keep_only, shuffled


def test_k4_unchanged():
    out, dec = sparsify3(k4())
    assert sorted(out.live_edges()) == list(range(6))
    assert len(dec.kept) == 6


def test_k8_bound_and_equivalence():
    g = complete(8)
    out, dec = sparsify3(g)
    assert out.n_live_edges <= 3 * 8 - 3
    assert out.n_live_nodes == 8
    assert is_3_connected_brute(out)


def test_two_k4s_sharing_a_pair():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges += [(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    g, _ = simplify(multigraph(6, edges))
    assert not is_3_connected_brute(g)
    out, _ = sparsify3(g)
    assert not is_3_connected_brute(out)
    # The same pair still separates.
    comp_ids = set()
    for v in (2, 4):
        comp_ids.add(v)
    banned = {0, 1}
    seen = {2}
    stack = [2]
    while stack:
        x = stack.pop()
        for e in out.incident(x):
            y = out.other_end(e, x)
            if y not in banned and y not in seen:
                seen.add(y)
                stack.append(y)
    assert 4 not in seen


def test_forests_are_acyclic_and_maximal():
    g = complete(7)
    _, dec = sparsify3(g)
    taken: set[int] = set()
    for forest in dec.forests:
        # Acyclic: union-find over the forest's edges never closes a cycle.
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                x = parent.get(x, x)
            return x

        for e in sorted(forest):
            u, v = g.ends(e)
            ru, rv = find(u), find(v)
            assert ru != rv, "forest contains a cycle"
            parent[ru] = rv
        # Maximal: every unused remaining edge closes a cycle inside it.
        for e in g.live_edges():
            if e in taken or e in forest:
                continue
            u, v = g.ends(e)
            assert find(u) == find(v), "forest is not maximal in its residue"
        taken |= forest


@pytest.mark.parametrize("seed", range(40))
def test_oracle_equivalence_random(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 11)
    g, _ = simplify(gnp(n, rng.choice([0.3, 0.5, 0.8]), seed * 31 + 1))
    out, dec = sparsify3(g)
    assert out.n_live_edges <= max(0, 3 * n - 3)
    assert is_3_connected_brute(g) == is_3_connected_brute(out)


def _assert_separations_kept(g: MultiGraph) -> None:
    """The sparse-certificate lemma: for every node set S with |S| <= 2,
    the kept graph minus S has the components of g minus S."""
    kept, _ = sparsify3(g)
    for size in range(3):
        for removed in combinations(g.live_nodes(), size):
            assert components_without(kept, removed) == components_without(g, removed), removed


@pytest.mark.parametrize("n", range(2, 6))
def test_separations_kept_on_every_small_graph(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        _assert_separations_kept(from_mask(n, mask))


def test_separations_kept_on_random_graphs():
    rng = random.Random(93)
    for seed in range(300):
        g = gnp(rng.randrange(7, 16), rng.choice([0.25, 0.4, 0.6, 0.8]), seed)
        _assert_separations_kept(shuffled(g, seed))


def test_separations_kept_where_depth_first_forests_lose_them():
    # Three depth-first forests of this graph (node 1 isolated) keep the
    # edge bound, but without {2, 3} their union falls into more pieces
    # than the graph does; the random graphs above rarely show that.
    edges = [(6, 0), (3, 8), (3, 4), (7, 2), (3, 7), (5, 4), (5, 8), (5, 2),
             (2, 4), (7, 4), (2, 0), (3, 6), (3, 5), (3, 0), (7, 0)]
    _assert_separations_kept(MultiGraph.from_edges(9, edges))


def _filter_corpus():
    """The random and dense graphs above, simplified, with their indexes."""
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randrange(4, 11)
        yield simplify(gnp(n, rng.choice([0.3, 0.5, 0.8]), seed * 31 + 1))
    rng = random.Random(93)
    for seed in range(40):
        g = gnp(rng.randrange(7, 16), rng.choice([0.25, 0.4, 0.6, 0.8]), seed)
        yield simplify(shuffled(g, seed))
    for g in (k4(), complete(7), complete(8), complete(12)):
        yield simplify(g)


def _assert_same_graph(got: MultiGraph, want: MultiGraph) -> None:
    assert [list(inc.items()) for inc in got._inc] == [list(inc.items()) for inc in want._inc]
    assert (got.n_live_nodes, got.n_live_edges) == (want.n_live_nodes, want.n_live_edges)
    assert got._edge_alive == want._edge_alive and got._node_alive == want._node_alive
    assert [got.ends(e) for e in got.live_edges()] == [want.ends(e) for e in want.live_edges()]
    assert got.labels == want.labels


def test_filtered_graph_matches_copy_and_kill():
    for g, _ in _filter_corpus():
        out, dec = sparsify3(g)
        _assert_same_graph(out, reference_keep_only(g, dec.kept))
        _, keep = _forests(g)
        assert {e for e, k in enumerate(keep) if k} == dec.kept
        # Put back every other dropped edge, as a prescribed S0 would.
        for e in [e for e in g.live_edges() if not keep[e]][::2]:
            keep[e] = True
        kept = {e for e, k in enumerate(keep) if k}
        _assert_same_graph(_keep_only(g, keep), reference_keep_only(g, kept))


def test_certify_grows_on_the_filtered_graph_and_index(monkeypatch):
    # Record the host and index `_certify` hands to the K4 search or, with
    # a prescribed S0, to `build_subdivision`.  A graph with more than
    # 3(n - 1) edges is grown on its sparsified graph, filtered out of it;
    # one within that bound is grown on as it is, with its own index.
    seen = []
    for name in ("_find_k4", "build_subdivision"):
        def spy(g, *args, real=getattr(sequencer, name)):
            seen.append((g, args[-1]))
            return real(g, *args)

        monkeypatch.setattr(sequencer, name, spy)
    grown = s0_outside = as_is = 0
    for g, index in _filter_corpus():
        _, keep = _forests(g)
        found = find_k4_subdivision(g)
        for s0 in (None,) if isinstance(found, Witness) else (None, sorted(found.edge_ids())):
            seen.clear()
            sequencer._certify(g, index, s0)
            if not seen:
                continue
            ((host, host_index),) = seen
            if g.n_live_edges <= 3 * (g.n_live_nodes - 1):
                assert host is g and host_index is index
                as_is += 1
                continue
            kept = {e for e, k in enumerate(keep) if k}.union(s0 or ())
            _assert_same_graph(host, reference_keep_only(g, kept))
            assert list(host_index.items()) == list(_pair_index(host).items())
            grown += 1
            s0_outside += s0 is not None and not all(keep[e] for e in s0)
    assert grown >= 25 and s0_outside >= 5 and as_is >= 20
