import random

import pytest

from tricert import (
    MultiGraph,
    Subdivision,
    Witness,
    certify,
    find_k4_subdivision,
    gen_3_connected,
    is_3_connected_brute,
    simplify,
    verify_witness,
)

from tricert.k4finder import _find_cycle, _find_ear

from helpers import circular_ladder, complete, cycle, glued_on_pair, gnp, k3n, k4, petersen, wheel


def check_is_k4_subdivision(g, sub):
    assert isinstance(sub, Subdivision)
    real = sub.real_nodes()
    assert len(real) == 4
    assert len(sub.links) == 6
    pairs = {link.pair for link in sub.links.values()}
    assert len(pairs) == 6
    assert all(g.edge_alive(e) for e in sub.edge_ids())


def test_k4_is_its_own_subdivision():
    g = k4()
    sub = find_k4_subdivision(g)
    check_is_k4_subdivision(g, sub)
    assert sorted(sub.edge_ids()) == list(range(6))


def test_c5_low_degree():
    w = find_k4_subdivision(cycle(5))
    assert w == Witness("low_degree", (0,))


def test_too_small():
    g = simplify(complete(3))[0]
    assert find_k4_subdivision(g) == Witness("too_few_nodes")


def test_k4_minus_edge_witness():
    g = MultiGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    w = find_k4_subdivision(g)
    assert isinstance(w, Witness)
    assert verify_witness(g, w)


def test_petersen_and_completes():
    for g in (petersen(), complete(5), complete(6)):
        sub = find_k4_subdivision(g)
        check_is_k4_subdivision(g, sub)


def test_disconnected_witness():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges += [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
    g = MultiGraph.from_edges(8, edges)
    assert find_k4_subdivision(g) == Witness("disconnected")


def test_determinism():
    g = gnp(9, 0.6, 5)
    g, _ = simplify(g)
    r1 = find_k4_subdivision(g)
    r2 = find_k4_subdivision(g)
    if isinstance(r1, Witness):
        assert r1 == r2
    else:
        assert sorted(r1.edge_ids()) == sorted(r2.edge_ids())


def test_ear_search_cut_vertex():
    # Two K4s sharing only node 0.  The first cycle lies in one K4; the ear
    # search from node 0 enters the other K4 and cannot come back.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]
    g = MultiGraph.from_edges(7, edges)
    w = find_k4_subdivision(g)
    assert w == Witness("cut_vertex", (0,))
    assert _find_ear(g, _find_cycle(g, 0)) == w
    assert verify_witness(g, w)


def test_interior_search_separation_pair():
    # K4s on {0, 1, 2, 3} and {0, 1, 4, 5} sharing the edge 0-1.  The
    # theta has branch nodes 0 and 1 and path interiors on both sides of
    # the pair, so the search avoiding 0 and 1 cannot join them.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    g = MultiGraph.from_edges(6, edges)
    ear = _find_ear(g, _find_cycle(g, 0))
    assert {ear[0], ear[-1]} == {0, 1}
    w = find_k4_subdivision(g)
    assert w == Witness("separation_pair", (0, 1))
    assert verify_witness(g, w)


def _deep_pair_graph(extra_edge=False):
    # {0, 2} separates {1, 6} from {3, 4, 5}, but a K4-subdivision lives on
    # 0, 3, 4, 5 plus the path 0-1-2-3; with `extra_edge` the graph is
    # 3-connected.
    edges = [(0, 1), (0, 6), (0, 4), (0, 5), (1, 2), (1, 6),
             (2, 6), (2, 3), (3, 4), (3, 5), (4, 5)]
    if extra_edge:
        edges.append((1, 5))
    return MultiGraph.from_edges(7, edges)


def test_deep_pair_graph_refuted_by_certify():
    g = _deep_pair_graph()
    assert not is_3_connected_brute(g)
    check_is_k4_subdivision(g, find_k4_subdivision(g))
    result = certify(g)
    assert not result.certified
    assert verify_witness(g, result.witness)


def test_deep_pair_graph_with_extra_edge_subdivision():
    g = _deep_pair_graph(extra_edge=True)
    assert is_3_connected_brute(g)
    sub = find_k4_subdivision(g)
    check_is_k4_subdivision(g, sub)
    assert certify(g).certified


def _check_one_sided(g):
    result = find_k4_subdivision(g)
    if isinstance(result, Witness):
        # A witness always refutes 3-connectedness of the input itself.
        assert verify_witness(g, result)
        assert not is_3_connected_brute(g)
    else:
        check_is_k4_subdivision(g, result)
    if is_3_connected_brute(g):
        assert isinstance(result, Subdivision)


@pytest.mark.parametrize("seed", range(60))
def test_generic_extractor_directly(seed):
    # Named for the cycle-plus-two-ears extractor that is all of
    # `find_k4_subdivision`: larger, denser inputs than the corpus below.
    rng = random.Random(seed * 7919 + 5)
    g, _ = simplify(gnp(rng.randrange(5, 12), rng.choice([0.5, 0.7, 0.9]), seed + 61))
    _check_one_sided(g)


@pytest.mark.parametrize("seed", range(150))
def test_random_corpus_one_sided(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 9)
    g, _ = simplify(gnp(n, rng.choice([0.4, 0.6, 0.8]), seed * 17 + 3))
    _check_one_sided(g)


# Past the brute-force oracle, 3-connectedness is known by construction.
LARGE = {
    **{f"gen{n}_{seed}": (lambda n=n, seed=seed: gen_3_connected(n, seed), True)
       for n in (50, 200, 500, 1000, 2000) for seed in (1, 2)},
    **{f"k3n{n}": (lambda n=n: k3n(n), True) for n in (3, 10, 100, 1000)},
    **{f"wheel{n}": (lambda n=n: wheel(n), True) for n in (4, 10, 100, 1000)},
    **{f"ladder{k}": (lambda k=k: circular_ladder(k), True) for k in (3, 10, 100, 1000)},
    **{f"glued{a}_{b}_{seed}": (
        lambda a=a, b=b, seed=seed: glued_on_pair(gen_3_connected(a, seed), gen_3_connected(b, seed + 1)),
        False,
    ) for a, b in ((6, 6), (40, 300), (300, 40), (500, 500)) for seed in (1, 5)},
    "glued_ladder_wheel": (lambda: glued_on_pair(circular_ladder(50), wheel(50)), False),
    "glued_wheel_k3n": (lambda: glued_on_pair(wheel(50), k3n(50)), False),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_single_route_past_oracle_scale(name):
    make, three_connected = LARGE[name]
    g = make()
    result = find_k4_subdivision(g)
    if isinstance(result, Witness):
        assert not three_connected
        assert verify_witness(g, result)
    else:
        check_is_k4_subdivision(g, result)
