import math
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import tricert.oracle

from tricert import (
    MultiGraph,
    gen_3_connected,
    is_3_connected_brute,
    serialize_graph,
)

from helpers import cycle, k4, multigraph, petersen, reference_gen_3_connected


def test_k4_true():
    assert is_3_connected_brute(k4())


def test_c6_false():
    assert not is_3_connected_brute(cycle(6))


def test_petersen_true():
    assert is_3_connected_brute(petersen())


def test_small_and_disconnected_false():
    assert not is_3_connected_brute(MultiGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)]))
    two = MultiGraph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                                    (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)])
    assert not is_3_connected_brute(two)


def test_parallel_edges_ignored():
    doubled = multigraph(4, [(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert doubled.n_live_edges == 7
    assert is_3_connected_brute(doubled)


@pytest.mark.parametrize("seed", range(100))
def test_expansion_property(seed):
    # Joining a new node to three nodes of a 3-connected graph keeps it
    # 3-connected.
    rng = random.Random(seed)
    g = gen_3_connected(rng.randrange(4, 9), seed)
    assert is_3_connected_brute(g)
    v = g.add_node()
    for w in rng.sample(range(v), 3):
        g.add_edge(v, w)
    assert is_3_connected_brute(g)


def test_gen_k4():
    g = gen_3_connected(4, 123)
    assert g.n_live_nodes == 4
    assert g.n_live_edges == 6


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_gen_oracle_true(seed):
    g = gen_3_connected(10, seed)
    assert g.n_live_nodes == 10
    assert is_3_connected_brute(g)


def test_gen_draws_as_the_reference_did():
    # The second move draws its far end in O(1) with the same RNG call the
    # old list-based draw made, so every graph is the one it gave.
    for mix in ((1, 1, 1), (0, 1, 0), (3, 1, 1), (0, 1, 2), (1, 5, 0)):
        for n in (5, 7, 12, 40, 150, 1000):
            for seed in range(4):
                g = gen_3_connected(n, seed, mix)
                ref = reference_gen_3_connected(n, seed, mix)
                assert [g.ends(e) for e in g.live_edges()] == [ref.ends(e) for e in ref.live_edges()]


def test_gen_is_linear_at_50000_nodes():
    # A draw that lists the nodes on every move takes about 30 s here.
    t0 = time.perf_counter()
    g = gen_3_connected(50_000, 5)
    assert time.perf_counter() - t0 < 10.0
    assert g.n_live_nodes == 50_000


def test_gen_deterministic():
    a = serialize_graph(gen_3_connected(12, 42, (1, 2, 1)))
    b = serialize_graph(gen_3_connected(12, 42, (1, 2, 1)))
    assert a == b


def test_gen_mix_guard():
    for n, mix in [
        (6, (1, 0, 0)),
        # Only the third move adds nodes, two at a time: 7 is out of reach.
        (7, (0, 0, 1)),
        (7, (1, 0, 1)),
        (7, (math.nan, 1, 1)),
        (7, (-1, 1, 1)),
        (7, (math.inf, 1, 1)),
        (7, (1, 1, -1)),
    ]:
        with pytest.raises(ValueError):
            gen_3_connected(n, 1, mix)


@pytest.mark.parametrize("n, mix", [(8, (0, 0, 1)), (8, (1, 0, 1)), (4, (1, 0, 0)), (7, (0, 1, 0))])
def test_gen_reaches_n_without_the_second_move_only_in_even_steps(n, mix):
    g = gen_3_connected(n, 1, mix)
    assert g.n_live_nodes == n
    assert is_3_connected_brute(g)


def test_gen_never_overshoots_when_rounding_leaves_no_move(monkeypatch):
    # With one node to go the two-node move has weight 0.  At random()'s
    # largest value, subtracting these two weights leaves r >= 0, so the
    # draw falls past every move; it must land on one that has weight.
    def top_random(seed):
        rng = random.Random(seed)
        rng.random = lambda: 1 - 2**-53  # randrange still draws bits
        return rng

    monkeypatch.setattr(tricert.oracle, "random", SimpleNamespace(Random=top_random))
    g = gen_3_connected(5, 1, (67.0501919930393, 268.71409308845864, 1.0))
    assert g.n_live_nodes == 5


def test_gen_refuses_a_mix_that_would_never_finish():
    # One node short, and only the second move adds one: its weight is 0.
    # Run apart so that a hang fails this test instead of stalling the suite.
    argv = [sys.executable, "-m", "tricert.cli", "gen", "--n", "5", "--seed", "1", "--mix", "1:0:1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("n", range(4, 13))
def test_gen_sizes(n):
    g = gen_3_connected(n, n * 1000 + 1)
    assert g.n_live_nodes == n
    if n <= 12:
        assert is_3_connected_brute(g)
