"""Acceptance suite: one test per shipped guarantee, at full size.

Each test prints a PASS line with its measured numbers so a run of
``pytest tests/test_acceptance.py -s`` doubles as an acceptance report.
"""

import gc
import random
import statistics
import time

from tricert import (
    ExpandStep,
    certify,
    contract_edge,
    edge_to_path,
    from_basic,
    gen_3_connected,
    is_3_connected_brute,
    path_to_edge,
    simplify,
    sparsify3,
    to_basic,
    to_contractions,
    verify_certificate,
    verify_witness,
)
from tricert.certformat import format_certificate, format_edge_rep
from tricert.subdivision import build_subdivision

from helpers import (
    FIG_IDS,
    circular_ladder,
    counterexample_graph,
    figure_host,
    from_mask,
    gnp,
    k3n,
    mutate_certificate,
    wheel,
)


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_1_oracle_agreement():
    """certify == brute force on all 1024 labeled 5-node graphs and 10500
    random G(n,p) graphs, within the time budget."""
    start = time.perf_counter()
    checked = 0
    for mask in range(1024):
        g = from_mask(5, mask)
        assert certify(g).certified == is_3_connected_brute(g)
        checked += 1
    per_combo = 700
    for n in range(6, 11):
        for p in (0.3, 0.5, 0.8):
            for i in range(per_combo):
                seed = n * 100000 + int(p * 10) * 10000 + i
                g = gnp(n, p, seed)
                assert certify(g).certified == is_3_connected_brute(g)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1024 + 5 * 3 * per_combo
    assert elapsed < 120.0
    _report("criterion 1", f"{checked} graphs agree with the oracle in {elapsed:.1f}s")


def test_criterion_2_soundness():
    """Every emitted certificate verifies; every emitted witness checks out."""
    certs = wits = 0
    for mask in range(0, 1024, 3):
        g = from_mask(5, mask)
        result = certify(g)
        if result.certified:
            assert verify_certificate(g, result.certificate).ok
            certs += 1
        else:
            assert verify_witness(g, result.witness)
            wits += 1
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(6, 12)
        g = gnp(n, rng.choice([0.3, 0.5, 0.8]), seed * 77 + 13)
        result = certify(g)
        if result.certified:
            assert verify_certificate(g, result.certificate).ok
            certs += 1
        else:
            assert verify_witness(g, result.witness)
            wits += 1
    _report("criterion 2", f"{certs} certificates and {wits} witnesses all check")


def test_criterion_3_mutation_killing():
    """At least 1000 mutated certificates, all rejected."""
    rejected = 0
    seeds = 0
    while rejected < 1000:
        seeds += 1
        g = gen_3_connected(5 + seeds % 20, seeds)
        result = certify(g)
        assert result.certified
        g_s, _ = simplify(g)
        for sub_seed in range(5):
            mutated = mutate_certificate(g_s, result.certificate, seeds * 1000 + sub_seed)
            assert not verify_certificate(g, mutated).ok
            rejected += 1
    _report("criterion 3", f"{rejected} mutated certificates rejected")


def test_criterion_4_roundtrip_uniqueness():
    """500 certificates: path->edge->path and edge->path->edge are
    byte-identical."""
    for seed in range(500):
        rng = random.Random(seed + 4000)
        g = gen_3_connected(rng.randrange(5, 51), seed)
        result = certify(g)
        assert result.certified
        g_s, _ = simplify(g)
        cert_text = format_certificate(g_s, result.certificate)
        er = path_to_edge(g_s, result.certificate)
        er_text = format_edge_rep(er)
        back = edge_to_path(er)
        assert format_certificate(g_s, back) == cert_text
        er2 = path_to_edge(g_s, back)
        assert format_edge_rep(er2) == er_text
    _report("criterion 4", "500 certificates round-trip byte-identically")


def test_criterion_5_basic_transform():
    """500 certificates become basic and verify in basic mode; the glued
    counterexample yields exactly one expand of center degree 3."""
    for seed in range(500):
        rng = random.Random(seed + 5000)
        g = gen_3_connected(rng.randrange(5, 26), seed * 3 + 1)
        result = certify(g)
        assert result.certified
        basic = to_basic(g, result.certificate)
        assert verify_certificate(g, basic, basic_mode=True).ok
        plain = from_basic(basic)
        assert verify_certificate(g, plain).ok
    g = counterexample_graph()
    result = certify(g, prescribed_s0=range(6))
    basic = to_basic(g, result.certificate)
    expands = [s for s in basic.steps if isinstance(s, ExpandStep)]
    assert len(expands) == 1
    assert len(expands[0].arms) == 3
    assert all(len(arm) == 2 for arm in expands[0].arms)
    _report("criterion 5", "500 basic rewrites verify; counterexample gives one expand")


def test_criterion_6_contraction_sequences():
    """200 graphs, n <= 12: n-4 contractions, every intermediate graph
    3-connected, both endpoints with >= 3 neighbors at contraction time."""
    for seed in range(200):
        rng = random.Random(seed + 6000)
        n = rng.randrange(5, 13)
        g = gen_3_connected(n, seed * 11 + 7)
        result = certify(g)
        assert result.certified
        g_s, _ = simplify(g)
        er = path_to_edge(g_s, result.certificate)
        seq = to_contractions(er)
        assert len(seq.pairs) == n - 4
        cur = g_s
        for u, v in seq.pairs:
            assert len(cur.neighbors(u)) >= 3
            assert len(cur.neighbors(v)) >= 3
            e = cur.edge_between(u, v)
            assert e is not None
            cur = contract_edge(cur, e)
            assert is_3_connected_brute(cur)
        assert cur.n_live_nodes == 4
        assert cur.n_live_edges == 6
    _report("criterion 6", "200 contraction sequences replay to K4 through 3-connected graphs")


# Input family -> (graph constructor, sizes doubling twice).  Hubs
# (K_{3,n}, wheels) and long links (the ladder) are where per-step
# O(degree) or O(link) work would show as super-linear growth.
SCALING_FAMILIES = {
    "random": (lambda n: gen_3_connected(n, 4242), (500, 1000, 2000)),
    "K3n": (k3n, (250, 500, 1000)),
    "wheel": (wheel, (500, 1000, 2000)),
    "ladder": (circular_ladder, (250, 500, 1000)),
}
SCALING_OPS = ("certify", "verify", "verify --basic", "path->edge", "edge->path", "to_basic")
# certify's bound per doubling where it is tighter than the general 5.0: a
# growth search from a K_{3,n} hub no longer rescans the hub's incidence,
# and a link split on a wheel's rim or a ladder's cycles relabels only
# the shorter half.
CERTIFY_BOUNDS = {"K3n": 3.0, "wheel": 3.0, "ladder": 3.0}


def _scaling_calls(build, n):
    """The timed operations on family member n, in SCALING_OPS order."""
    g = build(n)
    result = certify(g)
    assert result.certified
    cert = result.certificate
    g_s, _ = simplify(g)
    er = path_to_edge(g_s, cert)
    basic = to_basic(g_s, cert)
    assert verify_certificate(g, basic, basic_mode=True).ok
    return (
        lambda: certify(g),
        lambda: verify_certificate(g, cert),
        lambda: verify_certificate(g, basic, basic_mode=True),
        lambda: path_to_edge(g_s, cert),
        lambda: edge_to_path(er),
        lambda: to_basic(g_s, cert),
    )


def test_criterion_7_scaling():
    """certify is quadratic-consistent (on K_{3,n}, wheels and ladders at
    most x3.0 per doubling), verify in both modes, to_basic and both
    representation transforms linear-consistent on every family; every
    single run far below 10 s.

    The host's speed drifts by up to 2x within seconds, so times taken
    apart do not compare.  Each of seven rounds therefore runs one operation
    on the family's three sizes back to back and takes the ratio of
    neighbouring sizes; a doubling's growth is the median of its seven
    per-round ratios.  The collector is paused while timing, as in timeit.
    """
    details = []
    for family, (build, sizes) in SCALING_FAMILIES.items():
        calls = [_scaling_calls(build, n) for n in sizes]
        growth = {}
        for idx, what in enumerate(SCALING_OPS):
            rounds = []
            gc.collect()
            gc.disable()
            try:
                for _ in range(7):
                    times = []
                    for fns in calls:
                        t0 = time.perf_counter()
                        fns[idx]()
                        times.append(time.perf_counter() - t0)
                    rounds.append(times)
            finally:
                gc.enable()
            assert all(t < 10.0 for times in rounds for t in times)
            bound = CERTIFY_BOUNDS.get(family, 5.0) if what == "certify" else 3.0
            for j, n in enumerate(sizes[1:], start=1):
                ratio = statistics.median(times[j] / times[j - 1] for times in rounds)
                assert ratio <= bound, f"{family}: {what} ratio {ratio:.2f} at n={n}"
                growth[what, n] = ratio
        details.append(
            f"{family} n={sizes[-1]}: growth x2 certify "
            + "/".join(f"{growth['certify', n]:.2f}" for n in sizes[1:])
            + " verify "
            + "/".join(f"{growth['verify', n]:.2f}" for n in sizes[1:])
            + " verify --basic "
            + "/".join(f"{growth['verify --basic', n]:.2f}" for n in sizes[1:])
            + " to_basic "
            + "/".join(f"{growth['to_basic', n]:.2f}" for n in sizes[1:])
        )
    _report("criterion 7", "; ".join(details))


def test_criterion_8_sparsifier():
    """Edge bound always; 3-connectedness preserved exactly on all 5-node
    graphs and 1000 random graphs up to 12 nodes."""
    checked = 0
    for mask in range(1024):
        g = from_mask(5, mask)
        g_s, _ = simplify(g)
        out, dec = sparsify3(g_s)
        assert out.n_live_edges <= 3 * 5 - 3
        assert is_3_connected_brute(g_s) == is_3_connected_brute(out)
        checked += 1
    for seed in range(1000):
        rng = random.Random(seed + 8000)
        n = rng.randrange(4, 13)
        g, _ = simplify(gnp(n, rng.choice([0.3, 0.5, 0.8]), seed * 97 + 31))
        out, dec = sparsify3(g)
        assert out.n_live_edges <= max(0, 3 * n - 3)
        assert len(dec.kept) == out.n_live_edges
        assert is_3_connected_brute(g) == is_3_connected_brute(out)
        checked += 1
    _report("criterion 8", f"{checked} sparsifications keep the verdict and the edge bound")


def test_criterion_9_worked_instances():
    """The two worked instances reproduce exactly."""
    g, s0, c0 = figure_host()
    sub = build_subdivision(g, s0 + c0)
    ids = FIG_IDS
    expected = {
        (ids["e"], ids["h"], ids["g"]),
        (ids["a"], ids["b"], ids["c"]),
        tuple(sorted((ids["a"], ids["e"]))),
        tuple(sorted((ids["e"], ids["f"]))),
        tuple(sorted((ids["f"], ids["c"]))),
        tuple(sorted((ids["c"], ids["d"]))),
        tuple(sorted((ids["a"], ids["d"]))),
        tuple(sorted((ids["f"], ids["g"]))),
        tuple(sorted((ids["g"], ids["d"]))),
    }
    got = {link.nodes for link in sub.links.values()}
    assert got == expected and len(sub.links) == 9

    g = counterexample_graph()
    result = certify(g, prescribed_s0=range(6))
    assert result.certified
    assert [s.nodes for s in result.certificate.steps] == [(0, 4, 1), (4, 2)]
    assert verify_certificate(g, result.certificate).ok
    res_basic = verify_certificate(g, result.certificate, basic_mode=True)
    assert not res_basic.ok and res_basic.step == 0
    _report("criterion 9", "figure links and prescribed-start counterexample reproduce")
