"""The benchmark's workloads: which inputs each one feeds the program.

An input is built from private RNGs seeded with
``"<seed>/<workload>/<input>/<purpose>"``, so the same ``--seed`` gives
the same bytes, and one input's shape never depends on another's.  ``scale``
multiplies the node count; the traced run builds every family at scale
0.5 as well, to report how time grows when n doubles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import gen


@dataclass(frozen=True)
class Spec:
    name: str
    family: str
    connected: bool  # planted truth: is the input 3-connected?
    make: Callable[[Callable[[str], random.Random], float], tuple[int, list]]


def _n(base: int, scale: float) -> int:
    return max(4, round(base * scale))


def _glued(first, second, shared: int, repaired: bool = False):
    """Glue two graphs built by `first` and `second` on `shared` random
    nodes; with `repaired`, add the cross edges of `gen.repair` too."""

    def make(rng_for, scale):
        rng = rng_for("glue")
        a = first(rng, scale)
        b = second(rng, scale)
        pairs = list(zip(rng.sample(range(a[0]), shared), rng.sample(range(b[0]), shared)))
        n, edges, sep = gen.glue(a, b, pairs)
        if repaired:
            edges = gen.repair(a[0], n, edges, sep, rng_for("repair"))
        return n, edges

    return make


def _growth(base):
    return lambda rng, scale: gen.growth(_n(base, scale), rng)


def _dense(base, extra):
    """Extra edges per node scale with n, so the density stays the same
    and a dense graph at half size still fits in n nodes."""
    return lambda rng, scale: gen.dense(_n(base, scale), round(extra * scale), rng)


def _glued_hubs(base):
    """Two K_{3,base} glued on two of their hubs (nodes 0 and 1), so the
    separation pair has degree 2 * base."""

    def make(rng_for, scale):
        a = gen.k3n(_n(base, scale))
        n, edges, _ = gen.glue(a, a, [(0, 0), (1, 1)])
        return n, edges

    return make


def _single(make_graph):
    return lambda rng_for, scale: make_graph(rng_for("graph"), scale)


def _many(count: int, prefix: str, family: str, connected: bool, make) -> list[Spec]:
    return [Spec(f"{prefix}-{i}", family, connected, make) for i in range(1, count + 1)]


# Several inputs of one shape per workload: certify time varies from one
# random input (or labeling) to the next by up to 3x on ladders and 4x on
# planted graphs, and a sum over many inputs keeps a run's total steady.
WORKLOADS: dict[str, list[Spec]] = {
    # Random growth graphs and circular ladders: m <= 2n, so the sparsifier
    # keeps everything and certify is all growth loop; the ladders' long
    # links make every link split copy a long tuple.
    "sparse": [
        *_many(12, "growth", "growth", True, _single(_growth(800))),
        *_many(6, "ladder", "ladder", True, _single(lambda rng, s: gen.ladder(_n(300, s)))),
        *_many(4, "glued", "glued-growth", False, _glued(_growth(400), _growth(400), 1)),
    ],
    # Nodes of degree about n: every O(degree) graph primitive dominates
    # verify and the transforms.  certify on a glued K_{3,n} takes 5x longer
    # on some labelings, so the glued graphs are small and several, which
    # keeps that from moving the workload's certify total.
    "hubs": [
        Spec("wheel", "wheel", True, _single(lambda rng, s: gen.wheel(_n(2000, s)))),
        Spec("k3n", "k3n", True, _single(lambda rng, s: gen.k3n(_n(1000, s)))),
        *_many(6, "glued-k3n", "glued-k3n", False, _glued_hubs(150)),
    ],
    # About 16 extra edges per node: the sparsifier drops ~85% of the edges
    # and they return as single-edge leftover steps; parsing, simplify,
    # sparsify3, the text formats and to_basic carry the load.  to_basic
    # time varies by up to 2x between such inputs, hence many small ones.
    "dense": [
        *_many(8, "dense", "dense", True, _single(_dense(70, 16))),
        *_many(2, "glued-dense", "glued-dense", False, _glued(_dense(90, 16), _dense(90, 16), 1)),
    ],
    # Two 3-connected halves glued on a pair or a node, at splits 50/50 and
    # 20/80: the growth loop refutes, and verify_witness checks the
    # refutation.  Glued graphs repaired by cross edges keep the certificate
    # commands measured.
    "planted": [
        *_many(3, "pair-50", "glued-pair", False, _glued(_growth(600), _growth(600), 2)),
        *_many(3, "pair-20", "glued-pair", False, _glued(_growth(240), _growth(960), 2)),
        *_many(3, "cut-50", "glued-cut", False, _glued(_growth(600), _growth(600), 1)),
        *_many(3, "cut-20", "glued-cut", False, _glued(_growth(240), _growth(960), 1)),
        *_many(12, "pair-repaired", "repaired", True, _glued(_growth(75), _growth(75), 2, repaired=True)),
        *_many(12, "cut-repaired", "repaired", True, _glued(_growth(75), _growth(75), 1, repaired=True)),
    ],
}


def rng_factory(seed: int, workload: str, name: str) -> Callable[[str], random.Random]:
    """One RNG per input and purpose, so inputs never share a stream."""
    return lambda purpose: random.Random(f"{seed}/{workload}/{name}/{purpose}")
