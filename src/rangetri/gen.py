"""Deterministic instance generators.

Every generator is a pure function of its parameters and seed; the CLI
writes the results through the file formats in ``files``.
"""

from __future__ import annotations

import random
from itertools import accumulate

from .core import DenseMatrix, Graph, InputError, IntArray, Range, RangePair


def gen_array(n: int, vmin: int, vmax: int, seed: int = 0) -> IntArray:
    if n < 1 or vmin > vmax:
        raise InputError("need n >= 1 and vmin <= vmax")
    rng = random.Random(seed)
    return IntArray([rng.randint(vmin, vmax) for _ in range(n)])


def gen_range(n: int, rng: random.Random) -> Range:
    """A range with mixed length distribution: short, medium, or long."""
    bucket = rng.randrange(3)
    if bucket == 0:
        length = rng.randint(1, max(1, n // 8))
    elif bucket == 1:
        length = rng.randint(1, max(1, n // 2))
    else:
        length = rng.randint(1, n)
    l = rng.randint(1, n - length + 1)
    return Range(l, l + length - 1)


def gen_range_pair(n: int, rng: random.Random) -> RangePair:
    """Two nonoverlapping ranges; needs n >= 2."""
    if n < 2:
        raise InputError("range pairs need n >= 2")
    while True:
        pts = sorted(rng.randint(1, n) for _ in range(4))
        if pts[1] < pts[2]:
            return RangePair(Range(pts[0], pts[1]), Range(pts[2], pts[3]))


def gen_queries(n: int, q: int, kind: str = "single", seed: int = 0) -> list:
    """q queries of the given kind: single ranges or range pairs."""
    if q < 0 or n < 1:
        raise InputError("need q >= 0 and n >= 1")
    if kind == "single":
        draw = gen_range
    elif kind == "pair":
        draw = gen_range_pair
    else:
        raise InputError(f"unknown query kind {kind!r}")
    rng = random.Random(seed)
    return [draw(n, rng) for _ in range(q)]


def _repair_isolated(n: int, edges: set[tuple[int, int]], rng: random.Random) -> None:
    """Attach every isolated vertex to a random other vertex."""
    touched = {x for e in edges for x in e}
    for v in range(1, n + 1):
        if v not in touched:
            w = rng.randint(1, n - 1)
            if w >= v:
                w += 1
            edges.add((min(v, w), max(v, w)))
            touched.add(v)
            touched.add(w)


def gen_graph(kind: str, n: int, p: float = 0.2, seed: int = 0) -> Graph:
    """A graph of the given kind on vertices 1..n, a pure function of
    (kind, n, p, seed): the same arguments give the same graph bit for bit.

    ``gnp`` keeps each pair with probability p, and ``bipartite`` each
    pair across the halves 1..n//2 and the rest.  ``powerlaw`` draws both
    endpoints of an edge with weight 1/v^0.8 until it holds max(n,
    p·n(n-1)/2) edges or has made 20 attempts per edge; each draw is one
    bisect into cumulative weights built once, O(log n).  These three
    kinds then attach each isolated vertex to a random other vertex, and
    need p to be a finite number in [0, 1].  ``complete`` and ``cycle``
    ignore p and the seed.
    """
    if n < 2:
        raise InputError("graphs need n >= 2")
    if kind in ("gnp", "bipartite", "powerlaw") and not 0 <= p <= 1:
        raise InputError(f"edge probability {p} is not in [0, 1]")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    if kind == "complete":
        edges = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)}
    elif kind == "cycle":
        if n < 3:
            raise InputError("cycles need n >= 3")
        edges = {(v, v + 1) for v in range(1, n)} | {(1, n)}
    elif kind == "gnp":
        edges = {
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < p
        }
        _repair_isolated(n, edges, rng)
    elif kind == "bipartite":
        half = n // 2
        edges = {
            (u, v)
            for u in range(1, half + 1)
            for v in range(half + 1, n + 1)
            if rng.random() < p
        }
        _repair_isolated(n, edges, rng)
    elif kind == "powerlaw":
        # endpoint weights ~ 1/rank: a few hubs, many low-degree vertices.
        # cum is the list choices(weights=...) would rebuild on every call;
        # one k=2 draw takes u, then v, from the same random() stream
        vertices = range(1, n + 1)
        cum = list(accumulate(1.0 / (v**0.8) for v in vertices))
        target = max(n, int(p * n * (n - 1) / 2))
        attempts = 0
        while len(edges) < target and attempts < 20 * target:
            attempts += 1
            u, v = rng.choices(vertices, cum_weights=cum, k=2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        _repair_isolated(n, edges, rng)
    else:
        raise InputError(f"unknown graph kind {kind!r}")
    return Graph(n, sorted(edges))


def gen_matrix(rows: int, cols: int, lo: int, hi: int, seed: int = 0) -> DenseMatrix:
    if rows < 1 or cols < 1 or lo > hi:
        raise InputError("need positive dimensions and lo <= hi")
    rng = random.Random(seed)
    return DenseMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])
