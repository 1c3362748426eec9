"""Shared helpers for the test suite."""

import math
import random

import numpy as np
import pytest
from hypothesis import settings

from rangetri.core import Graph, IntArray, Range, RangePair, as_queries

# Every property test draws the same examples on every run and machine.
settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")


# Arrays every range solver and reduction must handle: n = 1-2, all-equal
# and monotone arrays, large negative values, and the int64 extremes.
ADVERSARIAL = [
    [7],
    [3, 3],
    [2, -9],
    [5] * 12,
    list(range(1, 13)),
    list(range(12, 0, -1)),
    [-4, 10**9, -4, 0, -(10**9), 10**9, -3],
    [2**63 - 1, -(2**63), 0, 2**63 - 1, -(2**63), -1, 2**63 - 1],
]
ADVERSARIAL_IDS = [
    "n1", "n2-equal", "n2-decreasing", "all-equal", "increasing", "decreasing", "negative",
    "int64-extremes",
]


def query_objects(queries) -> list:
    """A query batch as ``Range``/``RangePair`` objects, whether it came
    as objects or as a bounds array; for oracles used as inner solvers."""
    return as_queries(queries) if isinstance(queries, np.ndarray) else list(queries)


def sqrt_block(n: int, q: int) -> int:
    """max(1, floor(n / sqrt(q))), the block size at which Mo's step
    budget n + B q + n**2 / B is stated."""
    return max(1, int(n / math.sqrt(q)))


def rand_array(rng: random.Random, n: int, lo: int = None, hi: int = None) -> IntArray:
    if lo is None:
        lo, hi = 0, max(0, n - 1)
    return IntArray([rng.randint(lo, hi) for _ in range(n)])


def rand_range(rng: random.Random, n: int) -> Range:
    l = rng.randint(1, n)
    return Range(l, rng.randint(l, n))


def rand_pair(rng: random.Random, n: int) -> RangePair:
    assert n >= 2
    while True:
        pts = sorted(rng.randint(1, n) for _ in range(4))
        if pts[1] < pts[2]:
            return RangePair(Range(pts[0], pts[1]), Range(pts[2], pts[3]))


def rand_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Random graph with no isolated vertices (resampled until valid)."""
    while True:
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < p
        ]
        if edges and len({x for e in edges for x in e}) == n:
            return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(1, n)] + [(1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(1, n)])
